package gen

import (
	"reflect"
	"testing"
	"time"

	"semagent/internal/simulate"
)

// TestGenerateDeterministic: the same config must yield a deep-equal
// scenario and plan — the reproducing-seed contract.
func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{
		Seed: 42, Rooms: 5, Arrival: ArrivalBursty,
		DropFraction: 0.5, TornFraction: 0.5, StormFraction: 0.5,
		Crashes: 1,
	}
	sc1, plan1, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	sc2, plan2, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate (second): %v", err)
	}
	if !reflect.DeepEqual(sc1, sc2) {
		t.Fatalf("same config produced different scenarios")
	}
	if plan1 != plan2 {
		t.Fatalf("same config produced different plans: %+v vs %+v", plan1, plan2)
	}
	if !sc1.Journal {
		t.Fatalf("Crashes > 0 must force Journal on")
	}
}

// TestShipImpairmentsEndHealedOrKilled: a ship stream still cut or
// faulted at session end is an outstanding ship error, and the
// simulator fails such a run. Every generated schedule must therefore
// follow each StepCutShip / StepSinkFault with a heal or a kill of the
// same lineage.
func TestShipImpairmentsEndHealedOrKilled(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		sc, _, err := Generate(Config{
			Seed: seed, Rooms: 6, Arrival: ArrivalBursty, ClusterNodes: 3,
			NodeKills: 3, ShipCuts: 3, LaggedKills: 3, PromotionCrashes: 3,
		})
		if err != nil {
			t.Fatalf("seed %d: Generate: %v", seed, err)
		}
		impaired := make(map[string]int)
		for i, st := range sc.Steps {
			switch st.Kind {
			case simulate.StepCutShip, simulate.StepSinkFault:
				impaired[st.Node] = i
			case simulate.StepHealShip, simulate.StepKillNode:
				delete(impaired, st.Node)
			}
		}
		for node, i := range impaired {
			t.Fatalf("seed %d: lineage %s impaired at step %d and never healed or killed", seed, node, i)
		}
	}
}

// TestGenerateSeedsDiffer: different seeds must explore different
// populations (otherwise the sweep in E14 is one scenario 25 times).
func TestGenerateSeedsDiffer(t *testing.T) {
	a, _, _ := Generate(Config{Seed: 1, Rooms: 3})
	b, _, _ := Generate(Config{Seed: 2, Rooms: 3})
	if reflect.DeepEqual(a.Steps, b.Steps) {
		t.Fatalf("seeds 1 and 2 generated identical scripts")
	}
}

// TestGenerateNormalizes: pathological configs are clamped into range,
// never rejected.
func TestGenerateNormalizes(t *testing.T) {
	sc, plan, err := Generate(Config{
		Seed: 7, Rooms: -4, MinStudents: 50, MaxStudents: 2,
		MinUtterances: 9, MaxUtterances: 1, MeanGap: -time.Second,
		DropFraction: 3.5, Crashes: 99,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if plan.Rooms != 1 {
		t.Fatalf("Rooms = %d, want clamp to 1", plan.Rooms)
	}
	if !sc.Journal {
		t.Fatalf("crashes must force Journal")
	}
	if plan.Crashes > 4 {
		t.Fatalf("Crashes = %d, want clamp to <= 4", plan.Crashes)
	}
}

// runProfile generates, runs and invariant-checks one config.
func runProfile(t *testing.T, cfg Config) (*simulate.Scenario, *simulate.Result, Plan) {
	t.Helper()
	sc, plan, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	dir := ""
	if sc.Journal {
		dir = t.TempDir()
	}
	res, err := simulate.Run(sc, dir)
	if err != nil {
		t.Fatalf("Run(%s): %v", sc.Name, err)
	}
	rep := Check(sc, res)
	for _, v := range rep.Violations {
		t.Errorf("%s: invariant %s violated: %s", sc.Name, v.Invariant, v.Detail)
	}
	return sc, res, plan
}

// TestQuietPopulation: a fault-free population supervises everything.
func TestQuietPopulation(t *testing.T) {
	sc, res, _ := runProfile(t, Config{Seed: 11, Rooms: 3})
	if res.Sent == 0 {
		t.Fatalf("scenario %s sent nothing", sc.Name)
	}
	if res.Unsupervised != 0 {
		t.Fatalf("fault-free run left %d messages unsupervised", res.Unsupervised)
	}
}

// TestDropsAndTornFrames: abrupt disconnects (half mid-frame) must not
// break ordering or accounting.
func TestDropsAndTornFrames(t *testing.T) {
	_, _, plan := runProfile(t, Config{
		Seed: 23, Rooms: 6, Arrival: ArrivalPoisson,
		DropFraction: 1, TornFraction: 0.5,
	})
	if plan.Drops == 0 {
		t.Fatalf("DropFraction 1 scheduled no drops")
	}
	if plan.TornDrops == 0 {
		t.Fatalf("TornFraction 0.5 over %d drops scheduled no torn frames (unlucky seed — pick another)", plan.Drops)
	}
}

// TestShedStorms: gated flood bursts must shed, and the shed accounting
// must balance to the message (the shed-exact invariant inside Check).
func TestShedStorms(t *testing.T) {
	_, res, plan := runProfile(t, Config{
		Seed: 31, Rooms: 4, Arrival: ArrivalBursty, StormFraction: 1,
	})
	if plan.Storms != 4 {
		t.Fatalf("StormFraction 1 over 4 rooms scheduled %d storms", plan.Storms)
	}
	if res.PipelineTotal.Shed == 0 {
		t.Fatalf("storms shed nothing — gating is not forcing admission control")
	}
}

// TestCrashRecovery: journal crash + WAL replay mid-population, with
// the durability invariant applicable and clean.
func TestCrashRecovery(t *testing.T) {
	sc, res, plan := runProfile(t, Config{
		Seed: 47, Rooms: 3, Arrival: ArrivalPoisson,
		DropFraction: 0.4, Crashes: 2,
	})
	if plan.Crashes != 2 {
		t.Fatalf("scheduled %d crashes, want 2", plan.Crashes)
	}
	if len(res.Recoveries) != 2 {
		t.Fatalf("observed %d recoveries, want 2", len(res.Recoveries))
	}
	rep := Check(sc, res)
	found := false
	for _, name := range rep.Checked {
		if name == InvDurability {
			found = true
		}
	}
	if !found {
		t.Fatalf("durability not in checked set %v despite %d recoveries", rep.Checked, len(res.Recoveries))
	}
}

// TestKitchenSink: every fault class at once. Journal crashes are a
// single-process fault and node kills a cluster fault — mutually
// exclusive by construction — so covering the full invariant set takes
// one run of each shape; together they must check everything.
func TestKitchenSink(t *testing.T) {
	sc, res, plan := runProfile(t, Config{
		Seed: 63, Rooms: 5, Arrival: ArrivalBursty,
		DropFraction: 0.6, TornFraction: 0.5, StormFraction: 0.6,
		Crashes: 1,
	})
	if plan.Drops == 0 || plan.Storms == 0 || plan.Crashes == 0 {
		t.Fatalf("kitchen sink scheduled too little chaos: %+v", plan)
	}
	if res.Sent == 0 {
		t.Fatalf("no messages sent")
	}
	checked := make(map[string]bool)
	for _, name := range Check(sc, res).Checked {
		checked[name] = true
	}
	csc, cres, cplan := runProfile(t, Config{
		Seed: 63, Rooms: 5, Arrival: ArrivalBursty,
		DropFraction: 0.6, TornFraction: 0.5, StormFraction: 0.6,
		NodeKills: 2, Partitions: 1, ShipCuts: 1,
		PromotionCrashes: 1, LaggedKills: 1, SkewRaces: 1,
	})
	if cplan.NodeKills != 2 || cplan.Partitions != 1 || cplan.Crashes != 0 {
		t.Fatalf("cluster kitchen sink scheduled the wrong chaos: %+v", cplan)
	}
	if cplan.ShipCuts != 1 || cplan.PromotionCrashes != 1 || cplan.LaggedKills != 1 || cplan.SkewRaces != 1 {
		t.Fatalf("adversarial chaos not scheduled: %+v", cplan)
	}
	for _, name := range Check(csc, cres).Checked {
		checked[name] = true
	}
	for _, name := range InvariantNames() {
		if !checked[name] {
			t.Fatalf("invariant %s not covered by either kitchen-sink shape", name)
		}
	}
}

// TestClusterChaos: node kills and partitions over a populated fabric,
// with the failover invariant applicable and clean (via runProfile).
func TestClusterChaos(t *testing.T) {
	sc, res, plan := runProfile(t, Config{
		Seed: 59, Rooms: 6, Arrival: ArrivalPoisson,
		DropFraction: 0.3, NodeKills: 2, Partitions: 1, ClusterNodes: 3,
	})
	if sc.Cluster == nil || sc.Cluster.Nodes != 3 {
		t.Fatalf("cluster config not materialized: %+v", sc.Cluster)
	}
	if plan.NodeKills != 2 || plan.Partitions != 1 {
		t.Fatalf("scheduled %+v, want 2 kills and 1 partition", plan)
	}
	if len(res.Failovers) != 2 {
		t.Fatalf("observed %d failovers, want 2", len(res.Failovers))
	}
	rep := Check(sc, res)
	found := false
	for _, name := range rep.Checked {
		if name == InvFailover {
			found = true
		}
	}
	if !found {
		t.Fatalf("failover invariant not in checked set %v", rep.Checked)
	}
}

// TestRunDeterministic: the same generated scenario replays to the same
// structured observations — transcript bytes, verdict log, deliveries.
func TestRunDeterministic(t *testing.T) {
	cfg := Config{
		Seed: 77, Rooms: 3, Arrival: ArrivalPoisson,
		DropFraction: 0.5, StormFraction: 0.5, Crashes: 1,
	}
	run := func() *simulate.Result {
		sc, _, err := Generate(cfg)
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		res, err := simulate.Run(sc, t.TempDir())
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if string(a.Transcript) != string(b.Transcript) {
		t.Fatalf("same seed produced different transcripts")
	}
	if !reflect.DeepEqual(a.VerdictLog, b.VerdictLog) {
		t.Fatalf("same seed produced different verdict logs")
	}
	if !reflect.DeepEqual(a.Deliveries, b.Deliveries) {
		t.Fatalf("same seed produced different delivery logs")
	}
}
