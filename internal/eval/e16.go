package eval

import (
	"fmt"
	"reflect"

	"semagent/internal/chat"
	"semagent/internal/cluster"
	"semagent/internal/simulate"
	"semagent/internal/simulate/gen"
)

// E16Config parameterizes the cluster failover experiment: a
// deterministic three-arm drill (golden single-node session vs the
// identical session on the fabric, with and without a mid-session
// owner kill) plus a generated chaos sweep of node kills and
// partitions audited against the failover invariant.
type E16Config struct {
	// Seed drives the drill script and derives every sweep wave's seed.
	Seed int64 `json:"seed"`
	// Rooms is the chaos-sweep population (default 40).
	Rooms int `json:"rooms"`
	// RoomsPerWave bounds one fabric's room count (default 10; the wave
	// count is floored at 4 so every cluster fault profile appears).
	RoomsPerWave int `json:"rooms_per_wave"`
	// Nodes is the fabric width for sweep waves (default 3).
	Nodes int `json:"nodes"`

	// Parallel bounds concurrently running sweep waves (default
	// GOMAXPROCS). Excluded from the artifact: parallelism cannot
	// change the results, only the wall clock.
	Parallel int `json:"-"`
}

// E16Arm summarizes one drill arm's session.
type E16Arm struct {
	Sent       int `json:"sent"`
	Supervised int `json:"supervised"`
	Deliveries int `json:"deliveries"`
	Verdicts   int `json:"verdicts"`
}

// E16Faults aggregates the sweep's fault injections.
type E16Faults struct {
	Drops      int `json:"drops"`
	TornDrops  int `json:"torn_drops"`
	Storms     int `json:"storms"`
	NodeKills  int `json:"node_kills"`
	Partitions int `json:"partitions"`
	// PromotedReplays counts WAL records replayed by standby promotions.
	PromotedReplays int `json:"promoted_replays"`
}

// E16Wave reports one generated cluster population.
type E16Wave struct {
	Index      int             `json:"index"`
	Seed       int64           `json:"seed"`
	Profile    string          `json:"profile"`
	Rooms      int             `json:"rooms"`
	Students   int             `json:"students"`
	Messages   int             `json:"messages"`
	Supervised int             `json:"supervised"`
	Failovers  int             `json:"failovers"`
	Faults     E16Faults       `json:"faults"`
	Checked    []string        `json:"checked"`
	Violations []gen.Violation `json:"violations,omitempty"`
}

// E16Result is the machine-readable outcome (evalharness -exp E16
// -json; the cluster CI job's artifact). It carries only deterministic
// aggregates: reconnect-window delivery interleaving is scheduling-
// dependent, so the window is scored by count, never by content.
type E16Result struct {
	Config E16Config `json:"config"`

	// Drill.
	KillStep int    `json:"kill_step"`
	Golden   E16Arm `json:"golden"`
	Cluster  E16Arm `json:"cluster"`
	Failover E16Arm `json:"failover"`
	// WindowDeliveries counts the reconnect-window messages (welcomes
	// and join notices as the gateway relinks the dead owner's rooms)
	// observed at the kill step — the only step allowed to differ from
	// the golden arm.
	WindowDeliveries int `json:"window_deliveries"`
	// Promotion is the failover arm's standby promotion record.
	Promotion cluster.Promotion `json:"promotion"`
	// Divergences lists every way an arm failed to match the golden
	// transcript (empty on pass).
	Divergences []string `json:"divergences"`

	// Sweep.
	Waves           int            `json:"waves"`
	Rooms           int            `json:"rooms"`
	Students        int            `json:"students"`
	Messages        int            `json:"messages"`
	Supervised      int            `json:"supervised"`
	Failovers       int            `json:"failovers"`
	Faults          E16Faults      `json:"faults"`
	InvariantChecks map[string]int `json:"invariant_checks"`
	WaveResults     []E16Wave      `json:"wave_results"`
	Violations      []E14Violation `json:"violations"`
}

// Failed returns an error when the drill diverged or any sweep
// invariant was violated, carrying the reproducing command.
func (r *E16Result) Failed() error {
	repro := fmt.Sprintf("reproduce with: evalharness -exp E16 -json -seed %d -rooms %d", r.Config.Seed, r.Config.Rooms)
	if len(r.Divergences) > 0 {
		return fmt.Errorf("E16: failover drill diverged from the golden transcript: %s — %s", r.Divergences[0], repro)
	}
	if len(r.Violations) > 0 {
		v := r.Violations[0]
		return fmt.Errorf("E16: %d invariant violation(s); first: wave %d (seed %d) violated %s: %s — %s",
			len(r.Violations), v.Wave, v.Seed, v.Invariant, v.Detail, repro)
	}
	return nil
}

// e16Profiles rotate over the wave index so every sweep of >= 4 waves
// exercises single kills, kill+partition mixes, chained kills and
// pure partitions.
var e16Profiles = []waveProfile{
	{"poisson-kill", func(c *gen.Config) {
		c.Arrival = gen.ArrivalPoisson
		c.DropFraction = 0.3
		c.NodeKills = 1
	}},
	{"kill-partition", func(c *gen.Config) {
		c.Arrival = gen.ArrivalUniform
		c.DropFraction, c.TornFraction = 0.4, 0.5
		c.NodeKills, c.Partitions = 1, 1
	}},
	{"double-kill", func(c *gen.Config) {
		c.Arrival = gen.ArrivalBursty
		c.StormFraction = 0.5
		c.NodeKills = 2
	}},
	{"partition-only", func(c *gen.Config) {
		c.Arrival = gen.ArrivalPoisson
		c.DropFraction = 0.3
		c.Partitions = 2
	}},
}

// RunE16 runs the failover drill and the cluster chaos sweep.
func RunE16(cfg E16Config) (*E16Result, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Rooms <= 0 {
		cfg.Rooms = 40
	}
	if cfg.RoomsPerWave <= 0 {
		cfg.RoomsPerWave = 10
	}
	if cfg.Nodes <= 0 {
		cfg.Nodes = 3
	}
	out := &E16Result{Config: cfg, Divergences: []string{}}
	if err := runE16Drill(cfg, out); err != nil {
		return nil, err
	}
	s, err := sweep(sweepConfig{
		name: "E16", seed: cfg.Seed, rooms: cfg.Rooms,
		roomsPerWave: cfg.RoomsPerWave, parallel: cfg.Parallel, nodes: cfg.Nodes,
	}, e16Profiles, runE16Wave)
	if err != nil {
		return nil, err
	}
	out.Waves = len(s.waves)
	out.InvariantChecks = s.checks
	out.WaveResults = s.waves
	out.Violations = s.violations
	for _, w := range s.waves {
		out.Rooms += w.Rooms
		out.Students += w.Students
		out.Messages += w.Messages
		out.Supervised += w.Supervised
		out.Failovers += w.Failovers
		out.Faults.Drops += w.Faults.Drops
		out.Faults.TornDrops += w.Faults.TornDrops
		out.Faults.Storms += w.Faults.Storms
		out.Faults.NodeKills += w.Faults.NodeKills
		out.Faults.Partitions += w.Faults.Partitions
		out.Faults.PromotedReplays += w.Faults.PromotedReplays
	}
	return out, nil
}

// runDrillArm replays one drill arm.
func runDrillArm(seed int64, mode simulate.DrillMode) (*simulate.Result, int, error) {
	sc, kill := simulate.FailoverDrill(seed, mode)
	res, err := replay(sc)
	if err != nil {
		return nil, 0, fmt.Errorf("drill %v: %w", mode, err)
	}
	return res, kill, nil
}

func armStats(res *simulate.Result) E16Arm {
	return E16Arm{
		Sent:       res.Sent,
		Supervised: res.Supervised,
		Deliveries: len(res.Deliveries),
		Verdicts:   len(res.VerdictLog),
	}
}

// deliveryKey strips the step tag: arms are compared step by step, and
// within one step the identifying tuple is everything but the index.
type deliveryKey struct {
	Client string
	Type   chat.MsgType
	Room   string
	From   string
	Agent  string
	Text   string
}

func byStep(res *simulate.Result) map[int][]deliveryKey {
	out := make(map[int][]deliveryKey)
	for _, d := range res.Deliveries {
		out[d.Step] = append(out[d.Step], deliveryKey{
			Client: d.Client, Type: d.Type, Room: d.Room,
			From: d.From, Agent: d.Agent, Text: d.Text,
		})
	}
	return out
}

// compareArms diffs an arm against the golden arm step by step. When
// windowStep >= 0 that step is the failover arm's reconnect window: it
// is scored by count (returned) and by content class — only welcomes
// and system join notices may appear; a chat or agent message inside
// the window would mean user-visible content was duplicated or
// reordered by the failover.
func compareArms(arm string, golden, other *simulate.Result, windowStep int) (int, []string) {
	var divs []string
	g, o := byStep(golden), byStep(other)
	steps := len(golden.Scenario.Steps) + 1 // +1: the final settle bucket
	window := 0
	for s := 0; s <= steps; s++ {
		if s == windowStep {
			if n := len(g[s]); n != 0 {
				divs = append(divs, fmt.Sprintf("%s: golden arm has %d deliveries at the kill step", arm, n))
			}
			window = len(o[s])
			for _, d := range o[s] {
				if d.Type != chat.TypeWelcome && d.Type != chat.TypeSystem {
					divs = append(divs, fmt.Sprintf("%s: step %d reconnect window leaked a %s message %q to %s",
						arm, s, d.Type, d.Text, d.Client))
				}
			}
			continue
		}
		if !reflect.DeepEqual(g[s], o[s]) {
			divs = append(divs, fmt.Sprintf("%s: step %d deliveries differ (golden %d, %s %d)",
				arm, s, len(g[s]), arm, len(o[s])))
		}
	}
	if !reflect.DeepEqual(golden.VerdictLog, other.VerdictLog) {
		divs = append(divs, fmt.Sprintf("%s: supervision verdict log differs from golden", arm))
	}
	return window, divs
}

func runE16Drill(cfg E16Config, out *E16Result) error {
	golden, kill, err := runDrillArm(cfg.Seed, simulate.DrillGolden)
	if err != nil {
		return err
	}
	clusterRes, _, err := runDrillArm(cfg.Seed, simulate.DrillCluster)
	if err != nil {
		return err
	}
	failover, _, err := runDrillArm(cfg.Seed, simulate.DrillFailover)
	if err != nil {
		return err
	}
	out.KillStep = kill
	out.Golden = armStats(golden)
	out.Cluster = armStats(clusterRes)
	out.Failover = armStats(failover)

	// Transparency: the fabric behind the gateway is invisible — every
	// step, including the aligned advance at the kill index, matches.
	if _, divs := compareArms("cluster", golden, clusterRes, -1); len(divs) > 0 {
		out.Divergences = append(out.Divergences, divs...)
	}
	// Failover: everything outside the reconnect window matches.
	window, divs := compareArms("failover", golden, failover, kill)
	out.WindowDeliveries = window
	out.Divergences = append(out.Divergences, divs...)
	if window == 0 {
		out.Divergences = append(out.Divergences, "failover: kill step produced no reconnect window (did the kill happen?)")
	}
	if len(failover.Failovers) != 1 {
		out.Divergences = append(out.Divergences, fmt.Sprintf("failover: %d promotions recorded, want 1", len(failover.Failovers)))
	} else {
		out.Promotion = failover.Failovers[0].Promotion
		p := out.Promotion
		if p.SinkLastLSN < p.DeadSyncedLSN {
			out.Divergences = append(out.Divergences, fmt.Sprintf(
				"failover: standby watermark %d below the dead owner's fsync watermark %d", p.SinkLastLSN, p.DeadSyncedLSN))
		}
		if p.ReplayErrors != 0 {
			out.Divergences = append(out.Divergences, fmt.Sprintf("failover: promotion replay had %d errors", p.ReplayErrors))
		}
	}

	// Replay the failover arm once more: the aggregates — the entire
	// JSON artifact — must reproduce bit for bit from the same seed.
	again, _, err := runDrillArm(cfg.Seed, simulate.DrillFailover)
	if err != nil {
		return err
	}
	w2, _ := compareArms("failover", golden, again, kill)
	if armStats(again) != out.Failover || w2 != window {
		out.Divergences = append(out.Divergences, "failover: two identical runs produced different aggregates")
	}
	return nil
}

// runE16Wave generates, replays and audits one cluster population.
func runE16Wave(idx int, profile string, g gen.Config) (E16Wave, error) {
	r, err := replayGenerated(g)
	if err != nil {
		return E16Wave{}, err
	}
	wave := E16Wave{
		Index:      idx,
		Seed:       g.Seed,
		Profile:    profile,
		Rooms:      r.plan.Rooms,
		Students:   r.plan.Students,
		Messages:   r.res.Sent,
		Supervised: r.res.Supervised,
		Failovers:  len(r.res.Failovers),
		Faults: E16Faults{
			Drops:      r.plan.Drops,
			TornDrops:  r.plan.TornDrops,
			Storms:     r.plan.Storms,
			NodeKills:  r.plan.NodeKills,
			Partitions: r.plan.Partitions,
		},
		Checked:    r.rep.Checked,
		Violations: r.rep.Violations,
	}
	for _, fo := range r.res.Failovers {
		wave.Faults.PromotedReplays += fo.ReplayApplied
	}
	return wave, nil
}
