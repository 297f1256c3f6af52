// Command evalharness regenerates the evaluation of DESIGN.md §4: one
// experiment per paper figure (E1–E8) plus the scale experiments E9
// (concurrent rooms through the sharded supervision pipeline, cached
// vs uncached parses), E10 (lock-free snapshot read path vs the legacy
// locked ontology), E11 (write-ahead journaling overhead and crash
// recovery), E12 (open-loop overload with admission-control shedding),
// E13 (deterministic scenario-matrix simulation scoring per-persona
// detection precision/recall), E14 (population-scale chaos sweep:
// generated classrooms with seeded fault schedules, audited against
// invariants), E15 (wire-to-verdict throughput and allocations,
// newline-JSON vs length-prefixed binary framing, across supervision
// pool sizes) and E16 (cluster failover: a deterministic three-arm
// drill — golden single-node session vs the identical session on the
// room-partitioned fabric, with and without a mid-session owner
// kill — plus a generated node-kill/partition chaos sweep audited
// against the failover invariant) and E17 (adversarial cluster chaos:
// an all-classes determinism drill — asymmetric ship-stream partitions,
// staged promotion-coordinator crashes, lagged standbys and
// clock-skewed lease races in one population, replayed byte-identical —
// plus a sweep rotating one profile per fault class, audited against
// the four adversarial invariants).
//
// Usage:
//
//	evalharness -exp all                  # run everything (default)
//	evalharness -exp E3 -n 2000           # one experiment, bigger workload
//	evalharness -exp E6 -seed 7
//	evalharness -exp E9 -rooms 16         # scale: more concurrent rooms
//	evalharness -exp E10 -json            # machine-readable results (JSON)
//	evalharness -exp E12 -json            # overload shedding (JSON)
//	evalharness -exp E13 -json            # persona-matrix detection scores (JSON)
//	evalharness -exp E14 -seed 7 -json    # chaos sweep; exits nonzero on violation
//	evalharness -exp E15 -json            # text vs binary wire comparison (JSON)
//	evalharness -exp E16 -seed 7 -json    # cluster failover drill + chaos sweep
//	evalharness -exp E17 -seed 7 -json    # adversarial chaos: partitions, staged crashes, skew
//	evalharness -exp E10,E11,E12,E13 -json  # one JSON array: the CI perf trajectory
//
// A comma-separated -exp list runs each experiment in order; with -json
// the output is a single JSON array of {"experiment", "result"} objects
// (the bench_trajectory.json artifact in CI).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"semagent/internal/eval"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment(s) to run: E1..E17, a comma-separated list, or all")
		n        = flag.Int("n", 1000, "workload size (samples/questions)")
		seed     = flag.Int64("seed", 1, "workload seed")
		rooms    = flag.Int("rooms", 8, "concurrent rooms (E9, E11, E12, E13, E14, E16, E17)")
		jsonFlag = flag.Bool("json", false, "emit machine-readable JSON results (E10..E17)")
	)
	flag.Parse()
	p := params{n: *n, seed: *seed, rooms: *rooms, json: *jsonFlag}
	// E14 defaults to its population-scale room count unless -rooms was
	// given explicitly (the shared default of 8 is an E9-era knob).
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "rooms" {
			p.roomsSet = true
		}
	})
	if err := run(strings.ToUpper(*exp), p); err != nil {
		fmt.Fprintln(os.Stderr, "evalharness:", err)
		os.Exit(1)
	}
}

// params carries the command-line knobs to the experiment runners.
type params struct {
	n        int
	seed     int64
	rooms    int
	roomsSet bool
	json     bool
}

// allExperiments is the canonical order.
var allExperiments = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17"}

// textRunners print human-readable tables; jsonResults produce the
// machine-readable result objects for the experiments that support
// -json (the perf-trajectory artifacts).
var (
	textRunners = map[string]func(params) error{
		"E1": runE1, "E2": runE2, "E3": runE3, "E4": runE4,
		"E5": runE5, "E6": runE6, "E7": runE7, "E8": runE8,
		"E9": runE9, "E10": runE10, "E11": runE11, "E12": runE12,
		"E13": runE13, "E14": runE14, "E15": runE15, "E16": runE16,
		"E17": runE17,
	}
	jsonResults = map[string]func(params) (interface{}, error){
		"E10": resultE10, "E11": resultE11, "E12": resultE12,
		"E13": resultE13, "E14": resultE14, "E15": resultE15,
		"E16": resultE16, "E17": resultE17,
	}
)

// trajectoryEntry wraps one experiment's result in the combined-JSON
// output. Seed echoes the -seed the run was invoked with, so any
// artifact names its own reproducing command.
type trajectoryEntry struct {
	Experiment string      `json:"experiment"`
	Seed       int64       `json:"seed"`
	Result     interface{} `json:"result"`
}

// failer is implemented by results that can fail the run after their
// JSON is emitted (E14: invariant violations must both upload the
// artifact and exit nonzero with the reproducing seed).
type failer interface{ Failed() error }

func run(expArg string, p params) error {
	names := strings.Split(expArg, ",")
	for i, name := range names {
		names[i] = strings.TrimSpace(name)
	}
	if len(names) == 1 && names[0] == "ALL" {
		names = allExperiments
	}
	for _, name := range names {
		if _, ok := textRunners[name]; !ok {
			return fmt.Errorf("unknown experiment %q (want E1..E17, a comma-separated list, or all)", name)
		}
	}

	if p.json {
		var entries []trajectoryEntry
		for _, name := range names {
			getter, ok := jsonResults[name]
			if !ok {
				return fmt.Errorf("%s does not support -json (supported: E10..E17)", name)
			}
			res, err := getter(p)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			entries = append(entries, trajectoryEntry{Experiment: name, Seed: p.seed, Result: res})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if len(entries) == 1 {
			// Single experiment keeps the bare-object shape older
			// tooling parses (e10.json / e11.json artifacts).
			if err := enc.Encode(entries[0].Result); err != nil {
				return err
			}
		} else if err := enc.Encode(entries); err != nil {
			return err
		}
		// The artifact is written either way; a failed result (E14
		// invariant violation) still exits nonzero with its seed.
		for _, e := range entries {
			if f, ok := e.Result.(failer); ok {
				if err := f.Failed(); err != nil {
					return err
				}
			}
		}
		return nil
	}

	for _, name := range names {
		if err := textRunners[name](p); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

func header(title string) {
	fmt.Printf("\n== %s ==\n", title)
}

func runE1(p params) error {
	header("E1  parser correctness on grammatical sentences (Fig. 1-2)")
	res, err := eval.RunE1(p.n, p.seed)
	if err != nil {
		return err
	}
	fmt.Printf("sentences: %d   parsed clean: %d (%.1f%%)   meta-rule violations: %d\n",
		res.Total, res.Parsed, res.ParseRate()*100, res.MetaViolations)
	lengths := make([]int, 0, len(res.ByLength))
	for l := range res.ByLength {
		lengths = append(lengths, l)
	}
	sort.Ints(lengths)
	fmt.Println("len  sentences  parse-rate")
	for _, l := range lengths {
		b := res.ByLength[l]
		fmt.Printf("%3d  %9d  %9.1f%%\n", l, b.Total, 100*float64(b.Parsed)/float64(b.Total))
	}
	return nil
}

func runE2(p params) error {
	header("E2  Learning_Angel syntax-error detection (Fig. 4)")
	fmt.Println("nulls  precision  recall  f1     acc    suggest  repair")
	for _, nulls := range []int{0, 1, 2, 3} {
		res, err := eval.RunE2(p.n, p.seed, nulls)
		if err != nil {
			return err
		}
		c := res.Confusion
		fmt.Printf("%5d  %9.3f  %6.3f  %.3f  %.3f  %6.1f%%  %5.1f%%\n",
			nulls, c.Precision(), c.Recall(), c.F1(), c.Accuracy(),
			res.SuggestionRate*100, res.RepairRate*100)
		if nulls == 2 {
			muts := make([]string, 0, len(res.ByMutation))
			for m := range res.ByMutation {
				muts = append(muts, m)
			}
			sort.Strings(muts)
			for _, m := range muts {
				fmt.Printf("       mutation %-20s recall %.3f (n=%d)\n",
					m, res.ByMutation[m].Recall(), res.ByMutation[m].Total())
			}
		}
	}
	return nil
}

func runE3(p params) error {
	header("E3  Semantic Agent: interrogative-sentence detection (Fig. 5, §4.3)")
	fmt.Println("threshold  precision  recall  f1     acc")
	for _, th := range []int{1, 2, 3, 4} {
		res, err := eval.RunE3(p.n, p.seed, th)
		if err != nil {
			return err
		}
		c := res.Confusion
		fmt.Printf("%9d  %9.3f  %6.3f  %.3f  %.3f\n",
			th, c.Precision(), c.Recall(), c.F1(), c.Accuracy())
		if th == 2 {
			cells := make([]string, 0, len(res.Cells))
			for cell := range res.Cells {
				cells = append(cells, cell)
			}
			sort.Strings(cells)
			for _, cell := range cells {
				fmt.Printf("           cell %-18s acc %.3f (n=%d)\n",
					cell, res.Cells[cell].Accuracy(), res.Cells[cell].Total())
			}
		}
	}
	return nil
}

func runE4(p params) error {
	header("E4  QA system answer rate per template (Fig. 6, §4.4)")
	res, err := eval.RunE4(p.n, p.seed, 0.2)
	if err != nil {
		return err
	}
	fmt.Println("template       asked  answered  rate     y/n-correct")
	for _, row := range res.Rows {
		correct := "    -"
		if row.Checkable > 0 {
			correct = fmt.Sprintf("%.1f%%", 100*float64(row.Correct)/float64(row.Checkable))
		}
		fmt.Printf("%-13s  %5d  %8d  %5.1f%%  %10s\n",
			row.Template, row.Asked, row.Answered,
			100*float64(row.Answered)/float64(row.Asked), correct)
	}
	fmt.Printf("overall in-ontology answer rate: %.1f%%\n", res.AnswerRate()*100)
	fmt.Printf("out-of-ontology: asked %d, wrongly answered %d\n",
		res.OutOfOntologyAsked, res.OutOfOntologyAnswered)
	return nil
}

func runE5(p params) error {
	header("E5  FAQ accumulation vs dialogue volume (§4.4 mining)")
	sizes := []int{100, 300, 1000, 3000}
	if p.n < 3000 {
		sizes = []int{50, 150, 500, p.n}
	}
	rows, err := eval.RunE5(sizes, p.seed)
	if err != nil {
		return err
	}
	fmt.Println("messages  faq-entries  mined-pairs  top-count")
	for _, r := range rows {
		fmt.Printf("%8d  %11d  %11d  %9d\n", r.Messages, r.FAQEntries, r.MinedPairs, r.TopCount)
	}
	return nil
}

func runE6(p params) error {
	header("E6  end-to-end chat room over TCP: supervision ablation (Fig. 3)")
	fmt.Println("mode    msgs  throughput      p50        p95        p99       mean")
	for _, mode := range []eval.E6Mode{eval.E6Off, eval.E6Inline, eval.E6Async} {
		res, err := eval.RunE6(eval.E6Config{
			Rooms: 4, ClientsPerRoom: 4, MessagesEach: 25, Mode: mode, Seed: p.seed,
		})
		if err != nil {
			return err
		}
		fmt.Printf("%-6s %5d  %7.0f/s  %9s  %9s  %9s  %9s\n",
			mode, res.Messages, res.Throughput, res.P50, res.P95, res.P99, res.Mean)
	}
	return nil
}

func runE7(p params) error {
	header("E7  ablation: ontology-distance vs Semantic Link Grammar (§4.3)")
	res, err := eval.RunE7(p.n, p.seed)
	if err != nil {
		return err
	}
	fmt.Println("method                 acc    precision  recall  us/sentence  maintenance-rows")
	for _, arm := range []eval.E7Arm{res.Onto, res.SLG} {
		fmt.Printf("%-21s  %.3f  %9.3f  %6.3f  %11.1f  %16d\n",
			arm.Name, arm.Confusion.Accuracy(), arm.Confusion.Precision(),
			arm.Confusion.Recall(), arm.MicrosPerSentence, arm.MaintenanceSize)
	}
	return nil
}

func runE8(p params) error {
	header("E8  corpus growth vs suggestion quality (§1 instructor-off problem)")
	rows, err := eval.RunE8([]int{0, 50, 200, 1000}, 100, p.seed)
	if err != nil {
		return err
	}
	fmt.Println("corpus-size  hit-rate  topical-rate")
	for _, r := range rows {
		fmt.Printf("%11d  %7.1f%%  %11.1f%%\n", r.CorpusSize, r.HitRate*100, r.TopicalRate*100)
	}
	return nil
}

func runE9(p params) error {
	header("E9  sharded supervision pipeline: concurrent rooms, parse cache (§4)")
	perRoom := p.n / 10
	res, err := eval.RunE9(eval.E9Config{
		Rooms: p.rooms, MessagesPerRoom: perRoom, Seed: p.seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("rooms: %d   messages/room: %d   workers: GOMAXPROCS\n",
		res.Config.Rooms, res.Config.MessagesPerRoom)
	fmt.Println("arm               msgs  throughput  cache-hit  max-queue")
	for _, arm := range res.Arms {
		hit, queue := "    -", "    -"
		if arm.Cached {
			hit = fmt.Sprintf("%.1f%%", arm.Cache.HitRate()*100)
		}
		if arm.Sharded {
			queue = fmt.Sprintf("%d", arm.Pipeline.MaxQueueDepth)
		}
		fmt.Printf("%-16s %5d  %8.0f/s  %9s  %9s\n",
			arm.Name, arm.Messages, arm.Throughput, hit, queue)
	}
	fmt.Printf("speedup over serial-uncached: sharded %.1fx, sharded+cached %.1fx\n",
		res.SpeedupSharded, res.SpeedupCached)
	return nil
}

func resultE11(p params) (interface{}, error) {
	return eval.RunE11(eval.E11Config{
		Rooms: p.rooms, MessagesPerRoom: p.n / 10, Seed: p.seed,
	})
}

func runE11(p params) error {
	perRoom := p.n / 10
	res, err := eval.RunE11(eval.E11Config{
		Rooms: p.rooms, MessagesPerRoom: perRoom, Seed: p.seed,
	})
	if err != nil {
		return err
	}
	header("E11 write-ahead journaling overhead + crash recovery (D9)")
	fmt.Printf("rooms: %d   messages/room: %d   workers: GOMAXPROCS\n",
		res.Config.Rooms, res.Config.MessagesPerRoom)
	fmt.Println("arm               msgs  throughput  overhead  wal-records  fsyncs  recovered")
	for _, arm := range res.Arms {
		overhead, recovered := "       -", "        -"
		if arm.Name != "no-journal" {
			overhead = fmt.Sprintf("%7.1f%%", arm.OverheadPct)
			recovered = fmt.Sprintf("%d/%d", arm.RecoveredCorpus, arm.Messages)
		}
		fmt.Printf("%-16s %5d  %8.0f/s  %8s  %11d  %6d  %9s\n",
			arm.Name, arm.Messages, arm.Throughput, overhead, arm.Records, arm.Fsyncs, recovered)
	}
	fmt.Printf("journaling cost vs no-journal: group-commit %.1f%%, fsync-per-record %.1f%%\n",
		res.GroupOverheadPct, res.SyncOverheadPct)
	return nil
}

func resultE10(p params) (interface{}, error) {
	return eval.RunE10(eval.E10Config{QueriesPerWorker: p.n * 20, Seed: p.seed})
}

func runE10(p params) error {
	res, err := eval.RunE10(eval.E10Config{QueriesPerWorker: p.n * 20, Seed: p.seed})
	if err != nil {
		return err
	}
	header("E10 lock-free snapshot read path (D8)")
	fmt.Printf("snapshot v%d: %d items, %d relations, %d table entries (radius %d), max phrase %d\n",
		res.Snapshot.Version, res.Snapshot.Items, res.Snapshot.Relations,
		res.Snapshot.TableEntries, res.Snapshot.TableRadius, res.Snapshot.MaxPhraseLen)
	fmt.Println("workers   queries  ns/query   queries/s")
	for _, arm := range res.Arms {
		fmt.Printf("%7d  %8d  %8.1f  %10.0f\n",
			arm.Workers, arm.Queries, arm.NsPerQuery, arm.QueriesPerSec)
	}
	fmt.Println("(the locked-ontology baseline arm is frozen in DESIGN.md §E10)")
	return nil
}

func e13Config(p params) eval.E13Config {
	turns := p.n / 100
	if turns < 2 {
		turns = 2
	}
	return eval.E13Config{Rooms: p.rooms, Turns: turns, Seed: p.seed}
}

func resultE13(p params) (interface{}, error) {
	return eval.RunE13(e13Config(p))
}

func runE13(p params) error {
	res, err := eval.RunE13(e13Config(p))
	if err != nil {
		return err
	}
	header("E13 scenario matrix: per-persona detection precision/recall (D11)")
	fmt.Printf("scenario: %s   messages: %d   supervised: %d   mined FAQ pairs: %d\n",
		res.Scenario, res.Messages, res.Supervised, res.MinedPairs)
	fmt.Println("persona       sent  supervised  shed    tp    fp    fn    tn  precision  recall")
	for _, row := range res.Rows {
		fmt.Printf("%-12s %5d  %10d  %4d  %4d  %4d  %4d  %4d  %9.3f  %6.3f\n",
			row.Persona, row.Sent, row.Supervised, row.Shed,
			row.TruePos, row.FalsePos, row.FalseNeg, row.TrueNeg,
			row.Precision, row.Recall)
	}
	fmt.Printf("micro precision %.3f, micro recall %.3f, question answer rate %.1f%%\n",
		res.MicroPrecision, res.MicroRecall, res.QuestionAnswerRate*100)
	return nil
}

func e14Config(p params) eval.E14Config {
	cfg := eval.E14Config{Seed: p.seed}
	if p.roomsSet {
		cfg.Rooms = p.rooms
	}
	return cfg
}

func resultE14(p params) (interface{}, error) {
	return eval.RunE14(e14Config(p))
}

func e15Config(p params) eval.E15Config {
	// -n scales each client's script (default 1000 → 125 lines/client
	// across the 4×2 population).
	return eval.E15Config{MessagesEach: p.n / 8, Seed: p.seed}
}

func resultE15(p params) (interface{}, error) {
	return eval.RunE15(e15Config(p))
}

func runE15(p params) error {
	res, err := eval.RunE15(e15Config(p))
	if err != nil {
		return err
	}
	header("E15 wire-to-verdict: text vs binary framing over TCP (D13)")
	fmt.Printf("rooms: %d   clients/room: %d   messages/client: %d\n",
		res.Config.Rooms, res.Config.ClientsPerRoom, res.Config.MessagesEach)
	fmt.Println("wire     workers   msgs  throughput   allocs/msg   bytes/msg")
	for _, arm := range res.Arms {
		fmt.Printf("%-8s %7d  %5d  %8.0f/s  %11.0f  %10.0f\n",
			arm.Wire, arm.Workers, arm.Messages, arm.Throughput,
			arm.AllocsPerMsg, arm.BytesPerMsg)
	}
	fmt.Printf("binary vs text at %d workers: %.2fx throughput, %.0f%% fewer allocs/msg\n",
		res.Arms[len(res.Arms)-1].Workers, res.BinarySpeedup, res.AllocReduction*100)
	return nil
}

func runE14(p params) error {
	res, err := eval.RunE14(e14Config(p))
	if err != nil {
		return err
	}
	header("E14 population-scale chaos sweep: generated scenarios vs invariants (D12)")
	fmt.Printf("master seed: %d   waves: %d   rooms: %d   students: %d\n",
		res.Config.Seed, res.Waves, res.Rooms, res.Students)
	fmt.Printf("messages: %d   supervised: %d   shed: %d\n",
		res.Messages, res.Supervised, res.Shed)
	fmt.Printf("faults: %d drops (%d torn), %d storms, %d crashes (%d WAL records replayed)\n",
		res.Faults.Drops, res.Faults.TornDrops, res.Faults.Storms,
		res.Faults.Crashes, res.Faults.ReplayedRecords)
	names := make([]string, 0, len(res.InvariantChecks))
	for name := range res.InvariantChecks {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Println("invariant           waves-audited  violations")
	for _, name := range names {
		count := 0
		for _, v := range res.Violations {
			if v.Invariant == name {
				count++
			}
		}
		fmt.Printf("%-19s %13d  %10d\n", name, res.InvariantChecks[name], count)
	}
	if err := res.Failed(); err != nil {
		for _, v := range res.Violations {
			fmt.Printf("VIOLATION wave %d (seed %d) %s: %s\n", v.Wave, v.Seed, v.Invariant, v.Detail)
		}
		return err
	}
	fmt.Printf("all invariants held; reproduce with: evalharness -exp E14 -seed %d\n", res.Config.Seed)
	return nil
}

func e16Config(p params) eval.E16Config {
	cfg := eval.E16Config{Seed: p.seed}
	if p.roomsSet {
		cfg.Rooms = p.rooms
	}
	return cfg
}

func resultE16(p params) (interface{}, error) {
	return eval.RunE16(e16Config(p))
}

func runE16(p params) error {
	res, err := eval.RunE16(e16Config(p))
	if err != nil {
		return err
	}
	header("E16 cluster failover: golden vs fabric vs mid-session owner kill (D15)")
	fmt.Printf("drill seed: %d   kill step: %d   reconnect-window deliveries: %d\n",
		res.Config.Seed, res.KillStep, res.WindowDeliveries)
	fmt.Println("arm        sent  supervised  deliveries  verdicts")
	for _, arm := range []struct {
		name string
		a    eval.E16Arm
	}{
		{"golden", res.Golden},
		{"cluster", res.Cluster},
		{"failover", res.Failover},
	} {
		fmt.Printf("%-9s %5d  %10d  %10d  %8d\n",
			arm.name, arm.a.Sent, arm.a.Supervised, arm.a.Deliveries, arm.a.Verdicts)
	}
	p16 := res.Promotion
	fmt.Printf("promotion: %s -> %s, %d rooms moved; standby LSN %d >= dead fsync LSN %d, replayed %d records (%d errors)\n",
		p16.Dead, p16.Promoted, len(p16.Moves), p16.SinkLastLSN, p16.DeadSyncedLSN, p16.ReplayApplied, p16.ReplayErrors)
	fmt.Printf("sweep: %d waves, %d rooms, %d students, %d messages; %d node kills, %d partitions, %d failovers\n",
		res.Waves, res.Rooms, res.Students, res.Messages,
		res.Faults.NodeKills, res.Faults.Partitions, res.Failovers)
	names := make([]string, 0, len(res.InvariantChecks))
	for name := range res.InvariantChecks {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Println("invariant                         waves-audited")
	for _, name := range names {
		fmt.Printf("%-33s %13d\n", name, res.InvariantChecks[name])
	}
	if err := res.Failed(); err != nil {
		for _, d := range res.Divergences {
			fmt.Printf("DIVERGENCE %s\n", d)
		}
		for _, v := range res.Violations {
			fmt.Printf("VIOLATION wave %d (seed %d) %s: %s\n", v.Wave, v.Seed, v.Invariant, v.Detail)
		}
		return err
	}
	fmt.Printf("drill matched golden outside the window and all invariants held; reproduce with: evalharness -exp E16 -seed %d\n",
		res.Config.Seed)
	return nil
}

func e17Config(p params) eval.E17Config {
	cfg := eval.E17Config{Seed: p.seed}
	if p.roomsSet {
		cfg.Rooms = p.rooms
	}
	return cfg
}

func resultE17(p params) (interface{}, error) {
	return eval.RunE17(e17Config(p))
}

func runE17(p params) error {
	res, err := eval.RunE17(e17Config(p))
	if err != nil {
		return err
	}
	header("E17 adversarial cluster chaos: partitions, staged crashes, lag, skew (D16)")
	d := res.Drill
	fmt.Printf("drill seed: %d   byte-identical replay: %v\n", d.Seed, d.Identical)
	fmt.Printf("drill: %d messages, %d supervised, %d failovers (%d resumed, %d lossy), %d races (%d seized, %d refused)\n",
		d.Messages, d.Supervised, d.Failovers, d.Faults.Resumes, d.Faults.LossyPromotions,
		d.Races, d.Faults.Seizures, d.Faults.Refusals)
	f := res.Faults
	fmt.Printf("sweep: %d waves, %d rooms, %d students, %d messages; faults: %d ship cuts (%d heals), %d staged crashes, %d lagged kills, %d skew races, %d kills, %d partitions\n",
		res.Waves, res.Rooms, res.Students, res.Messages,
		f.ShipCuts, f.ShipHeals, f.PromoCrash, f.LaggedKills, f.SkewRaces, f.NodeKills, f.Partitions)
	fmt.Printf("outcomes: %d failovers (%d resumed, %d lossy), %d races (%d seized, %d refused)\n",
		res.Failovers, f.Resumes, f.LossyPromotions, res.Races, f.Seizures, f.Refusals)
	names := make([]string, 0, len(res.InvariantChecks))
	for name := range res.InvariantChecks {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Println("invariant                         waves-audited")
	for _, name := range names {
		fmt.Printf("%-33s %13d\n", name, res.InvariantChecks[name])
	}
	if err := res.Failed(); err != nil {
		for _, v := range res.Drill.Violations {
			fmt.Printf("DRILL VIOLATION %s: %s\n", v.Invariant, v.Detail)
		}
		for _, v := range res.Violations {
			fmt.Printf("VIOLATION wave %d (seed %d) %s: %s\n", v.Wave, v.Seed, v.Invariant, v.Detail)
		}
		return err
	}
	fmt.Printf("replay byte-identical and all adversarial invariants held; reproduce with: evalharness -exp E17 -seed %d\n",
		res.Config.Seed)
	return nil
}

func e12Config(p params) eval.E12Config {
	return eval.E12Config{Rooms: p.rooms, Seed: p.seed}
}

func resultE12(p params) (interface{}, error) {
	return eval.RunE12(e12Config(p))
}

func runE12(p params) error {
	res, err := eval.RunE12(e12Config(p))
	if err != nil {
		return err
	}
	header("E12 overload shedding: open-loop load at N× capacity (D10)")
	fmt.Printf("capacity: %.0f msg/s (uncached supervision + %s stage cost, workers: GOMAXPROCS)\n",
		res.CapacityMsgsPerSec, res.Config.StageCost)
	fmt.Println("arm         offered    sent/s  supervised  shed%        p50        p95        p99  timeouts")
	for _, arm := range res.Arms {
		fmt.Printf("%-10s %7.0f/s %8.0f  %9.0f/s %5.1f%%  %9s  %9s  %9s  %8d\n",
			arm.Name, arm.OfferedRate, arm.SentRate, arm.SupervisedRate,
			arm.ShedFraction*100, arm.P50, arm.P95, arm.P99, arm.Timeouts)
	}
	fmt.Printf("at max load: supervised goodput %.0f%% of capacity, p99 shed %s vs blocking %s (bounded: %v)\n",
		res.GoodputVsCapacity*100, res.P99AtMaxShed, res.P99AtMaxBlocking, res.BoundedP99)
	return nil
}
