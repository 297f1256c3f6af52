package eval

import (
	"fmt"

	"semagent/internal/simulate/gen"
)

// E14Config parameterizes the population-scale chaos sweep: the
// property-based scenario generator (internal/simulate/gen, DESIGN.md
// D12) draws whole classroom populations plus fault schedules from one
// seed, replays them through the full supervision stack on the virtual
// clock, and audits every run against the chaos invariants instead of
// golden transcripts.
type E14Config struct {
	// Rooms is the total classroom population, split across waves
	// (default 1000).
	Rooms int `json:"rooms"`
	// Seed is the master seed; every wave seed derives from it, so the
	// whole sweep reproduces from this one number.
	Seed int64 `json:"seed"`
	// RoomsPerWave bounds one simulated server's room count (default
	// 50; the wave count is also floored at 4 so every chaos profile —
	// drops, storms, crashes — appears in every sweep).
	RoomsPerWave int `json:"rooms_per_wave"`

	// Parallel bounds concurrently running waves (default GOMAXPROCS).
	// Excluded from the JSON artifact: parallelism cannot change the
	// results, only the wall clock.
	Parallel int `json:"-"`
}

// E14Faults aggregates the fault injections the sweep explored.
type E14Faults struct {
	Drops           int `json:"drops"`
	TornDrops       int `json:"torn_drops"`
	Storms          int `json:"storms"`
	Crashes         int `json:"crashes"`
	ReplayedRecords int `json:"replayed_records"`
}

// E14Wave reports one generated population: its chaos profile, scale,
// outcome counters and invariant audit.
type E14Wave struct {
	Index      int             `json:"index"`
	Seed       int64           `json:"seed"`
	Profile    string          `json:"profile"`
	Rooms      int             `json:"rooms"`
	Students   int             `json:"students"`
	Messages   int             `json:"messages"`
	Supervised int             `json:"supervised"`
	Shed       int             `json:"shed"`
	Faults     E14Faults       `json:"faults"`
	Checked    []string        `json:"checked"`
	Violations []gen.Violation `json:"violations,omitempty"`
}

// E14Violation is one invariant breach with its reproducing wave seed.
type E14Violation struct {
	Wave      int    `json:"wave"`
	Seed      int64  `json:"seed"`
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

// E14Result is the machine-readable sweep outcome (evalharness -exp
// E14 -json; the chaos-soak artifact in CI). It carries no wall-clock
// fields: the same config must reproduce the same bytes.
type E14Result struct {
	Config E14Config `json:"config"`

	Waves      int `json:"waves"`
	Rooms      int `json:"rooms"`
	Students   int `json:"students"`
	Messages   int `json:"messages"`
	Supervised int `json:"supervised"`
	Shed       int `json:"shed"`

	Faults E14Faults `json:"faults"`
	// InvariantChecks counts, per invariant, the waves it was audited
	// in (durability requires a crash wave, shed-exact a pipeline).
	InvariantChecks map[string]int `json:"invariant_checks"`

	WaveResults []E14Wave      `json:"wave_results"`
	Violations  []E14Violation `json:"violations"`
}

// Failed returns an error when any invariant was violated, carrying
// the first reproducing wave seed — the CI soak job surfaces it.
func (r *E14Result) Failed() error {
	if len(r.Violations) == 0 {
		return nil
	}
	v := r.Violations[0]
	return fmt.Errorf("E14: %d invariant violation(s); first: wave %d (seed %d) violated %s: %s — reproduce with: evalharness -exp E14 -json -seed %d -rooms %d",
		len(r.Violations), v.Wave, v.Seed, v.Invariant, v.Detail, r.Config.Seed, r.Config.Rooms)
}

// waveProfiles rotate over the wave index so every sweep of >= 4 waves
// exercises every fault class — and therefore every invariant.
var waveProfiles = []waveProfile{
	{"uniform-drops", func(c *gen.Config) {
		c.Arrival = gen.ArrivalUniform
		c.DropFraction, c.TornFraction = 0.5, 0.5
	}},
	{"poisson-drops-storms", func(c *gen.Config) {
		c.Arrival = gen.ArrivalPoisson
		c.DropFraction, c.TornFraction = 0.4, 0.5
		c.StormFraction = 0.5
	}},
	{"bursty-storms", func(c *gen.Config) {
		c.Arrival = gen.ArrivalBursty
		c.StormFraction = 0.75
	}},
	{"poisson-crash", func(c *gen.Config) {
		c.Arrival = gen.ArrivalPoisson
		c.DropFraction, c.TornFraction = 0.3, 0.5
		c.Crashes = 1
	}},
}

// RunE14 sweeps a generated population of cfg.Rooms classrooms split
// into chaos-profiled waves, replays every wave through the full stack
// and audits each against the chaos invariants.
func RunE14(cfg E14Config) (*E14Result, error) {
	if cfg.Rooms <= 0 {
		cfg.Rooms = 1000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.RoomsPerWave <= 0 {
		cfg.RoomsPerWave = 50
	}
	s, err := sweep(sweepConfig{
		name: "E14", seed: cfg.Seed, rooms: cfg.Rooms,
		roomsPerWave: cfg.RoomsPerWave, parallel: cfg.Parallel,
	}, waveProfiles, runE14Wave)
	if err != nil {
		return nil, err
	}
	out := &E14Result{
		Config:          cfg,
		Waves:           len(s.waves),
		InvariantChecks: s.checks,
		WaveResults:     s.waves,
		Violations:      s.violations,
	}
	for _, w := range s.waves {
		out.Rooms += w.Rooms
		out.Students += w.Students
		out.Messages += w.Messages
		out.Supervised += w.Supervised
		out.Shed += w.Shed
		out.Faults.Drops += w.Faults.Drops
		out.Faults.TornDrops += w.Faults.TornDrops
		out.Faults.Storms += w.Faults.Storms
		out.Faults.Crashes += w.Faults.Crashes
		out.Faults.ReplayedRecords += w.Faults.ReplayedRecords
	}
	return out, nil
}

// runE14Wave generates, replays and audits one population.
func runE14Wave(idx int, profile string, g gen.Config) (E14Wave, error) {
	r, err := replayGenerated(g)
	if err != nil {
		return E14Wave{}, err
	}
	wave := E14Wave{
		Index:      idx,
		Seed:       g.Seed,
		Profile:    profile,
		Rooms:      r.plan.Rooms,
		Students:   r.plan.Students,
		Messages:   r.res.Sent,
		Supervised: r.res.Supervised,
		Shed:       r.res.Unsupervised,
		Faults: E14Faults{
			Drops:     r.plan.Drops,
			TornDrops: r.plan.TornDrops,
			Storms:    r.plan.Storms,
			Crashes:   r.plan.Crashes,
		},
		Checked:    r.rep.Checked,
		Violations: r.rep.Violations,
	}
	for _, rec := range r.res.Recoveries {
		wave.Faults.ReplayedRecords += rec.ReplayedRecords
	}
	return wave, nil
}
