package eval

import (
	"bytes"
	"encoding/json"
	"fmt"

	"semagent/internal/simulate/gen"
)

// E17Config parameterizes the adversarial failover experiment: a
// deterministic all-classes drill (asymmetric ship partitions, staged
// promotion crashes, lagged standbys and clock-skewed lease races in
// ONE population, run twice and required byte-identical) plus a
// generated chaos sweep rotating a profile per fault class, audited
// against the four adversarial invariants.
type E17Config struct {
	// Seed drives the drill population and derives every sweep wave's
	// seed.
	Seed int64 `json:"seed"`
	// Rooms is the chaos-sweep population (default 24).
	Rooms int `json:"rooms"`
	// RoomsPerWave bounds one fabric's room count (default 6; the wave
	// count is floored at 4 so every adversarial profile appears).
	RoomsPerWave int `json:"rooms_per_wave"`
	// Nodes is the fabric width (default 3).
	Nodes int `json:"nodes"`

	// Parallel bounds concurrently running sweep waves (default
	// GOMAXPROCS). Excluded from the artifact: parallelism cannot
	// change the results, only the wall clock.
	Parallel int `json:"-"`
}

// E17Faults aggregates the adversarial fault injections and their
// observed outcomes.
type E17Faults struct {
	ShipCuts    int `json:"ship_cuts"`
	ShipHeals   int `json:"ship_heals"`
	PromoCrash  int `json:"promotion_crashes"`
	LaggedKills int `json:"lagged_kills"`
	SkewRaces   int `json:"skew_races"`
	NodeKills   int `json:"node_kills"`
	Partitions  int `json:"partitions"`
	// Observed outcomes.
	Seizures        int `json:"seizures"`
	Refusals        int `json:"refusals"`
	LossyPromotions int `json:"lossy_promotions"`
	Resumes         int `json:"promotion_resumes"`
}

// E17Wave reports one generated adversarial population.
type E17Wave struct {
	Index      int             `json:"index"`
	Seed       int64           `json:"seed"`
	Profile    string          `json:"profile"`
	Rooms      int             `json:"rooms"`
	Students   int             `json:"students"`
	Messages   int             `json:"messages"`
	Supervised int             `json:"supervised"`
	Failovers  int             `json:"failovers"`
	Races      int             `json:"races"`
	Faults     E17Faults       `json:"faults"`
	Checked    []string        `json:"checked"`
	Violations []gen.Violation `json:"violations,omitempty"`
}

// E17Drill is the all-classes determinism drill: the same adversarial
// population replayed twice must produce byte-identical JSON
// aggregates.
type E17Drill struct {
	Seed       int64           `json:"seed"`
	Messages   int             `json:"messages"`
	Supervised int             `json:"supervised"`
	Failovers  int             `json:"failovers"`
	Races      int             `json:"races"`
	Faults     E17Faults       `json:"faults"`
	Checked    []string        `json:"checked"`
	Violations []gen.Violation `json:"violations,omitempty"`
	// Identical reports whether the replay's marshaled aggregates
	// matched run one byte for byte.
	Identical bool `json:"identical"`
}

// E17Result is the machine-readable outcome (evalharness -exp E17
// -json; the cluster CI job's artifact).
type E17Result struct {
	Config E17Config `json:"config"`

	Drill E17Drill `json:"drill"`

	// Sweep.
	Waves           int            `json:"waves"`
	Rooms           int            `json:"rooms"`
	Students        int            `json:"students"`
	Messages        int            `json:"messages"`
	Supervised      int            `json:"supervised"`
	Failovers       int            `json:"failovers"`
	Races           int            `json:"races"`
	Faults          E17Faults      `json:"faults"`
	InvariantChecks map[string]int `json:"invariant_checks"`
	WaveResults     []E17Wave      `json:"wave_results"`
	Violations      []E14Violation `json:"violations"`
}

// Failed returns an error when the drill broke determinism, any
// invariant was violated, or a fault class scheduled nothing.
func (r *E17Result) Failed() error {
	repro := fmt.Sprintf("reproduce with: evalharness -exp E17 -json -seed %d -rooms %d", r.Config.Seed, r.Config.Rooms)
	if !r.Drill.Identical {
		return fmt.Errorf("E17: two runs of the all-classes drill (seed %d) were not byte-identical — %s", r.Drill.Seed, repro)
	}
	if len(r.Drill.Violations) > 0 {
		v := r.Drill.Violations[0]
		return fmt.Errorf("E17: drill violated %s: %s — %s", v.Invariant, v.Detail, repro)
	}
	if len(r.Violations) > 0 {
		v := r.Violations[0]
		return fmt.Errorf("E17: %d invariant violation(s); first: wave %d (seed %d) violated %s: %s — %s",
			len(r.Violations), v.Wave, v.Seed, v.Invariant, v.Detail, repro)
	}
	f := r.Faults
	if f.ShipCuts == 0 || f.PromoCrash == 0 || f.LaggedKills == 0 || f.SkewRaces == 0 {
		return fmt.Errorf("E17: a fault class scheduled nothing (%+v) — the sweep is not adversarial — %s", f, repro)
	}
	return nil
}

// e17Profiles rotate over the wave index so every sweep of >= 4 waves
// exercises each adversarial class, one per wave, against a realistic
// population.
var e17Profiles = []waveProfile{
	{"asym-partition", func(c *gen.Config) {
		c.Arrival = gen.ArrivalPoisson
		c.DropFraction = 0.3
		c.ShipCuts, c.NodeKills = 2, 1
	}},
	{"promo-crash", func(c *gen.Config) {
		c.Arrival = gen.ArrivalUniform
		c.DropFraction = 0.3
		c.NodeKills, c.PromotionCrashes = 2, 2
	}},
	{"lagged-kill", func(c *gen.Config) {
		c.Arrival = gen.ArrivalBursty
		c.DropFraction, c.TornFraction = 0.3, 0.5
		c.NodeKills, c.LaggedKills = 2, 1
	}},
	{"skew-race", func(c *gen.Config) {
		c.Arrival = gen.ArrivalPoisson
		c.StormFraction = 0.4
		c.SkewRaces, c.NodeKills = 2, 1
	}},
}

// RunE17 runs the all-classes determinism drill and the adversarial
// chaos sweep.
func RunE17(cfg E17Config) (*E17Result, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Rooms <= 0 {
		cfg.Rooms = 24
	}
	if cfg.RoomsPerWave <= 0 {
		cfg.RoomsPerWave = 6
	}
	if cfg.Nodes <= 0 {
		cfg.Nodes = 3
	}
	out := &E17Result{Config: cfg}
	if err := runE17Drill(cfg, out); err != nil {
		return nil, err
	}
	s, err := sweep(sweepConfig{
		name: "E17", seed: cfg.Seed, rooms: cfg.Rooms,
		roomsPerWave: cfg.RoomsPerWave, parallel: cfg.Parallel, nodes: cfg.Nodes,
		salt: 0xE17,
	}, e17Profiles, runE17Wave)
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
		out.Races += w.Races
		out.Faults.ShipCuts += w.Faults.ShipCuts
		out.Faults.ShipHeals += w.Faults.ShipHeals
		out.Faults.PromoCrash += w.Faults.PromoCrash
		out.Faults.LaggedKills += w.Faults.LaggedKills
		out.Faults.SkewRaces += w.Faults.SkewRaces
		out.Faults.NodeKills += w.Faults.NodeKills
		out.Faults.Partitions += w.Faults.Partitions
		out.Faults.Seizures += w.Faults.Seizures
		out.Faults.Refusals += w.Faults.Refusals
		out.Faults.LossyPromotions += w.Faults.LossyPromotions
		out.Faults.Resumes += w.Faults.Resumes
	}
	return out, nil
}

// runE17Wave generates, replays and audits one adversarial population.
func runE17Wave(idx int, profile string, g gen.Config) (E17Wave, error) {
	r, err := replayGenerated(g)
	if err != nil {
		return E17Wave{}, err
	}
	wave := E17Wave{
		Index:      idx,
		Seed:       g.Seed,
		Profile:    profile,
		Rooms:      r.plan.Rooms,
		Students:   r.plan.Students,
		Messages:   r.res.Sent,
		Supervised: r.res.Supervised,
		Failovers:  len(r.res.Failovers),
		Races:      len(r.res.LeaseRaces),
		Faults: E17Faults{
			ShipCuts:    r.plan.ShipCuts,
			ShipHeals:   r.plan.ShipHeals,
			PromoCrash:  r.plan.PromotionCrashes,
			LaggedKills: r.plan.LaggedKills,
			SkewRaces:   r.plan.SkewRaces,
			NodeKills:   r.plan.NodeKills,
			Partitions:  r.plan.Partitions,
		},
		Checked:    r.rep.Checked,
		Violations: r.rep.Violations,
	}
	for _, fo := range r.res.Failovers {
		if fo.Lossy {
			wave.Faults.LossyPromotions++
		}
		wave.Faults.Resumes += fo.Resumes
	}
	for _, lr := range r.res.LeaseRaces {
		if lr.Seized {
			wave.Faults.Seizures++
		} else {
			wave.Faults.Refusals++
		}
	}
	return wave, nil
}

// runE17Drill runs ONE population carrying all four adversarial
// classes, twice, and requires the replay's JSON aggregates (every
// count, watermark, race outcome and invariant verdict) byte-identical.
// Chaos this nasty must not cost determinism — that is the whole point
// of the virtual-clock fabric. Raw transcript bytes are NOT compared:
// reconnect-window join-notice interleaving is scheduling-dependent
// (same reason E16 scores the window by count, never by content).
func runE17Drill(cfg E17Config, out *E17Result) error {
	gcfg := gen.Config{
		Seed:         cfg.Seed,
		Rooms:        4,
		Arrival:      gen.ArrivalBursty,
		DropFraction: 0.4,
		ClusterNodes: cfg.Nodes,
		NodeKills:    2, PromotionCrashes: 1, LaggedKills: 1,
		ShipCuts: 1, SkewRaces: 2,
	}
	one, err := runE17Wave(0, "all-classes", gcfg)
	if err != nil {
		return fmt.Errorf("E17 drill: %w", err)
	}
	two, err := runE17Wave(0, "all-classes", gcfg)
	if err != nil {
		return fmt.Errorf("E17 drill replay: %w", err)
	}
	j1, err := json.Marshal(one)
	if err != nil {
		return err
	}
	j2, err := json.Marshal(two)
	if err != nil {
		return err
	}
	out.Drill = E17Drill{
		Seed:       gcfg.Seed,
		Messages:   one.Messages,
		Supervised: one.Supervised,
		Failovers:  one.Failovers,
		Races:      one.Races,
		Faults:     one.Faults,
		Checked:    one.Checked,
		Violations: one.Violations,
		Identical:  bytes.Equal(j1, j2),
	}
	return nil
}
