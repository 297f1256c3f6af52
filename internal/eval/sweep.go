package eval

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"

	"semagent/internal/simulate"
	"semagent/internal/simulate/gen"
)

// waveProfile is one named fault mix, applied over a wave's base config.
type waveProfile struct {
	name string
	cfg  func(c *gen.Config)
}

// sweepConfig is the part of an experiment's config the sweep reads.
type sweepConfig struct {
	name         string // experiment name, prefixed to wave errors
	seed         int64
	rooms        int
	roomsPerWave int
	parallel     int
	nodes        int    // fabric width; 0 runs single-node waves
	salt         uint64 // mixed into every wave seed
}

// audited is a wave summary that carries its invariant audit.
type audited interface{ report() gen.Report }

func (w E14Wave) report() gen.Report { return gen.Report{Checked: w.Checked, Violations: w.Violations} }
func (w E16Wave) report() gen.Report { return gen.Report{Checked: w.Checked, Violations: w.Violations} }
func (w E17Wave) report() gen.Report { return gen.Report{Checked: w.Checked, Violations: w.Violations} }

// swept is a finished sweep: the waves in index order, the number of
// waves each invariant was audited in, and every violation ordered by
// wave then invariant.
type swept[W audited] struct {
	waves      []W
	checks     map[string]int
	violations []E14Violation
}

// splitmix64 is the wave-seed derivation: a well-mixed 64-bit permuted
// stream so neighbouring master seeds explore unrelated populations.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// waveSeed derives wave i's generator seed from the master seed.
func (c sweepConfig) waveSeed(i int) int64 {
	return int64(splitmix64(uint64(c.seed)+c.salt+uint64(i)*0x9E3779B97F4A7C15) &^ (1 << 63))
}

// sweep splits c.rooms into waves of at most c.roomsPerWave (at least
// one wave per profile, at most one per room), rotates the profiles
// over the wave index, and runs the waves c.parallel at a time. Each
// wave is deterministic in its seed and the results are kept in wave
// order, so the outcome does not depend on scheduling. When waves
// fail, the error names the lowest failing index.
func sweep[W audited](c sweepConfig, profiles []waveProfile, runWave func(i int, profile string, g gen.Config) (W, error)) (swept[W], error) {
	waves := (c.rooms + c.roomsPerWave - 1) / c.roomsPerWave
	if waves < len(profiles) {
		waves = len(profiles)
	}
	if waves > c.rooms {
		waves = c.rooms
	}
	parallel := c.parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > waves {
		parallel = waves
	}

	out := swept[W]{
		waves:      make([]W, waves),
		checks:     make(map[string]int),
		violations: []E14Violation{},
	}
	errs := make([]error, waves)
	var wg sync.WaitGroup
	sem := make(chan struct{}, parallel)
	base, rem := c.rooms/waves, c.rooms%waves
	for i := 0; i < waves; i++ {
		rooms := base
		if i < rem {
			rooms++
		}
		profile := profiles[i%len(profiles)]
		g := gen.Config{
			Seed:         c.waveSeed(i),
			Rooms:        rooms,
			ClusterNodes: c.nodes,
		}
		profile.cfg(&g)

		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			out.waves[i], errs[i] = runWave(i, profile.name, g)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return swept[W]{}, fmt.Errorf("%s wave %d: %w", c.name, i, err)
		}
	}

	for i, w := range out.waves {
		rep := w.report()
		for _, name := range rep.Checked {
			out.checks[name]++
		}
		for _, v := range rep.Violations {
			out.violations = append(out.violations, E14Violation{
				Wave: i, Seed: c.waveSeed(i), Invariant: v.Invariant, Detail: v.Detail,
			})
		}
	}
	sort.Slice(out.violations, func(i, j int) bool {
		a, b := out.violations[i], out.violations[j]
		if a.Wave != b.Wave {
			return a.Wave < b.Wave
		}
		return a.Invariant < b.Invariant
	})
	return out, nil
}

// replay runs one scenario on the virtual clock, in a scratch data
// directory when it journals or runs a fabric.
func replay(sc *simulate.Scenario) (*simulate.Result, error) {
	dir := ""
	if sc.Journal || sc.Cluster != nil {
		var err error
		dir, err = os.MkdirTemp("", "eval-replay-*")
		if err != nil {
			return nil, fmt.Errorf("data dir: %w", err)
		}
		defer os.RemoveAll(dir)
	}
	res, err := simulate.Run(sc, dir)
	if err != nil {
		return nil, fmt.Errorf("run %s: %w", sc.Name, err)
	}
	return res, nil
}

// generated is one generated population, replayed and audited.
type generated struct {
	plan gen.Plan
	res  *simulate.Result
	rep  gen.Report
}

// replayGenerated generates a population from g, replays it and audits
// the run against every applicable invariant.
func replayGenerated(g gen.Config) (generated, error) {
	sc, plan, err := gen.Generate(g)
	if err != nil {
		return generated{}, fmt.Errorf("generate: %w", err)
	}
	res, err := replay(sc)
	if err != nil {
		return generated{}, err
	}
	return generated{plan: plan, res: res, rep: gen.Check(sc, res)}, nil
}
