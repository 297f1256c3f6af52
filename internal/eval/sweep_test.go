package eval

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"semagent/internal/simulate/gen"
)

// stubWave is a wave summary carrying only its audit.
type stubWave struct{ rep gen.Report }

func (w stubWave) report() gen.Report { return w.rep }

var stubProfiles = []waveProfile{{"a", func(*gen.Config) {}}, {"b", func(*gen.Config) {}}}

// TestSweepReportsLowestFailingWave: with waves 2 and 5 failing, the
// sweep names wave 2 at any parallelism. With all eight waves running
// at once, wave 2 waits until wave 5 has failed, so wave 5 fails first
// on the wall clock.
func TestSweepReportsLowestFailingWave(t *testing.T) {
	for _, parallel := range []int{1, 8} {
		fifthFailed := make(chan struct{})
		_, err := sweep(sweepConfig{name: "EX", seed: 1, rooms: 8, roomsPerWave: 1, parallel: parallel},
			stubProfiles, func(i int, _ string, _ gen.Config) (stubWave, error) {
				switch i {
				case 2:
					if parallel == 8 {
						<-fifthFailed
					}
					return stubWave{}, errors.New("boom")
				case 5:
					close(fifthFailed)
					return stubWave{}, errors.New("boom")
				}
				return stubWave{}, nil
			})
		if err == nil || !strings.HasPrefix(err.Error(), "EX wave 2: ") {
			t.Fatalf("parallel %d: err = %v, want wave 2", parallel, err)
		}
	}
}

// TestSweepFoldsAuditsInWaveOrder: the sweep splits the rooms, rotates
// the profiles, and folds every wave's audit into per-invariant counts
// and violations tagged with the wave's index and seed.
func TestSweepFoldsAuditsInWaveOrder(t *testing.T) {
	c := sweepConfig{name: "EX", seed: 9, rooms: 7, roomsPerWave: 2, parallel: 3, salt: 0xE17}
	s, err := sweep(c, stubProfiles, func(i int, profile string, g gen.Config) (stubWave, error) {
		if want := stubProfiles[i%2].name; profile != want {
			t.Errorf("wave %d profile %q, want %q", i, profile, want)
		}
		if want := 2 - i/3; g.Rooms != want {
			t.Errorf("wave %d has %d rooms, want %d", i, g.Rooms, want)
		}
		rep := gen.Report{Checked: []string{"fifo"}}
		if i%2 == 1 {
			rep.Violations = []gen.Violation{{Invariant: "z"}, {Invariant: "fifo"}}
		}
		return stubWave{rep}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.waves) != 4 || s.checks["fifo"] != 4 {
		t.Fatalf("%d waves, checks %v; want 4 waves each auditing fifo", len(s.waves), s.checks)
	}
	var got []string
	for _, v := range s.violations {
		if v.Seed != c.waveSeed(v.Wave) {
			t.Errorf("violation %+v carries seed %d, want %d", v, v.Seed, c.waveSeed(v.Wave))
		}
		got = append(got, fmt.Sprintf("%d:%s", v.Wave, v.Invariant))
	}
	if want := "1:fifo 1:z 3:fifo 3:z"; strings.Join(got, " ") != want {
		t.Fatalf("violations %v, want %s", got, want)
	}
}

// TestChaosSweepsReproducible: each chaos experiment yields a
// byte-identical JSON artifact whether its waves run one at a time or
// four at a time — the reproducing-seed contract the CI jobs print on
// failure.
func TestChaosSweepsReproducible(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(parallel int) (any, error)
	}{
		{"E14", func(parallel int) (any, error) {
			return RunE14(E14Config{Rooms: 8, Seed: 5, Parallel: parallel})
		}},
		{"E16", func(parallel int) (any, error) {
			cfg := e16TestConfig
			cfg.Parallel = parallel
			return RunE16(cfg)
		}},
		{"E17", func(parallel int) (any, error) {
			cfg := e17TestConfig
			cfg.Parallel = parallel
			return RunE17(cfg)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			artifact := func(parallel int) string {
				res, err := tc.run(parallel)
				if err != nil {
					t.Fatalf("parallel %d: %v", parallel, err)
				}
				b, err := json.Marshal(res)
				if err != nil {
					t.Fatalf("marshal: %v", err)
				}
				return string(b)
			}
			if serial, parallel := artifact(1), artifact(4); serial != parallel {
				t.Fatalf("sweep result depends on scheduling:\nserial:   %s\nparallel: %s", serial, parallel)
			}
		})
	}
}
