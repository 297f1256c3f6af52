package eval

import (
	"fmt"
	"time"

	"semagent/internal/core"
	"semagent/internal/linkgrammar"
	"semagent/internal/ontology"
	"semagent/internal/pipeline"
	"semagent/internal/workload"
)

// E9Config sizes experiment E9 (DESIGN.md §4): concurrent classrooms
// through the sharded supervision pipeline, cached vs uncached parses,
// against the single-threaded Process loop as baseline.
type E9Config struct {
	// Rooms is the number of concurrent classrooms (default 8).
	Rooms int
	// MessagesPerRoom is the dialogue length per room (default 64).
	MessagesPerRoom int
	// Workers sizes the pipeline pool (0 = GOMAXPROCS).
	Workers int
	// Seed drives the workload generator.
	Seed int64
}

// E9Arm is one measured configuration.
type E9Arm struct {
	Name       string
	Sharded    bool
	Cached     bool
	Messages   int
	Elapsed    time.Duration
	Throughput float64 // messages per second
	// Cache reports the parse-cache counters for the cached arms.
	Cache linkgrammar.CacheStats
	// Pipeline reports the pool counters for the sharded arms.
	Pipeline pipeline.Stats
}

// E9Result holds the four arms plus headline speedups over the serial
// uncached baseline.
type E9Result struct {
	Config E9Config
	Arms   []E9Arm
	// SpeedupSharded is sharded-uncached vs serial-uncached: pure
	// parallelism win.
	SpeedupSharded float64
	// SpeedupCached is sharded-cached vs serial-uncached: the deployed
	// configuration's total win.
	SpeedupCached float64
}

// E9Message is one chat line of the E9 workload.
type E9Message struct {
	Room, User, Text string
}

// RunE9 generates Rooms independent classroom dialogues, interleaves
// them round-robin (simulating concurrent arrival), and pushes the
// stream through four supervision configurations. Every arm gets a
// fresh Supervisor so stores and caches start cold.
func RunE9(cfg E9Config) (*E9Result, error) {
	if cfg.Rooms <= 0 {
		cfg.Rooms = 8
	}
	if cfg.MessagesPerRoom <= 0 {
		cfg.MessagesPerRoom = 64
	}

	msgs := E9Workload(cfg)
	res := &E9Result{Config: cfg}
	for _, arm := range []struct {
		name            string
		sharded, cached bool
	}{
		{"serial-uncached", false, false},
		{"serial-cached", false, true},
		{"sharded-uncached", true, false},
		{"sharded-cached", true, true},
	} {
		a, err := runE9Arm(arm.name, arm.sharded, arm.cached, cfg, msgs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", arm.name, err)
		}
		res.Arms = append(res.Arms, *a)
	}

	base := res.Arms[0].Throughput
	if base > 0 {
		res.SpeedupSharded = res.Arms[2].Throughput / base
		res.SpeedupCached = res.Arms[3].Throughput / base
	}
	return res, nil
}

// E9Workload builds the round-robin interleaved message stream: Rooms
// independent seeded dialogues, one message per room per turn (also
// consumed by BenchmarkE9ShardedSupervision, so benchmark and harness
// measure the same experiment). Zero config fields get RunE9 defaults.
func E9Workload(cfg E9Config) []E9Message {
	if cfg.Rooms <= 0 {
		cfg.Rooms = 8
	}
	if cfg.MessagesPerRoom <= 0 {
		cfg.MessagesPerRoom = 64
	}
	onto := ontology.BuildCourseOntology()
	perRoom := make([][]E9Message, cfg.Rooms)
	for r := range perRoom {
		gen := workload.NewGenerator(cfg.Seed+int64(r), onto)
		room := fmt.Sprintf("room-%d", r)
		for m, s := range gen.Generate(cfg.MessagesPerRoom, workload.DefaultMix()) {
			perRoom[r] = append(perRoom[r], E9Message{
				Room: room,
				User: fmt.Sprintf("user-%d-%d", r, m%4),
				Text: s.Text,
			})
		}
	}
	msgs := make([]E9Message, 0, cfg.Rooms*cfg.MessagesPerRoom)
	for m := 0; m < cfg.MessagesPerRoom; m++ {
		for r := 0; r < cfg.Rooms; r++ {
			msgs = append(msgs, perRoom[r][m])
		}
	}
	return msgs
}

func runE9Arm(name string, sharded, cached bool, cfg E9Config, msgs []E9Message) (*E9Arm, error) {
	popts := linkgrammar.Options{CacheSize: -1}
	if cached {
		popts.CacheSize = 0 // core default: DefaultParseCacheSize
	}
	sup, err := core.New(core.Config{ParserOptions: popts})
	if err != nil {
		return nil, err
	}

	arm := &E9Arm{Name: name, Sharded: sharded, Cached: cached, Messages: len(msgs)}
	start := time.Now()
	if sharded {
		pipe := pipeline.New(pipeline.Config{Workers: cfg.Workers})
		errCh := make(chan error, 1)
		for _, m := range msgs {
			m := m
			if err := pipe.Submit(m.Room, func() {
				if _, perr := sup.Process(m.Room, m.User, m.Text); perr != nil {
					select {
					case errCh <- perr:
					default:
					}
				}
			}); err != nil {
				pipe.Close()
				return nil, err
			}
		}
		pipe.Close()
		select {
		case perr := <-errCh:
			return nil, perr
		default:
		}
		arm.Pipeline = pipe.Stats()
	} else {
		for _, m := range msgs {
			if _, err := sup.Process(m.Room, m.User, m.Text); err != nil {
				return nil, err
			}
		}
	}
	arm.Elapsed = time.Since(start)
	if arm.Elapsed > 0 {
		arm.Throughput = float64(arm.Messages) / arm.Elapsed.Seconds()
	}
	arm.Cache = sup.Parser().CacheStats()
	return arm, nil
}
