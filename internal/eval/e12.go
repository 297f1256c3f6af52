package eval

import (
	"fmt"
	"time"

	"semagent/internal/chat"
	"semagent/internal/core"
	"semagent/internal/linkgrammar"
	"semagent/internal/loadgen"
	"semagent/internal/pipeline"
)

// e12Supervisor builds the experiment's supervisor: parse cache off,
// because the generator's limited sentence variety would otherwise make
// supervision all cache hits — real classroom text at MOOC scale is
// diverse, and a cache-miss parse is the representative unit of work
// the admission controller must protect.
func e12Supervisor() (*core.Supervisor, error) {
	return core.New(core.Config{ParserOptions: linkgrammar.Options{CacheSize: -1}})
}

// e12Process runs one message through the real pipeline plus the
// configured stage cost. The sleep models the analysis weight of a
// production deployment (bigger ontologies, longer utterances, per-user
// model updates) without burning CPU: it pins supervision capacity well
// below the TCP layer's ceiling, so the experiment measures the
// admission controller at its watermarks rather than the loopback
// socket stack — and it makes capacity deterministic enough that
// "offer 5× capacity" means the same thing on a laptop and in CI.
func e12Process(sup *core.Supervisor, stageCost time.Duration, room, user, text string) {
	_, _ = sup.Process(room, user, text)
	if stageCost > 0 {
		time.Sleep(stageCost)
	}
}

// E12Config sizes experiment E12 (DESIGN.md D10): overload behaviour of
// the supervised chat server under open-loop offered load at multiples
// of its measured supervision capacity, with and without admission
// control.
type E12Config struct {
	// Rooms / ClientsPerRoom shape the load population (defaults 4, 2).
	Rooms          int `json:"rooms"`
	ClientsPerRoom int `json:"clients_per_room"`
	// Duration is each arm's offered-load window (default 1200ms).
	Duration time.Duration `json:"duration"`
	// Seed drives the workload generator.
	Seed int64 `json:"seed"`
	// Multipliers are the offered-load multiples of measured capacity
	// (default 1×, 2×, 5×), each run with shedding on.
	Multipliers []float64
	// RoomHighWater / GlobalHighWater are the admission watermarks of
	// the shedding arms (defaults 16 and 256).
	RoomHighWater   int `json:"room_high_water"`
	GlobalHighWater int `json:"global_high_water"`
	// Workers sizes the supervision pool (0 = GOMAXPROCS).
	Workers int `json:"workers"`
	// SkipBlocking drops the blocking contrast arm (the highest
	// multiplier with admission control off), which is slow by design.
	SkipBlocking bool `json:"skip_blocking,omitempty"`
	// CalibrationMessages sizes the in-process capacity measurement
	// (default 256).
	CalibrationMessages int `json:"calibration_messages"`
	// StageCost is added to every supervised message (calibration and
	// server arms alike) as a sleep — the modeled analysis weight of a
	// production deployment (see e12Process). Default 1.5ms; negative
	// disables it.
	StageCost time.Duration `json:"stage_cost"`
}

func (c *E12Config) fill() {
	if c.Rooms <= 0 {
		c.Rooms = 4
	}
	if c.ClientsPerRoom <= 0 {
		c.ClientsPerRoom = 2
	}
	if c.Duration <= 0 {
		c.Duration = 1200 * time.Millisecond
	}
	if len(c.Multipliers) == 0 {
		c.Multipliers = []float64{1, 2, 5}
	}
	if c.RoomHighWater <= 0 {
		c.RoomHighWater = 16
	}
	if c.GlobalHighWater <= 0 {
		c.GlobalHighWater = 256
	}
	if c.CalibrationMessages <= 0 {
		c.CalibrationMessages = 256
	}
	switch {
	case c.StageCost == 0:
		c.StageCost = 1500 * time.Microsecond
	case c.StageCost < 0:
		c.StageCost = 0
	}
}

// E12Arm is one offered-load level's measurements.
type E12Arm struct {
	Name       string
	Multiplier float64
	Shedding   bool
	// OfferedRate is the open-loop target; SentRate what the generator
	// actually wrote (they diverge only when the server back-pressures
	// the sockets — the blocking arm's signature).
	OfferedRate, SentRate float64
	// EchoGoodput is broadcast deliveries confirmed per second;
	// SupervisedRate is supervision completions per second (the
	// "goodput" of the agent itself).
	EchoGoodput, SupervisedRate float64
	// ShedCount / ShedFraction quantify admission-control drops against
	// everything offered to the pipeline.
	ShedCount    int64
	ShedFraction float64
	Timeouts     int
	// End-to-end say-to-own-broadcast latency.
	P50, P95, P99, Mean time.Duration
	Pipeline            pipeline.Stats
}

// E12Result aggregates the experiment.
type E12Result struct {
	Config E12Config
	// CapacityMsgsPerSec is the in-process supervision throughput the
	// multipliers are anchored to: sharded pipeline, cache-miss parses
	// plus the configured StageCost per message (e12Supervisor /
	// e12Process), measured without chat overhead.
	CapacityMsgsPerSec float64
	Arms               []E12Arm
	// Headline numbers: p99 end-to-end latency at the highest
	// multiplier with shedding on vs the blocking contrast arm, the
	// supervised goodput at that load as a fraction of capacity, and
	// whether the shed arm's p99 stayed under BoundedP99Limit.
	P99AtMaxShed      time.Duration
	P99AtMaxBlocking  time.Duration
	GoodputVsCapacity float64
	BoundedP99        bool
}

// BoundedP99Limit is the "bounded tail" bar for the shedding arm: with
// admission control on, the echo path never waits for supervision, so
// p99 at 5× capacity must stay within interactive range rather than
// growing with the backlog.
const BoundedP99Limit = 250 * time.Millisecond

// RunE12 measures supervision capacity in-process, then drives the TCP
// chat server at Multipliers× that capacity with admission control on
// (oldest-drop), plus one blocking contrast arm at the highest
// multiplier. The paper's agent must answer "what happens at 5× load":
// with shedding, excess supervision is dropped deterministically and
// chat latency stays flat; without it, backpressure stalls the rooms
// and tail latency grows with the queue.
func RunE12(cfg E12Config) (*E12Result, error) {
	cfg.fill()
	res := &E12Result{Config: cfg}

	capacity, err := e12Capacity(cfg)
	if err != nil {
		return nil, fmt.Errorf("capacity calibration: %w", err)
	}
	res.CapacityMsgsPerSec = capacity

	maxMult := cfg.Multipliers[0]
	for _, m := range cfg.Multipliers {
		if m > maxMult {
			maxMult = m
		}
	}
	for _, m := range cfg.Multipliers {
		arm, err := runE12Arm(cfg, fmt.Sprintf("shed-%gx", m), m, capacity, true)
		if err != nil {
			return nil, fmt.Errorf("arm %gx shed: %w", m, err)
		}
		res.Arms = append(res.Arms, *arm)
		if m == maxMult {
			res.P99AtMaxShed = arm.P99
			if capacity > 0 {
				res.GoodputVsCapacity = arm.SupervisedRate / capacity
			}
		}
	}
	if !cfg.SkipBlocking {
		arm, err := runE12Arm(cfg, fmt.Sprintf("block-%gx", maxMult), maxMult, capacity, false)
		if err != nil {
			return nil, fmt.Errorf("arm %gx blocking: %w", maxMult, err)
		}
		res.Arms = append(res.Arms, *arm)
		res.P99AtMaxBlocking = arm.P99
	}
	res.BoundedP99 = res.P99AtMaxShed > 0 && res.P99AtMaxShed < BoundedP99Limit
	return res, nil
}

// e12Capacity measures the supervision pipeline's in-process throughput
// on cache-miss parses — the denominator every offered-load multiplier
// is anchored to.
func e12Capacity(cfg E12Config) (float64, error) {
	sup, err := e12Supervisor()
	if err != nil {
		return 0, err
	}
	msgs := E9Workload(E9Config{
		Rooms:           cfg.Rooms,
		MessagesPerRoom: cfg.CalibrationMessages / cfg.Rooms,
		Seed:            cfg.Seed,
	})
	// Warm pass: vocabulary teaching and allocator steady state,
	// excluded from timing.
	for _, m := range msgs {
		if _, err := sup.Process(m.Room, m.User, m.Text); err != nil {
			return 0, err
		}
	}
	pipe := pipeline.New(pipeline.Config{Workers: cfg.Workers})
	start := time.Now()
	for _, m := range msgs {
		m := m
		if err := pipe.Submit(m.Room, func() { e12Process(sup, cfg.StageCost, m.Room, m.User, m.Text) }); err != nil {
			pipe.Close()
			return 0, err
		}
	}
	pipe.Close()
	elapsed := time.Since(start)
	if elapsed <= 0 {
		return 0, fmt.Errorf("zero elapsed")
	}
	return float64(len(msgs)) / elapsed.Seconds(), nil
}

func runE12Arm(cfg E12Config, name string, mult, capacity float64, shedding bool) (*E12Arm, error) {
	sup, err := e12Supervisor()
	if err != nil {
		return nil, err
	}
	base := sup.ChatSupervisor()
	opts := chat.ServerOptions{
		Supervisor: chat.SupervisorFunc(func(room, user, text string) []chat.Response {
			resp := base.Process(room, user, text)
			if cfg.StageCost > 0 {
				time.Sleep(cfg.StageCost)
			}
			return resp
		}),
		Async:   true,
		Workers: cfg.Workers,
	}
	if shedding {
		opts.ShedPolicy = pipeline.ShedOldest
		opts.RoomHighWater = cfg.RoomHighWater
		opts.GlobalHighWater = cfg.GlobalHighWater
	}
	server := chat.NewServer(opts)
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer server.Close()

	rate := mult * capacity
	if rate <= 0 {
		return nil, fmt.Errorf("offered rate %v", rate)
	}
	armStart := time.Now()
	lg, err := loadgen.Run(loadgen.Config{
		Addr:  addr.String(),
		Rooms: cfg.Rooms, ClientsPerRoom: cfg.ClientsPerRoom,
		Rate:        rate,
		Duration:    cfg.Duration,
		Seed:        cfg.Seed + 100,
		EchoTimeout: 3 * time.Second,
	})
	if err != nil {
		return nil, err
	}

	st, _ := server.SupervisionStats()
	arm := &E12Arm{
		Name:        name,
		Multiplier:  mult,
		Shedding:    shedding,
		OfferedRate: rate,
		SentRate:    lg.SendRate,
		EchoGoodput: lg.Goodput,
		ShedCount:   st.Shed,
		Timeouts:    lg.Timeouts,
		P50:         lg.P50, P95: lg.P95, P99: lg.P99, Mean: lg.Mean,
		Pipeline: st,
	}
	// Rate over the whole arm (offered window + straggler grace), not
	// just the window: the blocking arm keeps completing its backlog
	// long after the generator stopped, and crediting that drain to the
	// shorter window would report goodput above capacity.
	if armElapsed := time.Since(armStart); armElapsed > 0 {
		arm.SupervisedRate = float64(st.Completed) / armElapsed.Seconds()
	}
	if offeredToPipe := st.Submitted + st.ShedNew; offeredToPipe > 0 {
		arm.ShedFraction = float64(st.Shed) / float64(offeredToPipe)
	}
	return arm, nil
}
