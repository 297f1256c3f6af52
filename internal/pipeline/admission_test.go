package pipeline

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"semagent/internal/clock"
	"semagent/internal/metrics"
)

// twoRoomsOnDistinctShards probes room names until two land on
// different shards of p.
func twoRoomsOnDistinctShards(p *Pipeline) (string, string) {
	first := "room-0"
	sh := p.shardFor(first)
	for i := 1; i < 1000; i++ {
		name := fmt.Sprintf("room-%d", i)
		if p.shardFor(name) != sh {
			return first, name
		}
	}
	panic("no second shard found")
}

// TestRoomWatermarkSheds holds the worker and checks a room over its
// in-flight cap has new tasks shed with ErrShed while the counters and
// the OnShed callback agree.
func TestRoomWatermarkSheds(t *testing.T) {
	var shedRooms []string
	var mu sync.Mutex
	p := New(Config{
		Workers: 1, QueueSize: 8,
		Policy: ShedRejectNew, RoomHighWater: 2,
		OnShed: func(room string) { mu.Lock(); shedRooms = append(shedRooms, room); mu.Unlock() },
	})
	defer p.Close()

	gate := make(chan struct{})
	started := make(chan struct{})
	if err := p.Submit("room", func() { close(started); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-started // depth 1: running
	if err := p.Submit("room", func() {}); err != nil {
		t.Fatal(err) // depth 2: queued
	}
	for i := 0; i < 3; i++ {
		if err := p.Submit("room", func() {}); err != ErrShed {
			t.Fatalf("submit %d over watermark err = %v, want ErrShed", i, err)
		}
	}
	// A different room on the same shard is not affected by the cap.
	if err := p.Submit("other", func() {}); err != nil {
		t.Fatalf("sibling room submit: %v", err)
	}

	close(gate)
	p.Drain()
	st := p.Stats()
	if st.ShedNew != 3 || st.Shed != 3 || st.ShedOldest != 0 {
		t.Errorf("stats = %+v, want 3 shed-new", st)
	}
	if st.Completed != 3 {
		t.Errorf("completed = %d, want 3", st.Completed)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(shedRooms) != 3 || shedRooms[0] != "room" {
		t.Errorf("OnShed calls = %v, want 3x room", shedRooms)
	}
}

// TestGlobalWatermarkRejectNew checks the global in-flight cap under
// the reject-new policy.
func TestGlobalWatermarkRejectNew(t *testing.T) {
	p := New(Config{
		Workers: 1, QueueSize: 8,
		Policy: ShedRejectNew, GlobalHighWater: 3,
	})
	defer p.Close()

	gate := make(chan struct{})
	started := make(chan struct{})
	if err := p.Submit("a", func() { close(started); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-started
	for _, room := range []string{"b", "c"} {
		if err := p.Submit(room, func() {}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Submit("d", func() {}); err != ErrShed {
		t.Fatalf("submit at global cap err = %v, want ErrShed", err)
	}
	close(gate)
	p.Drain()
	if st := p.Stats(); st.ShedNew != 1 || st.Completed != 3 {
		t.Errorf("stats = %+v, want 1 shed-new and 3 completed", st)
	}
}

// TestOldestDropEvicts fills a shard queue under the oldest-drop policy
// and checks the oldest queued task is evicted (never run), the newest
// admitted, and the counters balance exactly.
func TestOldestDropEvicts(t *testing.T) {
	var shed atomic.Int64
	p := New(Config{
		Workers: 1, QueueSize: 2,
		Policy: ShedOldest,
		OnShed: func(string) { shed.Add(1) },
	})
	defer p.Close()

	gate := make(chan struct{})
	started := make(chan struct{})
	if err := p.Submit("room", func() { close(started); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-started

	var ran [4]atomic.Bool
	for i := 1; i <= 2; i++ { // fills the queue
		i := i
		if err := p.Submit("room", func() { ran[i].Store(true) }); err != nil {
			t.Fatal(err)
		}
	}
	// Queue full: this must evict task 1 (the oldest queued) and admit
	// task 3.
	if err := p.Submit("room", func() { ran[3].Store(true) }); err != nil {
		t.Fatalf("submit with oldest-drop err = %v, want nil", err)
	}

	close(gate)
	p.Drain()
	if ran[1].Load() {
		t.Error("evicted task 1 ran")
	}
	if !ran[2].Load() || !ran[3].Load() {
		t.Error("surviving tasks did not run")
	}
	st := p.Stats()
	if st.ShedOldest != 1 || st.Shed != 1 {
		t.Errorf("stats = %+v, want 1 shed-oldest", st)
	}
	if st.Submitted != 4 || st.Completed != 3 {
		t.Errorf("stats = %+v, want 4 submitted and 3 completed", st)
	}
	if got := shed.Load(); got != 1 {
		t.Errorf("OnShed calls = %d, want 1", got)
	}
	if st.Pending() != 0 {
		t.Errorf("pending = %d, want 0", st.Pending())
	}
}

// TestGlobalWatermarkOldestDrop checks that at the global cap the
// oldest-drop policy trades the oldest queued task for the new one
// instead of refusing it.
func TestGlobalWatermarkOldestDrop(t *testing.T) {
	p := New(Config{
		Workers: 1, QueueSize: 8,
		Policy: ShedOldest, GlobalHighWater: 2,
	})
	defer p.Close()

	gate := make(chan struct{})
	started := make(chan struct{})
	if err := p.Submit("room", func() { close(started); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-started
	var second, third atomic.Bool
	if err := p.Submit("room", func() { second.Store(true) }); err != nil {
		t.Fatal(err)
	}
	// In-flight is at the cap (1 running + 1 queued): the oldest queued
	// task is evicted to admit this one.
	if err := p.Submit("room", func() { third.Store(true) }); err != nil {
		t.Fatalf("submit at cap err = %v, want nil under oldest-drop", err)
	}
	close(gate)
	p.Drain()
	if second.Load() {
		t.Error("evicted task ran")
	}
	if !third.Load() {
		t.Error("admitted task did not run")
	}
	if st := p.Stats(); st.ShedOldest != 1 || st.Completed != 2 {
		t.Errorf("stats = %+v, want 1 shed-oldest and 2 completed", st)
	}
}

// TestShedCountsExact floods a held pool from many goroutines and
// checks — under -race — that the shed counters match the dropped
// submissions exactly: every Submit either completed, was counted shed,
// or was evicted, with nothing lost or double-counted.
func TestShedCountsExact(t *testing.T) {
	var onShed atomic.Int64
	p := New(Config{
		Workers: 2, QueueSize: 4,
		Policy: ShedRejectNew, RoomHighWater: 3, GlobalHighWater: 6,
		OnShed: func(string) { onShed.Add(1) },
	})
	defer p.Close()

	const goroutines, perG = 8, 200
	var submitErrs atomic.Int64 // ErrShed observed by submitters
	var accepted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			room := fmt.Sprintf("room-%d", g%4)
			for i := 0; i < perG; i++ {
				// Tasks yield a few times so submitters genuinely race
				// the workers (no wall-clock sleep needed).
				task := func() {
					for y := 0; y < 8; y++ {
						runtime.Gosched()
					}
				}
				switch err := p.Submit(room, task); err {
				case nil:
					accepted.Add(1)
				case ErrShed:
					submitErrs.Add(1)
				default:
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	p.Drain()
	st := p.Stats()
	if st.ShedNew != submitErrs.Load() {
		t.Errorf("ShedNew = %d, ErrShed seen by submitters = %d", st.ShedNew, submitErrs.Load())
	}
	if st.Shed != onShed.Load() {
		t.Errorf("Shed = %d, OnShed calls = %d", st.Shed, onShed.Load())
	}
	if st.Submitted != accepted.Load() {
		t.Errorf("Submitted = %d, accepted = %d", st.Submitted, accepted.Load())
	}
	if st.Completed+st.ShedOldest != st.Submitted {
		t.Errorf("completed %d + evicted %d != submitted %d", st.Completed, st.ShedOldest, st.Submitted)
	}
	if total := st.Submitted + st.ShedNew; total != goroutines*perG {
		t.Errorf("accepted+shed = %d, want %d submissions accounted for", total, goroutines*perG)
	}
}

// TestSlowRoomDoesNotStallSiblings pins one room's worker on a gate and
// checks a sibling room on another shard completes its whole workload
// while the slow room sheds — the failure-injection scenario of the D10
// admission-control design.
func TestSlowRoomDoesNotStallSiblings(t *testing.T) {
	p := New(Config{
		Workers: 2, QueueSize: 16,
		Policy: ShedRejectNew, RoomHighWater: 4,
	})
	defer p.Close()
	slowRoom, fastRoom := twoRoomsOnDistinctShards(p)

	gate := make(chan struct{})
	defer close(gate)
	started := make(chan struct{})
	if err := p.Submit(slowRoom, func() { close(started); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-started

	// Flood the slow room: everything over the watermark sheds, nothing
	// blocks.
	slowSheds := 0
	for i := 0; i < 50; i++ {
		if err := p.Submit(slowRoom, func() {}); err == ErrShed {
			slowSheds++
		}
	}
	if slowSheds == 0 {
		t.Fatal("flooded slow room never shed")
	}

	// The sibling's full workload completes while the slow room's
	// worker is still gated. The fast room may transiently shed when
	// its submitter outruns its own worker — that is the policy working
	// — but it must always make progress: a retry gets through as soon
	// as its worker drains.
	const fastTasks = 100
	var fastDone atomic.Int64
	for i := 0; i < fastTasks; i++ {
		var submitErr error
		ok := clock.Until(5*time.Second, func() bool {
			submitErr = p.Submit(fastRoom, func() { fastDone.Add(1) })
			return submitErr != ErrShed
		})
		if !ok {
			t.Fatalf("fast room starved: submit %d kept shedding", i)
		}
		if submitErr != nil {
			t.Fatalf("fast room submit %d: %v", i, submitErr)
		}
	}
	if !clock.Until(5*time.Second, func() bool { return fastDone.Load() >= fastTasks }) {
		t.Fatalf("sibling stalled: %d/%d done while slow room gated", fastDone.Load(), fastTasks)
	}
}

// TestSubmitBlockedDuringCloseReturns is the regression test for the
// blocked-send-with-no-drainer deadlock: a Submit blocked on a full
// queue must be released promptly when Close is called, even though the
// queue's worker is wedged and nothing will ever drain the queue.
func TestSubmitBlockedDuringCloseReturns(t *testing.T) {
	p := New(Config{Workers: 1, QueueSize: 1})

	gate := make(chan struct{})
	started := make(chan struct{})
	if err := p.Submit("room", func() { close(started); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := p.Submit("room", func() {}); err != nil { // fills the queue
		t.Fatal(err)
	}

	blocked := make(chan error, 1)
	go func() { blocked <- p.Submit("room", func() {}) }()
	// The submitter has committed to blocking once the counter ticks.
	if !clock.Until(5*time.Second, func() bool { return p.Stats().Blocked == 1 }) {
		t.Fatal("submitter never reached the blocking path")
	}

	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()

	// The blocked submitter must resolve without the worker making any
	// progress — the gate is still shut.
	select {
	case err := <-blocked:
		if err != ErrClosed && err != nil {
			t.Fatalf("blocked submit err = %v, want ErrClosed or nil", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Submit deadlocked: blocked send never released by Close")
	}

	close(gate) // let Close finish draining
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not finish after the worker was released")
	}
}

// TestPipelineMetrics wires a registry and checks the exported counters
// agree with Stats and the exposition is valid Prometheus text.
func TestPipelineMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	p := New(Config{
		Workers: 2, QueueSize: 4,
		Policy: ShedRejectNew, RoomHighWater: 2,
		Metrics: reg,
	})
	defer p.Close()

	gate := make(chan struct{})
	started := make(chan struct{})
	if err := p.Submit("room", func() { close(started); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := p.Submit("room", func() {}); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit("room", func() {}); err != ErrShed {
		t.Fatalf("err = %v, want ErrShed", err)
	}
	close(gate)
	p.Drain()

	st := p.Stats()
	if got := reg.Counter("semagent_pipeline_submitted_total", "").Value(); got != st.Submitted {
		t.Errorf("metric submitted = %d, stats %d", got, st.Submitted)
	}
	if got := reg.Counter("semagent_pipeline_completed_total", "").Value(); got != st.Completed {
		t.Errorf("metric completed = %d, stats %d", got, st.Completed)
	}
	if got := reg.Counter("semagent_pipeline_shed_total", "", metrics.L("kind", "reject-new")).Value(); got != st.ShedNew {
		t.Errorf("metric shed = %d, stats %d", got, st.ShedNew)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if err := metrics.ValidateExposition(strings.NewReader(b.String())); err != nil {
		t.Fatalf("pipeline exposition invalid: %v\n%s", err, b.String())
	}
}

// TestRoomDepthNeverLeaks hammers one room with instantly-completing
// tasks and checks the per-room in-flight ledger returns to zero: the
// regression is a worker finishing a task before the submitter's
// increment lands, whose decrement the zero-clamp would discard,
// leaking depth until the watermark sheds an idle room forever.
func TestRoomDepthNeverLeaks(t *testing.T) {
	p := New(Config{
		Workers: 1, QueueSize: 4096, // bigger than the workload: the queue never fills
		Policy: ShedRejectNew, RoomHighWater: 1 << 20, // never trips
	})
	defer p.Close()
	for i := 0; i < 2000; i++ {
		if err := p.Submit("room", func() {}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	p.Drain()
	if d := p.RoomDepth("room"); d != 0 {
		t.Fatalf("room depth = %d after drain, want 0 — ledger leaked", d)
	}
	if got := p.inflightTasks.Load(); got != 0 {
		t.Fatalf("inflight = %d after drain, want 0", got)
	}
}

// TestParseShedPolicy covers the flag mapping.
func TestParseShedPolicy(t *testing.T) {
	for in, want := range map[string]ShedPolicy{
		"": ShedNone, "none": ShedNone, "block": ShedNone,
		"reject-new": ShedRejectNew, "reject": ShedRejectNew,
		"oldest-drop": ShedOldest, "oldest": ShedOldest,
	} {
		got, err := ParseShedPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseShedPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseShedPolicy("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
}
