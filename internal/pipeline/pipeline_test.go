package pipeline

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"semagent/internal/clock"
)

// closeCommitted polls until Close has marked the pipeline closed (new
// submits would see ErrClosed) — the condition the old fixed sleeps
// guessed at.
func closeCommitted(t *testing.T, p *Pipeline) {
	t.Helper()
	ok := clock.Until(5*time.Second, func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.closed
	})
	if !ok {
		t.Fatal("Close never committed")
	}
}

// TestPerRoomOrdering submits numbered tasks for many rooms from one
// goroutine per room and checks every room observed its tasks in
// submission order while the pool ran them concurrently.
func TestPerRoomOrdering(t *testing.T) {
	const (
		rooms = 16
		tasks = 200
	)
	p := New(Config{Workers: 4, QueueSize: 8})
	defer p.Close()

	var mu sync.Mutex
	seen := make(map[string][]int, rooms)

	var wg sync.WaitGroup
	for r := 0; r < rooms; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			room := fmt.Sprintf("room-%d", r)
			for i := 0; i < tasks; i++ {
				i := i
				if err := p.Submit(room, func() {
					mu.Lock()
					seen[room] = append(seen[room], i)
					mu.Unlock()
				}); err != nil {
					t.Errorf("%s submit %d: %v", room, i, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	p.Drain()

	mu.Lock()
	defer mu.Unlock()
	for room, order := range seen {
		if len(order) != tasks {
			t.Errorf("%s: got %d tasks, want %d", room, len(order), tasks)
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("%s: task %d ran at position %d — per-room order broken", room, v, i)
			}
		}
	}
	if len(seen) != rooms {
		t.Errorf("got %d rooms, want %d", len(seen), rooms)
	}

	st := p.Stats()
	if st.Submitted != rooms*tasks || st.Completed != rooms*tasks {
		t.Errorf("stats = %+v, want %d submitted and completed", st, rooms*tasks)
	}
}

// TestBlockingBackpressure holds a worker, fills the queue, then checks
// a blocking Submit waits until space frees instead of failing.
func TestBlockingBackpressure(t *testing.T) {
	p := New(Config{Workers: 1, QueueSize: 1})
	defer p.Close()

	gate := make(chan struct{})
	started := make(chan struct{})
	if err := p.Submit("room", func() { close(started); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := p.Submit("room", func() {}); err != nil { // fills the queue
		t.Fatal(err)
	}

	unblocked := make(chan error, 1)
	go func() { unblocked <- p.Submit("room", func() {}) }()
	select {
	case err := <-unblocked:
		t.Fatalf("submit returned %v before space freed", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if err := <-unblocked; err != nil {
		t.Fatalf("blocked submit: %v", err)
	}
	p.Drain()
	if st := p.Stats(); st.Blocked != 1 || st.Completed != 3 {
		t.Errorf("stats = %+v, want 1 blocked and 3 completed", st)
	}
}

// TestCloseDrainsAndRejects checks Close runs queued tasks, releases
// blocked submitters with ErrClosed, and later submits fail.
func TestCloseDrainsAndRejects(t *testing.T) {
	p := New(Config{Workers: 1, QueueSize: 1})

	gate := make(chan struct{})
	started := make(chan struct{})
	ran := make(chan struct{}, 8)
	if err := p.Submit("room", func() { close(started); <-gate; ran <- struct{}{} }); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := p.Submit("room", func() { ran <- struct{}{} }); err != nil {
		t.Fatal(err)
	}

	// A blocked submitter racing Close either gets through or is
	// released with ErrClosed — both are legal; it must not hang.
	blockedErr := make(chan error, 1)
	go func() { blockedErr <- p.Submit("room", func() { ran <- struct{}{} }) }()

	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()
	closeCommitted(t, p) // Close must commit before the gate opens
	close(gate)
	<-closed

	err := <-blockedErr
	want := 2
	if err == nil {
		want = 3
	} else if err != ErrClosed {
		t.Fatalf("blocked submit err = %v, want nil or ErrClosed", err)
	}
	for i := 0; i < want; i++ {
		select {
		case <-ran:
		case <-time.After(time.Second):
			t.Fatalf("only %d of %d queued tasks ran after Close", i, want)
		}
	}

	if err := p.Submit("room", func() {}); err != ErrClosed {
		t.Fatalf("submit after close err = %v, want ErrClosed", err)
	}
	p.Close() // idempotent
}

// TestShardSpread checks distinct rooms actually spread across shards.
func TestShardSpread(t *testing.T) {
	p := New(Config{Workers: 8, QueueSize: 4})
	defer p.Close()
	used := make(map[int]bool)
	for r := 0; r < 64; r++ {
		jobs := p.shardFor(fmt.Sprintf("room-%d", r))
		for i, sh := range p.shards {
			if sh == jobs {
				used[i] = true
			}
		}
	}
	if len(used) < 4 {
		t.Errorf("64 rooms hit only %d of 8 shards — bad spread", len(used))
	}
}

// TestDefaults checks the zero config is usable.
func TestDefaults(t *testing.T) {
	p := New(Config{})
	defer p.Close()
	done := make(chan struct{})
	if err := p.Submit("room", func() { close(done) }); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("task did not run")
	}
	if st := p.Stats(); st.Workers <= 0 {
		t.Errorf("workers = %d, want > 0", st.Workers)
	}
	if err := p.Submit("room", nil); err == nil {
		t.Error("nil task accepted")
	}
}
