package chat

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"semagent/internal/metrics"
)

// TestAsyncPipelineOrdering sends a numbered stream through an async
// server and checks agent responses for one room arrive in message
// order — the guarantee the room-sharded pipeline restores over the old
// goroutine-per-message delivery — and that SupervisionStats reports
// the traffic.
func TestAsyncPipelineOrdering(t *testing.T) {
	const msgs = 40
	var mu sync.Mutex
	var order []string
	sup := SupervisorFunc(func(room, user, text string) []Response {
		mu.Lock()
		order = append(order, text)
		mu.Unlock()
		return []Response{{Agent: "Echo_Agent", Text: "re: " + text}}
	})

	// SendQueue must hold the whole burst (msgs chat echoes + msgs agent
	// responses) because the client sends all messages before reading;
	// it is sized here so the test does not lean on the default.
	s := NewServer(ServerOptions{
		Supervisor: sup, Async: true, Workers: 4, SuperviseQueue: 8,
		SendQueue: 4 * msgs,
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c, err := Dial(addr.String(), "room", "alice", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < msgs; i++ {
		if err := c.Say(fmt.Sprintf("msg-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Agent responses must come back in submission order.
	for i := 0; i < msgs; i++ {
		want := fmt.Sprintf("re: msg-%03d", i)
		got := waitFor(t, c, 5*time.Second, func(m Message) bool { return m.Type == TypeAgent })
		if got.Text != want {
			t.Fatalf("agent response %d = %q, want %q — per-room order broken", i, got.Text, want)
		}
	}
	mu.Lock()
	for i, text := range order {
		if want := fmt.Sprintf("msg-%03d", i); text != want {
			t.Fatalf("supervisor saw %q at position %d, want %q", text, i, want)
		}
	}
	mu.Unlock()

	st, ok := s.SupervisionStats()
	if !ok {
		t.Fatal("async server should expose pipeline stats")
	}
	if st.Submitted != msgs || st.Completed != msgs {
		t.Errorf("stats = %+v, want %d submitted and completed", st, msgs)
	}

	// Inline servers report no pipeline.
	inline := NewServer(ServerOptions{Supervisor: sup})
	if _, ok := inline.SupervisionStats(); ok {
		t.Error("inline server should not report pipeline stats")
	}
}

// TestAsyncFloodBackPressuresNotDrops pipelines a burst from one client
// into an async server whose single supervision shard holds one task,
// behind a supervisor wedged on its first message. The full shard must
// stall the client's reader (backpressure) rather than get the client
// dropped: once the supervisor is released every echo and every
// response arrives, each kind in send order, and no client is counted
// as dropped. Pipelined wire benchmarks (E15) rely on this.
func TestAsyncFloodBackPressuresNotDrops(t *testing.T) {
	const n = 20
	reg := metrics.NewRegistry()
	gate := make(chan struct{})
	var once sync.Once
	sup := SupervisorFunc(func(room, user, text string) []Response {
		once.Do(func() { <-gate })
		return []Response{
			{Agent: "Learning_Angel", Text: "verdict: " + text},
			{Agent: "Learning_Angel", Text: "hint: " + text, Private: true},
		}
	})
	s := NewServer(ServerOptions{
		Supervisor: sup, Async: true, Workers: 1, SuperviseQueue: 1,
		Metrics: reg,
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// LIFO: the gate must open before Close drains a wedged pipeline.
	defer s.Close()
	var closeGate sync.Once
	release := func() { closeGate.Do(func() { close(gate) }) }
	defer release()

	c, err := Dial(addr.String(), "room", "alice", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The reader keeps draining while the sender floods.
	type result struct {
		echoes, verdicts, hints []string
		err                     error
	}
	done := make(chan result, 1)
	go func() {
		var r result
		for len(r.echoes) < n || len(r.verdicts) < n || len(r.hints) < n {
			m, ok := <-c.Receive()
			if !ok {
				r.err = fmt.Errorf("connection closed after %d echoes, %d verdicts, %d hints (err: %v)",
					len(r.echoes), len(r.verdicts), len(r.hints), c.Err())
				break
			}
			switch {
			case m.Type == TypeChat && m.From == "alice":
				r.echoes = append(r.echoes, m.Text)
			case m.Type == TypeAgent && m.Private:
				r.hints = append(r.hints, strings.TrimPrefix(m.Text, "hint: "))
			case m.Type == TypeAgent:
				r.verdicts = append(r.verdicts, strings.TrimPrefix(m.Text, "verdict: "))
			}
		}
		done <- r
	}()
	sendErr := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := c.Say(fmt.Sprintf("msg-%02d", i)); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()

	// One task runs (wedged), one is queued: the next Submit must wait.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, _ := s.SupervisionStats()
		if st.Blocked >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no submit blocked on the full shard: stats %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	release()

	if err := <-sendErr; err != nil {
		t.Fatalf("say: %v", err)
	}
	var r result
	select {
	case r = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for the burst's echoes and responses")
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	for kind, got := range map[string][]string{"echo": r.echoes, "verdict": r.verdicts, "hint": r.hints} {
		for i, text := range got {
			if want := fmt.Sprintf("msg-%02d", i); text != want {
				t.Fatalf("%s %d is for %q, want %q: order broken", kind, i, text, want)
			}
		}
	}
	if dropped := reg.Counter("semagent_chat_dropped_clients_total", "").Value(); dropped != 0 {
		t.Fatalf("%d clients dropped; a full supervision shard must back-pressure, not drop", dropped)
	}
}
