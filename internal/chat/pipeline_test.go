package chat

import (
	"fmt"
	"sync"
	"testing"
	"time"
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
