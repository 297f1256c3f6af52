package chat

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// startServer launches a server on a loopback port and returns its
// address; cleanup closes it.
func startServer(t *testing.T, opts ServerOptions) string {
	t.Helper()
	s := NewServer(opts)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return addr.String()
}

// collect drains messages of the wanted types until predicate or timeout.
func waitFor(t *testing.T, c *Client, timeout time.Duration, pred func(Message) bool) Message {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case m, ok := <-c.Receive():
			if !ok {
				t.Fatalf("connection closed while waiting (err: %v)", c.Err())
			}
			if pred(m) {
				return m
			}
		case <-deadline:
			t.Fatal("timed out waiting for message")
		}
	}
}

func TestJoinBroadcastAndLeave(t *testing.T) {
	addr := startServer(t, ServerOptions{})

	alice, err := Dial(addr, "ds-course", "alice", time.Second)
	if err != nil {
		t.Fatalf("alice dial: %v", err)
	}
	defer alice.Close()

	bob, err := Dial(addr, "ds-course", "bob", time.Second)
	if err != nil {
		t.Fatalf("bob dial: %v", err)
	}
	defer bob.Close()

	// Alice sees bob join.
	waitFor(t, alice, time.Second, func(m Message) bool {
		return m.Type == TypeSystem && strings.Contains(m.Text, "bob joined")
	})

	if err := alice.Say("Hello class!"); err != nil {
		t.Fatalf("say: %v", err)
	}
	got := waitFor(t, bob, time.Second, func(m Message) bool { return m.Type == TypeChat })
	if got.From != "alice" || got.Text != "Hello class!" {
		t.Errorf("bob received %+v", got)
	}
	// The speaker receives their own broadcast too.
	waitFor(t, alice, time.Second, func(m Message) bool {
		return m.Type == TypeChat && m.From == "alice"
	})
}

func TestDuplicateNameRejected(t *testing.T) {
	addr := startServer(t, ServerOptions{})
	a, err := Dial(addr, "room", "alice", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := Dial(addr, "room", "alice", time.Second); err == nil {
		t.Fatal("duplicate name should be rejected")
	}
}

func TestRoomsAreIsolated(t *testing.T) {
	addr := startServer(t, ServerOptions{})
	a, err := Dial(addr, "room-a", "alice", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(addr, "room-b", "bob", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.Say("only room a sees this"); err != nil {
		t.Fatal(err)
	}
	// Alice gets her own echo; bob must not see it.
	waitFor(t, a, time.Second, func(m Message) bool { return m.Type == TypeChat })
	select {
	case m := <-b.Receive():
		if m.Type == TypeChat {
			t.Errorf("cross-room leak: %+v", m)
		}
	case <-time.After(150 * time.Millisecond):
	}
}

func TestSupervisorResponsesPublicAndPrivate(t *testing.T) {
	sup := SupervisorFunc(func(room, user, text string) []Response {
		if strings.Contains(text, "wrong") {
			return []Response{{Agent: "Learning_Angel", Text: "please check grammar", Private: true}}
		}
		if strings.HasSuffix(text, "?") {
			return []Response{{Agent: "QA_System", Text: "the answer"}}
		}
		return nil
	})
	addr := startServer(t, ServerOptions{Supervisor: sup})

	alice, err := Dial(addr, "room", "alice", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	bob, err := Dial(addr, "room", "bob", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer bob.Close()
	waitFor(t, alice, time.Second, func(m Message) bool {
		return m.Type == TypeSystem && strings.Contains(m.Text, "bob joined")
	})

	// Private agent response reaches only the speaker.
	if err := alice.Say("this are wrong"); err != nil {
		t.Fatal(err)
	}
	got := waitFor(t, alice, time.Second, func(m Message) bool { return m.Type == TypeAgent })
	if !got.Private || got.Agent != "Learning_Angel" {
		t.Errorf("agent msg = %+v", got)
	}
	select {
	case m := <-bob.Receive():
		if m.Type == TypeAgent {
			t.Errorf("private agent response leaked to bob: %+v", m)
		}
	case <-time.After(150 * time.Millisecond):
	}

	// Public QA answer reaches everyone.
	if err := bob.Say("what is a stack?"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, alice, time.Second, func(m Message) bool {
		return m.Type == TypeAgent && m.Agent == "QA_System"
	})
}

func TestAsyncSupervisionDelivers(t *testing.T) {
	sup := SupervisorFunc(func(room, user, text string) []Response {
		return []Response{{Agent: "QA_System", Text: "async answer"}}
	})
	addr := startServer(t, ServerOptions{Supervisor: sup, Async: true})
	c, err := Dial(addr, "room", "alice", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Say("anything"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, c, time.Second, func(m Message) bool {
		return m.Type == TypeAgent && m.Text == "async answer"
	})
}

func TestManyClientsBroadcast(t *testing.T) {
	addr := startServer(t, ServerOptions{})
	const n = 8
	clients := make([]*Client, n)
	for i := range clients {
		c, err := Dial(addr, "big-room", fmt.Sprintf("user%d", i), time.Second)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		defer c.Close()
		clients[i] = c
	}
	if err := clients[0].Say("hello everyone"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			waitFor(t, c, 2*time.Second, func(m Message) bool { return m.Type == TypeChat })
		}(clients[i])
	}
	wg.Wait()
}

func TestServerMembersAndRooms(t *testing.T) {
	addr := startServer(t, ServerOptions{})
	_ = addr
	s := NewServer(ServerOptions{})
	a2, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(a2.String(), "lecture", "alice", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rooms := s.RoomNames()
	if len(rooms) != 1 || rooms[0] != "lecture" {
		t.Errorf("rooms = %v", rooms)
	}
	members := s.Members("lecture")
	if len(members) != 1 || members[0] != "alice" {
		t.Errorf("members = %v", members)
	}
	if got := s.Members("nope"); got != nil {
		t.Errorf("missing room members = %v", got)
	}
}

func TestProtocolErrorOnBadJoin(t *testing.T) {
	addr := startServer(t, ServerOptions{})
	// Raw dial without join: the first message must be rejected.
	c, err := Dial(addr, "", "", time.Second)
	if err == nil {
		c.Close()
		t.Fatal("join without room/name should fail")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	var buf strings.Builder
	_ = buf
	// Use an in-memory pipe.
	type rw struct {
		r *strings.Reader
		w *strings.Builder
	}
	w := &strings.Builder{}
	cw := NewCodec(struct {
		*strings.Reader
		*strings.Builder
	}{strings.NewReader(""), w})
	msg := Message{Type: TypeChat, Room: "r", From: "alice", Text: "hi", Private: true}
	if err := cw.Write(msg); err != nil {
		t.Fatal(err)
	}
	cr := NewCodec(struct {
		*strings.Reader
		*strings.Builder
	}{strings.NewReader(w.String()), &strings.Builder{}})
	got, err := cr.Read()
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != TypeChat || got.From != "alice" || got.Text != "hi" || !got.Private {
		t.Errorf("round trip = %+v", got)
	}
}

// TestConcurrentJoinsAnnouncedOnce joins a room's members all at once
// (the shape of a failover's relinks) and checks that, of every pair,
// exactly one member was told of the other's join — the later joiner's
// notice reaches the earlier one, never both ways.
func TestConcurrentJoinsAnnouncedOnce(t *testing.T) {
	addr := startServer(t, ServerOptions{})
	const rooms, members = 20, 16
	for r := 0; r < rooms; r++ {
		room := fmt.Sprintf("room-%d", r)
		clients := make([]*Client, members)
		var wg sync.WaitGroup
		errs := make(chan error, members)
		for i := range clients {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c, err := Dial(addr, room, fmt.Sprintf("u%d", i), 2*time.Second)
				if err != nil {
					errs <- err
					return
				}
				clients[i] = c
			}(i)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("dial: %v", err)
		}
		// Every join notice is queued before the marker's broadcast, so
		// reading up to the marker sees all of them.
		if err := clients[0].Say("marker"); err != nil {
			t.Fatal(err)
		}
		saw := make(map[[2]int]bool)
		for i, c := range clients {
			waitFor(t, c, 2*time.Second, func(m Message) bool {
				var j int
				if m.Type == TypeSystem {
					if _, err := fmt.Sscanf(m.Text, "u%d joined the room", &j); err == nil && j != i {
						saw[[2]int{i, j}] = true
					}
				}
				return m.Type == TypeChat && m.Text == "marker"
			})
		}
		for i := 0; i < members; i++ {
			for j := i + 1; j < members; j++ {
				if saw[[2]int{i, j}] == saw[[2]int{j, i}] {
					t.Errorf("%s: u%d and u%d: notice seen i->j %v, j->i %v; want exactly one",
						room, i, j, saw[[2]int{i, j}], saw[[2]int{j, i}])
				}
			}
		}
		for _, c := range clients {
			c.Close()
		}
	}
}
