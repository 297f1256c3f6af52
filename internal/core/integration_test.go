package core

import (
	"strings"
	"testing"
	"time"

	"semagent/internal/chat"
	"semagent/internal/journal"
	"semagent/internal/workload"
)

// openJournaled boots a supervisor over the journaled data directory
// dir, the way chatserver -data does: checkpoint load, WAL replay, then
// every new mutation journaled.
func openJournaled(t *testing.T, dir string) (*Supervisor, *journal.Manager) {
	t.Helper()
	stores, err := journal.LoadStores(dir)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	mgr, err := journal.Open(dir, stores, journal.Options{})
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	s, err := New(Config{
		Ontology: stores.Ontology,
		Corpus:   stores.Corpus,
		Profiles: stores.Profiles,
		FAQ:      stores.FAQ,
	})
	if err != nil {
		t.Fatalf("build supervisor: %v", err)
	}
	return s, mgr
}

// TestSessionPersistenceContinuity runs a supervised classroom session
// over a journaled data directory, restarts the supervisor from disk and
// checks that the accumulated knowledge (FAQ answers, corpus
// suggestions, learner profiles) carries over — the paper's
// always-online agents surviving a service restart. Session 1 ends in a
// crash, with no final checkpoint, so session 2 rebuilds from the
// replayed write-ahead log.
func TestSessionPersistenceContinuity(t *testing.T) {
	dir := t.TempDir()

	// ---- session 1 -------------------------------------------------
	s1, m1 := openJournaled(t, dir)
	gen := workload.NewGenerator(99, s1.Ontology())
	for _, msg := range gen.Session(2, 3, 120) {
		if _, err := s1.Process(msg.Room, msg.User, msg.Sample.Text); err != nil {
			t.Fatal(err)
		}
	}
	// Ask a question so the FAQ has a deterministic entry.
	if _, err := s1.Process("room-0", "alice", "What is a stack?"); err != nil {
		t.Fatal(err)
	}
	if s1.Corpus().Len() == 0 || s1.FAQ().Len() == 0 {
		t.Fatalf("session 1 accumulated nothing: corpus=%d faq=%d", s1.Corpus().Len(), s1.FAQ().Len())
	}
	if err := m1.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	m1.Abandon()

	// ---- session 2 (restart) ----------------------------------------
	s2, m2 := openJournaled(t, dir)
	defer m2.Close()
	if m2.Stats().Replay.Applied == 0 {
		t.Error("restart replayed no journal records")
	}
	if s2.Corpus().Len() != s1.Corpus().Len() {
		t.Errorf("corpus lost: %d -> %d", s1.Corpus().Len(), s2.Corpus().Len())
	}
	// The repeated question must now hit the FAQ from the prior session.
	a, err := s2.Process("room-0", "bob", "What is a stack?")
	if err != nil {
		t.Fatal(err)
	}
	if a.QAAnswer == nil || !a.QAAnswer.Answered {
		t.Fatal("question unanswered after restart")
	}
	if a.QAAnswer.Source != "faq" {
		t.Errorf("answer source = %s, want faq (carried over)", a.QAAnswer.Source)
	}
	// Profiles carried over: alice from session 1 must still exist.
	if _, ok := s2.Profiles().Get("alice"); !ok {
		t.Error("alice's profile lost across restart")
	}
}

// TestSupervisedChatRoomEndToEnd drives the full stack — TCP server,
// supervisor, commands — as one scenario.
func TestSupervisedChatRoomEndToEnd(t *testing.T) {
	sup := newSupervisor(t)
	server := chat.NewServer(chat.ServerOptions{Supervisor: sup.ChatSupervisor()})
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	alice, err := chat.Dial(addr.String(), "ds", "alice", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	bob, err := chat.Dial(addr.String(), "ds", "bob", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer bob.Close()

	expect := func(c *chat.Client, what string, pred func(chat.Message) bool) chat.Message {
		t.Helper()
		deadline := time.After(3 * time.Second)
		for {
			select {
			case m, ok := <-c.Receive():
				if !ok {
					t.Fatalf("connection closed waiting for %s", what)
				}
				if pred(m) {
					return m
				}
			case <-deadline:
				t.Fatalf("timeout waiting for %s", what)
			}
		}
	}

	// A question gets a public QA answer visible to both.
	if err := alice.Say("What is a queue?"); err != nil {
		t.Fatal(err)
	}
	expect(bob, "qa answer", func(m chat.Message) bool {
		return m.Type == chat.TypeAgent && m.Agent == AgentQA &&
			strings.Contains(m.Text, "First In, First Out")
	})

	// A grammar slip gets a private Learning_Angel response.
	if err := bob.Say("The stack have a push operation."); err != nil {
		t.Fatal(err)
	}
	expect(bob, "angel response", func(m chat.Message) bool {
		return m.Type == chat.TypeAgent && m.Agent == AgentAngel && m.Private
	})

	// /faq shows the accumulated entry, privately.
	if err := alice.Say("/faq"); err != nil {
		t.Fatal(err)
	}
	expect(alice, "faq command output", func(m chat.Message) bool {
		return m.Type == chat.TypeAgent && strings.Contains(m.Text, "queue")
	})

	// Supervision state reflects the dialogue.
	if sup.Analyzer().Total() < 2 {
		t.Errorf("analyzer total = %d", sup.Analyzer().Total())
	}
}
