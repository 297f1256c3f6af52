package journal

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"semagent/internal/clock"
	"semagent/internal/corpus"
	"semagent/internal/ontology"
)

// noAutoOpts disables every background trigger so tests control flush
// and checkpoint timing explicitly.
var noAutoOpts = Options{
	GroupWindow:        time.Hour,
	CheckpointBytes:    -1,
	CheckpointInterval: -1,
}

// openFresh opens a journal over freshly loaded stores.
func openFresh(t *testing.T, dir string, opts Options) (Stores, *Manager) {
	t.Helper()
	stores, err := LoadStores(dir)
	if err != nil {
		t.Fatalf("LoadStores: %v", err)
	}
	mgr, err := Open(dir, stores, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return stores, mgr
}

// mutate drives one representative mutation into each of the four
// stores and returns the number of journal records it should produce.
func mutate(t *testing.T, s Stores, suffix string) int {
	t.Helper()
	s.Corpus.Add(corpus.Record{
		Text: "the stack has push " + suffix, Tokens: []string{"the", "stack", "has", "push", suffix},
		Verdict: corpus.VerdictCorrect, User: "alice", Room: "r1",
	})
	s.Profiles.RecordMessage("alice", []string{"stack"})
	s.FAQ.Record("What is a stack "+suffix+"?", "A stack is a LIFO structure ("+suffix+").", 0)
	if _, err := s.Ontology.AddItem("custom item "+suffix, ontology.KindConcept); err != nil {
		t.Fatalf("AddItem: %v", err)
	}
	return 4
}

func TestRecoverAfterCrash(t *testing.T) {
	dir := t.TempDir()
	s1, m1 := openFresh(t, dir, noAutoOpts)
	want := mutate(t, s1, "one")
	want += mutate(t, s1, "two")
	if err := m1.Sync(); err != nil {
		t.Fatal(err)
	}
	// Simulated SIGKILL: no Close, no checkpoint — memory is gone, only
	// the fsync'd journal survives (Abandon also drops the directory
	// lock, as a real process death would).
	m1.Abandon()

	s2, m2 := openFresh(t, dir, noAutoOpts)
	defer m2.Close()
	rs := m2.Stats().Replay
	if rs.Applied != want {
		t.Fatalf("replay applied %d records, want %d", rs.Applied, want)
	}
	if got := s2.Corpus.Len(); got != 2 {
		t.Errorf("corpus.Len = %d, want 2", got)
	}
	p, ok := s2.Profiles.Get("alice")
	if !ok || p.Messages != 2 {
		t.Errorf("profile alice = %+v, ok=%v; want 2 messages", p, ok)
	}
	if e, ok := s2.FAQ.Lookup("What is a stack one?"); !ok || !strings.Contains(e.Answer, "one") {
		t.Errorf("faq lookup = %+v, ok=%v", e, ok)
	}
	if _, ok := s2.Ontology.Lookup("custom item two"); !ok {
		t.Error("ontology item 'custom item two' not recovered")
	}
	// Recording times must survive the replay (event-carried, not
	// re-clocked).
	if p.FirstSeen.IsZero() || p.FirstSeen.After(time.Now()) {
		t.Errorf("profile FirstSeen not preserved: %v", p.FirstSeen)
	}
}

func TestTornTailRecoversToLastCompleteRecord(t *testing.T) {
	dir := t.TempDir()
	s1, m1 := openFresh(t, dir, noAutoOpts)
	want := mutate(t, s1, "one")
	if err := m1.Sync(); err != nil {
		t.Fatal(err)
	}
	m1.Abandon()

	// A crash mid-append leaves a torn record at the tail.
	seg := filepath.Join(dir, segmentName(1))
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"lsn":999,"type":"corpus.add","crc":12,"data":{"id`); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	s2, m2 := openFresh(t, dir, noAutoOpts)
	rs := m2.Stats().Replay
	if rs.Applied != want {
		t.Fatalf("replay applied %d, want %d", rs.Applied, want)
	}
	if rs.TornTail == 0 {
		t.Error("torn tail not detected")
	}
	if got := s2.Corpus.Len(); got != 1 {
		t.Errorf("corpus.Len = %d, want 1", got)
	}

	// The tail was truncated: appending must resume cleanly.
	mutate(t, s2, "after")
	if err := m2.Sync(); err != nil {
		t.Fatal(err)
	}
	m2.Abandon()

	s3, m3 := openFresh(t, dir, noAutoOpts)
	defer m3.Close()
	if got := s3.Corpus.Len(); got != 2 {
		t.Errorf("corpus.Len after second recovery = %d, want 2", got)
	}
	if m3.Stats().Replay.TornTail != 0 {
		t.Error("second recovery still sees a torn tail")
	}
}

func TestCorruptRecordStopsReplayAtPrefix(t *testing.T) {
	dir := t.TempDir()
	s1, m1 := openFresh(t, dir, noAutoOpts)
	mutate(t, s1, "one")
	mutate(t, s1, "two")
	if err := m1.Sync(); err != nil {
		t.Fatal(err)
	}
	m1.Abandon()

	// Flip a byte in the middle of the segment: everything from the
	// corrupt record on is untrusted.
	seg := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	mid := len(data) / 2
	data[mid] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, m2 := openFresh(t, dir, noAutoOpts)
	defer m2.Close()
	rs := m2.Stats().Replay
	if rs.Applied >= 8 {
		t.Errorf("replay applied %d records through a corrupt byte", rs.Applied)
	}
	if got := s2.Corpus.Len(); got > 2 {
		t.Errorf("corpus.Len = %d after corruption, want <= 2", got)
	}
}

func TestCheckpointTruncatesJournal(t *testing.T) {
	dir := t.TempDir()
	s1, m1 := openFresh(t, dir, noAutoOpts)
	mutate(t, s1, "one")
	if err := m1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	m1.Abandon()
	seqs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 1 || seqs[0] != 2 {
		t.Fatalf("segments after checkpoint = %v, want [2]", seqs)
	}

	// Recovery loads the checkpoint; nothing left to replay.
	s2, m2 := openFresh(t, dir, noAutoOpts)
	defer m2.Close()
	rs := m2.Stats().Replay
	if rs.Applied != 0 {
		t.Errorf("replay applied %d records after checkpoint, want 0", rs.Applied)
	}
	if got := s2.Corpus.Len(); got != 1 {
		t.Errorf("corpus.Len = %d, want 1", got)
	}
	if got := s2.FAQ.Len(); got != 1 {
		t.Errorf("faq.Len = %d, want 1", got)
	}
}

func TestKillBetweenCheckpointAndTruncateNeverDoubleApplies(t *testing.T) {
	dir := t.TempDir()
	s1, m1 := openFresh(t, dir, noAutoOpts)
	mutate(t, s1, "one")
	if err := m1.Sync(); err != nil {
		t.Fatal(err)
	}
	m1.Abandon()
	// Simulate a checkpoint whose segment deletion never happened (the
	// process died in between): the snapshot files land on disk with
	// their embedded LSNs, the journal still holds every record.
	if err := saveCheckpoint(dir, s1); err != nil {
		t.Fatal(err)
	}

	s2, m2 := openFresh(t, dir, noAutoOpts)
	defer m2.Close()
	rs := m2.Stats().Replay
	if rs.Applied != 0 {
		t.Errorf("replay applied %d checkpointed records, want 0 (all skipped)", rs.Applied)
	}
	if rs.Skipped != 4 {
		t.Errorf("replay skipped %d records, want 4", rs.Skipped)
	}
	// No double-apply: counters are exactly one mutation's worth.
	if got := s2.Corpus.Len(); got != 1 {
		t.Errorf("corpus.Len = %d, want 1", got)
	}
	if p, _ := s2.Profiles.Get("alice"); p.Messages != 1 {
		t.Errorf("alice.Messages = %d, want 1 (double-applied?)", p.Messages)
	}
	if e, _ := s2.FAQ.Lookup("What is a stack one?"); e.Count != 1 {
		t.Errorf("faq count = %d, want 1 (double-applied?)", e.Count)
	}
}

func TestMutationsAfterCheckpointReplayOverSnapshot(t *testing.T) {
	dir := t.TempDir()
	s1, m1 := openFresh(t, dir, noAutoOpts)
	mutate(t, s1, "one")
	if err := m1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mutate(t, s1, "two")
	// Re-answer an already-checkpointed FAQ question: the replayed
	// correction must overwrite the checkpointed answer, not duplicate
	// the entry.
	s1.FAQ.Record("What is a stack one?", "A corrected answer.", 0)
	if err := m1.Sync(); err != nil {
		t.Fatal(err)
	}
	m1.Abandon()

	s2, m2 := openFresh(t, dir, noAutoOpts)
	defer m2.Close()
	rs := m2.Stats().Replay
	if rs.Applied != 5 {
		t.Errorf("replay applied %d, want 5 (post-checkpoint only)", rs.Applied)
	}
	if got := s2.Corpus.Len(); got != 2 {
		t.Errorf("corpus.Len = %d, want 2", got)
	}
	if p, _ := s2.Profiles.Get("alice"); p.Messages != 2 {
		t.Errorf("alice.Messages = %d, want 2", p.Messages)
	}
	e, ok := s2.FAQ.Lookup("What is a stack one?")
	if !ok || e.Answer != "A corrected answer." {
		t.Errorf("faq answer = %q, want the replayed correction", e.Answer)
	}
	if e.Count != 2 {
		t.Errorf("faq count = %d, want 2", e.Count)
	}
}

func TestGroupCommitFlushesInBackground(t *testing.T) {
	dir := t.TempDir()
	vc := clock.NewVirtual(time.Date(2026, 3, 2, 9, 0, 0, 0, time.UTC))
	opts := noAutoOpts
	opts.GroupWindow = 20 * time.Millisecond
	opts.Clock = vc
	s1, m1 := openFresh(t, dir, opts)
	mutate(t, s1, "one")
	// Nothing may hit the disk before the group window elapses — and on
	// the virtual clock it only elapses when we say so.
	if got := m1.Stats().Fsyncs; got != 0 {
		t.Fatalf("fsyncs = %d before the group window", got)
	}
	vc.Advance(opts.GroupWindow)
	// The tick is delivered synchronously, but the flusher goroutine
	// consumes it asynchronously: poll the condition, not the clock.
	if !clock.Until(2*time.Second, func() bool { return m1.Stats().Fsyncs > 0 }) {
		t.Fatal("group commit never fsynced after the window elapsed")
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSyncEveryRecordFsyncsInline(t *testing.T) {
	dir := t.TempDir()
	opts := noAutoOpts
	opts.SyncEveryRecord = true
	s1, m1 := openFresh(t, dir, opts)
	defer m1.Close()
	n := mutate(t, s1, "one")
	if got := m1.Stats().Fsyncs; got < uint64(n) {
		t.Errorf("fsyncs = %d, want >= %d (one per record)", got, n)
	}
}

func TestCloseSealsWithCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s1, m1 := openFresh(t, dir, noAutoOpts)
	mutate(t, s1, "one")
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	// Mutations after Close are not journaled (hooks detached).
	s1.Corpus.Add(corpus.Record{Text: "unjournaled", Tokens: []string{"unjournaled"}})

	s2, m2 := openFresh(t, dir, noAutoOpts)
	defer m2.Close()
	if m2.Stats().Replay.Applied != 0 {
		t.Error("Close did not checkpoint (journal not empty)")
	}
	if got := s2.Corpus.Len(); got != 1 {
		t.Errorf("corpus.Len = %d, want 1", got)
	}
}

func TestOntologyAuthoringSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	s1, m1 := openFresh(t, dir, noAutoOpts)
	if _, err := s1.Ontology.AddItem("red-black tree", ontology.KindConcept); err != nil {
		t.Fatal(err)
	}
	if err := s1.Ontology.AddAlias("red-black tree", "rb tree"); err != nil {
		t.Fatal(err)
	}
	if err := s1.Ontology.SetDescription("red-black tree", "a self-balancing binary search tree"); err != nil {
		t.Fatal(err)
	}
	if err := s1.Ontology.Relate("red-black tree", "tree", ontology.RelIsA); err != nil {
		t.Fatal(err)
	}
	if err := m1.Sync(); err != nil {
		t.Fatal(err)
	}
	m1.Abandon()

	s2, m2 := openFresh(t, dir, noAutoOpts)
	defer m2.Close()
	it, ok := s2.Ontology.Lookup("rb tree")
	if !ok {
		t.Fatal("taught alias 'rb tree' not recovered")
	}
	if it.Definition.Description == "" {
		t.Error("description not recovered")
	}
	if !s2.Ontology.IsA("red-black tree", "tree") {
		t.Error("is-a relation not recovered")
	}
}

func TestSingleWriterLock(t *testing.T) {
	dir := t.TempDir()
	_, m1 := openFresh(t, dir, noAutoOpts)
	// A second journal over the same directory must be refused: two
	// appenders would interleave LSNs and checkpoint over each other.
	stores, err := LoadStores(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, stores, noAutoOpts); err == nil {
		t.Fatal("second Open on a journaled directory succeeded")
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	// Released on close: a new writer may take over.
	_, m2 := openFresh(t, dir, noAutoOpts)
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
}
