package journal

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"semagent/internal/corpus"
	"semagent/internal/linkgrammar"
	"semagent/internal/ontology"
	"semagent/internal/profile"
	"semagent/internal/qa"
)

// buildStores returns four unjournaled stores holding one record each.
func buildStores() Stores {
	onto := ontology.BuildCourseOntology()
	store := corpus.NewStore()
	store.Add(corpus.Record{
		Text:    "The stack has a push operation.",
		Tokens:  linkgrammar.Tokenize("The stack has a push operation."),
		Verdict: corpus.VerdictCorrect,
		Topics:  []string{"stack", "push"},
	})
	profiles := profile.NewStore()
	profiles.RecordMessage("alice", []string{"stack"})
	profiles.RecordSyntaxError("alice", "agreement")
	faq := qa.NewFAQ()
	faq.Record("What is a stack?", "A stack is a LIFO structure.", qa.TemplateDefinition)
	return Stores{Ontology: onto, Corpus: store, Profiles: profiles, FAQ: faq}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := buildStores()
	if err := saveCheckpoint(dir, s); err != nil {
		t.Fatalf("save: %v", err)
	}
	for _, f := range []string{ontologyFile, corpusFile, profilesFile, faqFile} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing %s: %v", f, err)
		}
	}
	back, err := LoadStores(dir)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if back.Ontology.Len() != s.Ontology.Len() {
		t.Errorf("ontology len = %d, want %d", back.Ontology.Len(), s.Ontology.Len())
	}
	if d := back.Ontology.Distance("stack", "pop"); d != 1 {
		t.Errorf("distance(stack,pop) = %d after reload", d)
	}
	if back.Corpus.Len() != 1 {
		t.Errorf("corpus len = %d, want 1", back.Corpus.Len())
	}
	p, ok := back.Profiles.Get("alice")
	if !ok || p.SyntaxErrors != 1 {
		t.Errorf("alice profile = %+v ok=%v", p, ok)
	}
	if _, ok := back.FAQ.Lookup("what is a stack"); !ok {
		t.Error("faq entry lost")
	}
}

func TestLoadStoresMissingDirectoryYieldsDefaults(t *testing.T) {
	s, err := LoadStores(filepath.Join(t.TempDir(), "does-not-exist"))
	if err != nil {
		t.Fatalf("missing dir should not error: %v", err)
	}
	if s.Ontology.Len() != ontology.BuildCourseOntology().Len() {
		t.Errorf("ontology len = %d, want the course ontology", s.Ontology.Len())
	}
	if s.Corpus.Len() != 0 || s.FAQ.Len() != 0 || s.Profiles.Len() != 0 {
		t.Error("missing dir should yield empty corpus, profiles and FAQ")
	}
}

func TestLoadStoresPartialCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := buildStores()
	if err := atomicWrite(filepath.Join(dir, faqFile), s.FAQ.Save); err != nil {
		t.Fatalf("write faq: %v", err)
	}
	back, err := LoadStores(dir)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if back.FAQ.Len() != 1 {
		t.Errorf("faq len = %d, want 1", back.FAQ.Len())
	}
	if back.Corpus.Len() != 0 || back.Profiles.Len() != 0 {
		t.Error("absent stores should load empty")
	}
}

func TestCorruptCheckpointSurfacesError(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ontologyFile), []byte("not xml at all <"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadStores(dir); err == nil || !strings.Contains(err.Error(), ontologyFile) {
		t.Errorf("corrupt ontology: err = %v, want an error naming %s", err, ontologyFile)
	}
}

// TestCheckpointOverwritesInPlace: a second checkpoint replaces the
// files through the fsync'd atomic write and leaves no temp files.
func TestCheckpointOverwritesInPlace(t *testing.T) {
	dir := t.TempDir()
	s := buildStores()
	if err := saveCheckpoint(dir, s); err != nil {
		t.Fatal(err)
	}
	s.Corpus.Add(corpus.Record{Text: "second", Tokens: []string{"second"}, Verdict: corpus.VerdictCorrect})
	if err := saveCheckpoint(dir, s); err != nil {
		t.Fatal(err)
	}
	back, err := LoadStores(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Corpus.Len() != 2 {
		t.Errorf("corpus len = %d after overwrite, want 2", back.Corpus.Len())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}

// TestCheckpointAtomicWriteSurvivesExistingFile: rewriting unchanged
// stores over an existing checkpoint replaces every file in place,
// leaves no temp files and reloads the same records.
func TestCheckpointAtomicWriteSurvivesExistingFile(t *testing.T) {
	dir := t.TempDir()
	s := buildStores()
	for i := 0; i < 2; i++ {
		if err := saveCheckpoint(dir, s); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp") {
			t.Errorf("temp file left behind: %s", e.Name())
		}
	}
	back, err := LoadStores(dir)
	if err != nil {
		t.Fatalf("load after rewrite: %v", err)
	}
	if back.Corpus.Len() != s.Corpus.Len() {
		t.Errorf("corpus len = %d after rewrite, want %d", back.Corpus.Len(), s.Corpus.Len())
	}
}

func TestCheckpointPreservesJournalLSNs(t *testing.T) {
	dir := t.TempDir()
	s := buildStores()
	s.Ontology.SetJournalLSN(11)
	s.Corpus.SetJournalLSN(12)
	s.Profiles.SetJournalLSN(13)
	s.FAQ.SetJournalLSN(14)
	if err := saveCheckpoint(dir, s); err != nil {
		t.Fatalf("save: %v", err)
	}
	back, err := LoadStores(dir)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	got := [4]uint64{back.Ontology.JournalLSN(), back.Corpus.JournalLSN(), back.Profiles.JournalLSN(), back.FAQ.JournalLSN()}
	if want := [4]uint64{11, 12, 13, 14}; got != want {
		t.Errorf("ontology/corpus/profiles/faq LSNs = %v, want %v", got, want)
	}
}

// TestCheckpointOnlyDirectoryBootsAsJournal: a directory holding only
// checkpoint files written by never-journaled stores (embedded LSN 0,
// no segments) opens as a journal with every record, and mutations
// journaled after it survive a crash on top of it.
func TestCheckpointOnlyDirectoryBootsAsJournal(t *testing.T) {
	dir := t.TempDir()
	if err := saveCheckpoint(dir, buildStores()); err != nil {
		t.Fatal(err)
	}
	s1, m1 := openFresh(t, dir, noAutoOpts)
	if rs := m1.Stats().Replay; rs.Applied != 0 || rs.Segments != 0 {
		t.Errorf("replay = %+v, want nothing to replay", rs)
	}
	if s1.Corpus.Len() != 1 || s1.FAQ.Len() != 1 {
		t.Fatalf("checkpoint lost at boot: corpus=%d faq=%d", s1.Corpus.Len(), s1.FAQ.Len())
	}
	want := mutate(t, s1, "one")
	if err := m1.Sync(); err != nil {
		t.Fatal(err)
	}
	m1.Abandon()

	s2, m2 := openFresh(t, dir, noAutoOpts)
	defer m2.Close()
	if rs := m2.Stats().Replay; rs.Applied != want {
		t.Errorf("replay applied %d records, want %d", rs.Applied, want)
	}
	if s2.Corpus.Len() != 2 || s2.FAQ.Len() != 2 {
		t.Errorf("after crash: corpus=%d faq=%d, want 2 and 2", s2.Corpus.Len(), s2.FAQ.Len())
	}
	if p, _ := s2.Profiles.Get("alice"); p.Messages != 2 || p.SyntaxErrors != 1 {
		t.Errorf("alice = %+v, want 2 messages and 1 syntax error", p)
	}
}
