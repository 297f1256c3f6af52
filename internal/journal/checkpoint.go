package journal

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"

	"semagent/internal/corpus"
	"semagent/internal/ontology"
	"semagent/internal/profile"
	"semagent/internal/qa"
)

// Checkpoint file names inside a data directory. Each file embeds the
// WAL position its store had when it was written (corpus/faq JSONL
// header line, profiles object wrapper, ontology XML attribute), and a
// directory holding only these files — no segments — is a valid
// journal whose log is empty.
const (
	ontologyFile = "ontology.xml"  // paper-markup ontology (Fig. 5 / §4.4 format)
	corpusFile   = "corpus.jsonl"  // learner corpus records, one JSON object per line
	profilesFile = "profiles.json" // user profile array
	faqFile      = "faq.jsonl"     // FAQ entries, one JSON object per line
)

// saveCheckpoint writes the four stores into dir, one fsync'd atomic
// write per file.
func saveCheckpoint(dir string, s Stores) error {
	for _, f := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{ontologyFile, s.Ontology.EncodeXML},
		{corpusFile, s.Corpus.SaveJSONL},
		{profilesFile, s.Profiles.Save},
		{faqFile, s.FAQ.Save},
	} {
		if err := atomicWrite(filepath.Join(dir, f.name), f.write); err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
	}
	return nil
}

// LoadStores loads the checkpoint in dir, embedded journal LSNs
// included, ready for Open to replay the log over. A missing file (or
// directory) yields the supervisor's default for that store: the
// built-in course ontology and an empty corpus, profile store or FAQ.
func LoadStores(dir string) (Stores, error) {
	var s Stores
	var err error
	if s.Ontology, err = loadFile(dir, ontologyFile, ontology.DecodeXML, ontology.BuildCourseOntology); err != nil {
		return Stores{}, err
	}
	if s.Corpus, err = loadFile(dir, corpusFile, corpus.LoadJSONL, corpus.NewStore); err != nil {
		return Stores{}, err
	}
	if s.Profiles, err = loadFile(dir, profilesFile, profile.Load, profile.NewStore); err != nil {
		return Stores{}, err
	}
	if s.FAQ, err = loadFile(dir, faqFile, qa.LoadFAQ, qa.NewFAQ); err != nil {
		return Stores{}, err
	}
	return s, nil
}

func loadFile[T any](dir, name string, decode func(io.Reader) (T, error), fallback func() T) (T, error) {
	f, err := os.Open(filepath.Join(dir, name))
	if errors.Is(err, fs.ErrNotExist) {
		return fallback(), nil
	}
	if err != nil {
		var zero T
		return zero, fmt.Errorf("journal: checkpoint %s: %w", name, err)
	}
	defer f.Close()
	v, err := decode(f)
	if err != nil {
		return v, fmt.Errorf("journal: checkpoint %s: %w", name, err)
	}
	return v, nil
}

// atomicWrite writes via a temp file and rename. The temp file is
// fsynced before the rename and the parent directory after it: without
// the first sync a crash can surface the renamed file with empty or
// partial content (rename is atomic in the namespace, not for data
// pages), and without the second the rename itself may not survive a
// power loss.
func atomicWrite(path string, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if err := write(tmp); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		_ = os.Remove(tmpName)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so renames and unlinks inside it are
// durable. Best effort on platforms where directories cannot be synced.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	_ = d.Close()
	if err != nil && (errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.EBADF)) {
		return nil // e.g. some filesystems refuse fsync on directories
	}
	return err
}
