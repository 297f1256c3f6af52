package eval

import (
	"fmt"
	"os"
	"time"

	"semagent/internal/core"
	"semagent/internal/journal"
	"semagent/internal/pipeline"
)

// E11Config sizes experiment E11 (DESIGN.md D9/§4): the E9 sharded-
// cached workload with the write-ahead journal off, in batched
// group-commit mode, and in fsync-per-record mode — the price of
// durable learning.
type E11Config struct {
	// Rooms is the number of concurrent classrooms (default 8).
	Rooms int `json:"rooms"`
	// MessagesPerRoom is the dialogue length per room (default 64).
	MessagesPerRoom int `json:"messages_per_room"`
	// Workers sizes the pipeline pool (0 = GOMAXPROCS).
	Workers int `json:"workers"`
	// Seed drives the workload generator.
	Seed int64 `json:"seed"`
	// Dir is the base directory for per-arm journal dirs (default: the
	// OS temp dir). Each arm gets a fresh directory, removed afterwards.
	Dir string `json:"-"`
}

// E11Arm is one measured journaling configuration.
type E11Arm struct {
	Name       string
	Messages   int
	Elapsed    time.Duration
	Throughput float64 // messages per second
	// OverheadPct is the throughput cost vs the no-journal arm.
	OverheadPct float64
	// Journal counters (zero for the no-journal arm).
	Records     uint64
	Fsyncs      uint64
	Checkpoints uint64
	// RecoveredRecords is the number of WAL records replayed by a fresh
	// recovery after a simulated crash (no final checkpoint) — the
	// proof that the journaled arms actually made the session durable.
	RecoveredRecords int
	// RecoveredCorpus is the corpus size after that recovery.
	RecoveredCorpus int
}

// E11Result holds the three arms plus the headline overheads.
type E11Result struct {
	Config E11Config
	Arms   []E11Arm
	// GroupOverheadPct is the batched group-commit cost vs no journal.
	GroupOverheadPct float64
	// SyncOverheadPct is the fsync-per-record cost vs no journal.
	SyncOverheadPct float64
}

// RunE11 pushes the E9 room-interleaved stream through the sharded-
// cached supervision pipeline three times: journal off, group-commit
// journaling, fsync-per-record journaling. The journaled arms end with
// a simulated crash (no shutdown checkpoint) followed by a recovery
// into fresh stores, verifying that the corpus survived in full.
func RunE11(cfg E11Config) (*E11Result, error) {
	if cfg.Rooms <= 0 {
		cfg.Rooms = 8
	}
	if cfg.MessagesPerRoom <= 0 {
		cfg.MessagesPerRoom = 64
	}
	msgs := E9Workload(E9Config{Rooms: cfg.Rooms, MessagesPerRoom: cfg.MessagesPerRoom, Seed: cfg.Seed})
	res := &E11Result{Config: cfg}

	for _, mode := range []string{"no-journal", "group-commit", "fsync-per-record"} {
		arm, err := runE11Arm(mode, cfg, msgs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", mode, err)
		}
		res.Arms = append(res.Arms, *arm)
	}

	base := res.Arms[0].Throughput
	if base > 0 {
		for i := range res.Arms[1:] {
			res.Arms[i+1].OverheadPct = 100 * (1 - res.Arms[i+1].Throughput/base)
		}
		res.GroupOverheadPct = res.Arms[1].OverheadPct
		res.SyncOverheadPct = res.Arms[2].OverheadPct
	}
	return res, nil
}

func runE11Arm(mode string, cfg E11Config, msgs []E9Message) (*E11Arm, error) {
	arm := &E11Arm{Name: mode, Messages: len(msgs)}

	var mgr *journal.Manager
	var dir string
	stores := journal.Stores{}
	coreCfg := core.Config{}
	if mode != "no-journal" {
		var err error
		dir, err = os.MkdirTemp(cfg.Dir, "e11-"+mode+"-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		stores, err = journal.LoadStores(dir)
		if err != nil {
			return nil, err
		}
		mgr, err = journal.Open(dir, stores, journal.Options{
			SyncEveryRecord: mode == "fsync-per-record",
		})
		if err != nil {
			return nil, err
		}
		coreCfg.Ontology = stores.Ontology
		coreCfg.Corpus = stores.Corpus
		coreCfg.Profiles = stores.Profiles
		coreCfg.FAQ = stores.FAQ
	}
	sup, err := core.New(coreCfg)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	pipe := pipeline.New(pipeline.Config{Workers: cfg.Workers})
	errCh := make(chan error, 1)
	for _, m := range msgs {
		m := m
		if err := pipe.Submit(m.Room, func() {
			if _, perr := sup.Process(m.Room, m.User, m.Text); perr != nil {
				select {
				case errCh <- perr:
				default:
				}
			}
		}); err != nil {
			pipe.Close()
			return nil, err
		}
	}
	pipe.Close()
	select {
	case perr := <-errCh:
		return nil, perr
	default:
	}
	arm.Elapsed = time.Since(start)
	if arm.Elapsed > 0 {
		arm.Throughput = float64(arm.Messages) / arm.Elapsed.Seconds()
	}

	if mgr != nil {
		// Simulated crash: fsync what the group commit has buffered,
		// then abandon the manager without Close (no final checkpoint),
		// exactly like a SIGKILL after the last commit window.
		if err := mgr.Sync(); err != nil {
			return nil, err
		}
		st := mgr.Stats()
		arm.Records = st.Records
		arm.Fsyncs = st.Fsyncs
		arm.Checkpoints = st.Checkpoints
		mgr.Abandon()

		recovered, err := journal.LoadStores(dir)
		if err != nil {
			return nil, fmt.Errorf("recovery load: %w", err)
		}
		m2, err := journal.Open(dir, recovered, journal.Options{})
		if err != nil {
			return nil, fmt.Errorf("recovery open: %w", err)
		}
		arm.RecoveredRecords = m2.Stats().Replay.Applied
		arm.RecoveredCorpus = recovered.Corpus.Len()
		if err := m2.Close(); err != nil {
			return nil, err
		}
		if arm.RecoveredCorpus != sup.Corpus().Len() {
			return nil, fmt.Errorf("recovery lost records: corpus %d, want %d",
				arm.RecoveredCorpus, sup.Corpus().Len())
		}
	}
	return arm, nil
}
