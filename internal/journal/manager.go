package journal

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"

	"semagent/internal/clock"
	"semagent/internal/corpus"
	"semagent/internal/metrics"
	"semagent/internal/ontology"
	"semagent/internal/profile"
	"semagent/internal/qa"
)

// Stores are the four knowledge databases the journal makes durable.
// All fields must be non-nil; LoadStores builds them from a data
// directory with the same defaults the supervisor would use.
type Stores struct {
	Ontology *ontology.Ontology
	Corpus   *corpus.Store
	Profiles *profile.Store
	FAQ      *qa.FAQ
}

// Options tunes the durability/latency trade-off.
type Options struct {
	// SyncEveryRecord fsyncs each journal record before the mutation
	// returns (maximum durability, one disk flush per mutation). The
	// default is group commit: appends are buffered and fsync'd together
	// every GroupWindow, so a crash loses at most one window.
	SyncEveryRecord bool
	// GroupWindow is the group-commit interval (default 20ms). Ignored
	// when SyncEveryRecord is set.
	GroupWindow time.Duration
	// CheckpointBytes triggers a checkpoint when the active segment
	// exceeds this size (default 4 MiB; negative disables the trigger).
	CheckpointBytes int64
	// CheckpointInterval triggers a periodic checkpoint (default 5m;
	// negative disables the trigger).
	CheckpointInterval time.Duration
	// Logger receives operational messages; nil discards them.
	Logger *log.Logger
	// Metrics, if set, registers the journal's counters and latency
	// histograms (semagent_journal_*).
	Metrics *metrics.Registry
	// Clock drives the group-commit and checkpoint tickers and the
	// checkpoint-interval timing. Nil selects the wall clock; tests and
	// the scenario simulator inject a virtual clock and advance it to
	// trigger flushes deterministically instead of sleeping.
	Clock clock.Clock
	// OnSync, when set, runs after every successful fsync with the new
	// durability watermark, synchronously under the appender lock (no
	// new appends can land until it returns). The cluster's replication
	// shipper uses it to stream sealed bytes to a warm standby before
	// any checkpoint can delete them: because it fires inside Rotate's
	// flush too, a segment is always fully shipped before it is sealed
	// and truncated. Keep it fast and never call back into the journal.
	OnSync func(synced uint64)
}

func (o *Options) fill() {
	if o.GroupWindow == 0 {
		o.GroupWindow = groupWindowDefault
	}
	if o.CheckpointBytes == 0 {
		o.CheckpointBytes = 4 << 20
	}
	if o.CheckpointInterval == 0 {
		o.CheckpointInterval = 5 * time.Minute
	}
}

// Stats is a snapshot of the journal counters.
type Stats struct {
	LastLSN uint64
	// SyncedLSN is the durability watermark: the highest LSN covered by
	// a successful fsync. Equal to LastLSN in sync-every-record mode; in
	// group-commit mode it lags by at most one window. A crash loses
	// nothing at or below it — the invariant the chaos simulator's
	// durability checker (internal/simulate/gen) asserts across
	// crash/recovery cycles.
	SyncedLSN   uint64
	Records     uint64 // appended this run
	Fsyncs      uint64
	Checkpoints uint64
	Replay      ReplayStats
	// Degraded is the first append/flush error, if any: mutations after
	// it are applied in memory but may not be journaled.
	Degraded error
}

// Manager owns the write-ahead log for a data directory: it replays the
// log over the loaded checkpoint at Open, journals every store mutation
// through the stores' observer hooks, group-commits (or syncs per
// record), and checkpoints + truncates in the background.
type Manager struct {
	dir    string
	stores Stores
	opts   Options
	clk    clock.Clock
	ap     *appender
	lock   *os.File // flock'd journal.lock: single writer per data dir
	logger *log.Logger

	ckptMu      sync.Mutex // serializes checkpoints
	lastCkpt    time.Time  // guarded by ckptMu
	checkpoints uint64     // guarded by ckptMu

	replay ReplayStats

	done chan struct{}
	wg   sync.WaitGroup
}

// Open replays the journal in dir onto the given stores (which the
// caller loaded from the same directory's checkpoint, or built fresh),
// attaches the write-ahead observers to all four stores, and starts the
// background group-commit flusher and checkpointer. The returned
// manager must be Closed to detach the hooks and seal the log.
func Open(dir string, stores Stores, opts Options) (*Manager, error) {
	if stores.Ontology == nil || stores.Corpus == nil || stores.Profiles == nil || stores.FAQ == nil {
		return nil, fmt.Errorf("journal: all four stores must be non-nil (use LoadStores)")
	}
	opts.fill()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	// Single-writer exclusion: two processes journaling one directory
	// would interleave LSNs and checkpoint over each other's segments.
	// flock releases automatically when the process dies, so a crash
	// never leaves a stale lock behind.
	lock, err := acquireLock(filepath.Join(dir, lockFileName))
	if err != nil {
		return nil, err
	}
	clk := clock.Or(opts.Clock)
	m := &Manager{
		dir:      dir,
		stores:   stores,
		opts:     opts,
		clk:      clk,
		lock:     lock,
		logger:   opts.Logger,
		lastCkpt: clk.Now(),
		done:     make(chan struct{}),
	}

	replay, err := m.replayAll()
	if err != nil {
		_ = lock.Close()
		return nil, err
	}
	m.replay = replay

	// The appender resumes the last segment (torn tail already
	// truncated) and continues the LSN sequence from whichever is
	// further along: the journal itself or a checkpoint that covered
	// records whose segments were already truncated.
	startLSN := replay.LastLSN
	for _, lsn := range []uint64{
		stores.Ontology.JournalLSN(), stores.Corpus.JournalLSN(),
		stores.Profiles.JournalLSN(), stores.FAQ.JournalLSN(),
	} {
		if lsn > startLSN {
			startLSN = lsn
		}
	}
	ap, err := openAppender(dir, replay.LastSegment, startLSN, opts.SyncEveryRecord, newJournalMetrics(opts.Metrics), clk)
	if err != nil {
		_ = lock.Close()
		return nil, err
	}
	ap.onSync = opts.OnSync
	m.ap = ap
	if opts.Metrics != nil {
		opts.Metrics.GaugeFunc("semagent_journal_last_lsn", "last assigned WAL sequence number",
			func() int64 { return int64(ap.LastLSN()) })
		opts.Metrics.GaugeFunc("semagent_journal_synced_lsn", "durability watermark: highest WAL sequence number covered by an fsync",
			func() int64 { return int64(ap.SyncedLSN()) })
	}

	// Recovery is complete: every store now reflects all mutations up
	// to startLSN, so pin their LSNs there before new appends begin.
	stores.Ontology.SetJournalLSN(startLSN)
	stores.Corpus.SetJournalLSN(startLSN)
	stores.Profiles.SetJournalLSN(startLSN)
	stores.FAQ.SetJournalLSN(startLSN)

	m.attach()
	m.startBackground()
	return m, nil
}

// attach installs the write-ahead observers. Each observer runs inside
// its store's write lock, so a store's state and its JournalLSN advance
// atomically — the checkpointer relies on that to embed an exact WAL
// position in every snapshot file.
func (m *Manager) attach() {
	m.stores.Corpus.SetObserver(func(r corpus.Record) uint64 {
		return m.append(TypeCorpusAdd, r)
	})
	m.stores.Profiles.SetObserver(func(ev profile.Event) uint64 {
		return m.append(TypeProfileEvent, ev)
	})
	m.stores.FAQ.SetObserver(func(ev qa.FAQEvent) uint64 {
		return m.append(TypeFAQRecord, ev)
	})
	m.stores.Ontology.SetObserver(func(ev ontology.Event) uint64 {
		return m.append(TypeOntologyOp, ev)
	})
}

// detach removes the observers (shutdown).
func (m *Manager) detach() {
	m.stores.Corpus.SetObserver(nil)
	m.stores.Profiles.SetObserver(nil)
	m.stores.FAQ.SetObserver(nil)
	m.stores.Ontology.SetObserver(nil)
}

func (m *Manager) append(typ string, payload interface{}) uint64 {
	lsn, err := m.ap.Append(typ, payload)
	if err != nil {
		m.logf("journal: append %s: %v (journal degraded)", typ, err)
	}
	return lsn
}

func (m *Manager) startBackground() {
	if !m.opts.SyncEveryRecord {
		m.wg.Add(1)
		// The ticker is created before the goroutine starts so a virtual
		// clock advanced right after Open cannot race its registration.
		t := m.clk.NewTicker(m.opts.GroupWindow)
		go func() {
			defer m.wg.Done()
			defer t.Stop()
			for {
				select {
				case <-t.C():
					if err := m.ap.Sync(); err != nil {
						m.logf("journal: group commit: %v", err)
					}
				case <-m.done:
					return
				}
			}
		}()
	}
	if m.opts.CheckpointBytes < 0 && m.opts.CheckpointInterval < 0 {
		return
	}
	m.wg.Add(1)
	ckptTick := m.clk.NewTicker(time.Second)
	go func() {
		defer m.wg.Done()
		defer ckptTick.Stop()
		for {
			select {
			case <-ckptTick.C():
				if m.shouldCheckpoint() {
					if err := m.Checkpoint(); err != nil {
						m.logf("journal: checkpoint: %v", err)
					}
				}
			case <-m.done:
				return
			}
		}
	}()
}

func (m *Manager) shouldCheckpoint() bool {
	if m.opts.CheckpointBytes > 0 && m.ap.BytesSinceCheckpoint() >= m.opts.CheckpointBytes {
		return true
	}
	if m.opts.CheckpointInterval > 0 {
		m.ckptMu.Lock()
		last := m.lastCkpt
		m.ckptMu.Unlock()
		if m.clk.Since(last) >= m.opts.CheckpointInterval {
			return true
		}
	}
	return false
}

// Checkpoint seals the active journal segment, snapshots the four
// stores via saveCheckpoint (fsync'd atomic writes, each file embedding
// the WAL position its store had at serialization), and deletes the
// sealed segments.
//
// Correctness: rotation happens first, so every record in a sealed
// segment was appended — and, because observers run inside the store
// locks, applied — before the snapshot was taken. Deleting the sealed
// segments therefore never loses a mutation. Mutations racing the
// snapshot land in the new active segment; whether or not a given store
// file already includes one, that file's embedded LSN says so exactly,
// and replay skips records at or below it — a checkpointed mutation is
// never applied twice. A crash between saveCheckpoint and segment
// deletion just leaves sealed segments behind; the same LSN gate
// ignores them on the next boot.
func (m *Manager) Checkpoint() error {
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	sealed, err := m.ap.Rotate()
	if err != nil {
		return fmt.Errorf("journal: rotate: %w", err)
	}
	if err := saveCheckpoint(m.dir, m.stores); err != nil {
		// Keep the sealed segments: the snapshot is suspect, the log is
		// still the source of truth.
		return fmt.Errorf("journal: checkpoint save: %w", err)
	}
	seqs, err := listSegments(m.dir)
	if err != nil {
		return fmt.Errorf("journal: checkpoint list: %w", err)
	}
	for _, seq := range seqs {
		if seq <= sealed {
			if err := os.Remove(filepath.Join(m.dir, segmentName(seq))); err != nil {
				return fmt.Errorf("journal: truncate segment %d: %w", seq, err)
			}
		}
	}
	if err := syncDir(m.dir); err != nil {
		return fmt.Errorf("journal: checkpoint sync dir: %w", err)
	}
	m.checkpoints++
	m.lastCkpt = m.clk.Now()
	m.logf("journal: checkpoint %d complete (sealed through segment %d, lsn %d)",
		m.checkpoints, sealed, m.ap.LastLSN())
	return nil
}

// Abandon simulates a crash (tests and the E11 harness): background
// loops stop and the store hooks detach, but no flush, checkpoint or
// seal happens — the on-disk journal stays exactly as the last fsync
// left it.
func (m *Manager) Abandon() {
	close(m.done)
	m.wg.Wait()
	m.detach()
	// Release the directory lock as a real crash would (the kernel
	// drops flocks with the process), so recovery can proceed.
	_ = m.lock.Close()
}

// Sync forces a group commit now: buffered appends are flushed and
// fsync'd before it returns.
func (m *Manager) Sync() error {
	return m.ap.Sync()
}

// Stats returns the journal counters.
func (m *Manager) Stats() Stats {
	m.ckptMu.Lock()
	ckpts := m.checkpoints
	m.ckptMu.Unlock()
	m.ap.mu.Lock()
	st := Stats{
		LastLSN:     m.ap.lsn,
		SyncedLSN:   m.ap.synced,
		Records:     m.ap.records,
		Fsyncs:      m.ap.fsyncs,
		Checkpoints: ckpts,
		Replay:      m.replay,
		Degraded:    m.ap.err,
	}
	m.ap.mu.Unlock()
	return st
}

// Close stops the background loops, takes a final checkpoint (so the
// next boot starts from a fresh snapshot), detaches the store hooks and
// seals the log. Mutations issued after Close are no longer journaled.
func (m *Manager) Close() error {
	close(m.done)
	m.wg.Wait()
	ckptErr := m.Checkpoint()
	m.detach()
	if err := m.ap.Close(); err != nil && ckptErr == nil {
		ckptErr = err
	}
	_ = m.lock.Close()
	return ckptErr
}

func (m *Manager) logf(format string, args ...interface{}) {
	if m.logger != nil {
		m.logger.Printf(format, args...)
	}
}
