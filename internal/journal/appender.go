package journal

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"semagent/internal/clock"
	"semagent/internal/metrics"
)

// journalMetrics are the write-ahead log's hot-path instruments (nil
// when the journal runs unobserved).
type journalMetrics struct {
	records, fsyncs    *metrics.Counter
	appendDur, syncDur *metrics.Histogram
}

func newJournalMetrics(r *metrics.Registry) *journalMetrics {
	if r == nil {
		return nil
	}
	return &journalMetrics{
		records:   r.Counter("semagent_journal_records_total", "mutations appended to the WAL"),
		fsyncs:    r.Counter("semagent_journal_fsyncs_total", "WAL fsync calls (group commits + per-record syncs)"),
		appendDur: r.DurationHistogram("semagent_journal_append_seconds", "WAL append latency (buffered write, plus fsync in sync-every mode)"),
		syncDur:   r.DurationHistogram("semagent_journal_fsync_seconds", "WAL flush+fsync latency"),
	}
}

// segment file naming: journal.<8-digit-seq>.wal sorts lexically in
// sequence order.
const (
	segmentPrefix = "journal."
	segmentSuffix = ".wal"
)

func segmentName(seq uint64) string {
	return fmt.Sprintf("%s%08d%s", segmentPrefix, seq, segmentSuffix)
}

// parseSegmentSeq extracts the sequence number from a segment filename.
func parseSegmentSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segmentPrefix) || !strings.HasSuffix(name, segmentSuffix) {
		return 0, false
	}
	mid := name[len(segmentPrefix) : len(name)-len(segmentSuffix)]
	seq, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// listSegments returns the journal segments in dir in sequence order.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := parseSegmentSeq(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// appender owns the active journal segment. Append either fsyncs every
// record (SyncEveryRecord) or relies on the group-commit flusher: a
// background tick flushes the buffer and fsyncs once for every batch of
// appends in the window, so the hot path pays a buffered write, not a
// disk flush, and durability lags by at most one window.
type appender struct {
	mu        sync.Mutex
	dir       string
	f         *os.File
	bw        *bufio.Writer
	seq       uint64 // active segment sequence
	lsn       uint64 // last assigned LSN
	synced    uint64 // highest LSN covered by a successful fsync
	dirty     bool   // unflushed appends
	size      int64  // bytes appended since last checkpoint
	syncEvery bool
	err       error // first append error; journal is degraded after
	met       *journalMetrics
	clk       clock.Clock // latency timestamps; virtual under the simulator
	// onSync, when set, runs after every successful fsync with the new
	// synced watermark, still under mu. The cluster's replication
	// shipper hangs here: replication lag is exactly durability lag, so
	// "nothing a client saw fsync'd is lost" holds by construction.
	onSync func(synced uint64)

	// counters for Stats
	records uint64
	fsyncs  uint64
}

// openAppender opens (or creates) the active segment for appending.
// startLSN seeds the sequence counter from recovery.
func openAppender(dir string, seq, startLSN uint64, syncEvery bool, met *journalMetrics, clk clock.Clock) (*appender, error) {
	create := seq == 0
	if create {
		seq = 1
	}
	path := filepath.Join(dir, segmentName(seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open segment: %w", err)
	}
	if create {
		if err := syncDir(dir); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("journal: sync dir: %w", err)
		}
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	return &appender{
		dir: dir,
		f:   f,
		bw:  bufio.NewWriterSize(f, 64*1024),
		seq: seq,
		lsn: startLSN,
		// Everything recovery handed us is already on disk: the synced
		// watermark starts where the replayed log ends.
		synced:    startLSN,
		size:      st.Size(),
		syncEvery: syncEvery,
		met:       met,
		clk:       clock.Or(clk),
	}, nil
}

// Append journals one mutation and returns its LSN. In sync-every mode
// the record is fsync'd before returning; otherwise it is buffered for
// the next group commit. Errors degrade the journal (recorded, logged
// by the manager) but still assign an LSN: the mutation is in the
// stores regardless, and the LSN contract is about state coverage, not
// durability.
func (a *appender) Append(typ string, payload interface{}) (uint64, error) {
	if a.met != nil {
		// Duration is observed on every attempt; the records counter
		// only on success (see below) — a degraded journal must not
		// look like it is still appending.
		start := a.clk.Now()
		defer func() { a.met.appendDur.ObserveDuration(a.clk.Since(start)) }()
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.lsn++
	lsn := a.lsn
	line, err := encodeRecord(lsn, typ, payload)
	if err != nil {
		a.fail(err)
		return lsn, err
	}
	if _, err := a.bw.Write(line); err != nil {
		a.fail(err)
		return lsn, err
	}
	a.records++
	if a.met != nil {
		a.met.records.Inc()
	}
	a.size += int64(len(line))
	a.dirty = true
	if a.syncEvery {
		if err := a.flushLocked(); err != nil {
			return lsn, err
		}
	}
	return lsn, nil
}

func (a *appender) fail(err error) {
	if a.err == nil {
		a.err = err
	}
}

// flushLocked drains the buffer to the OS and fsyncs. On success every
// record appended so far is durable, so the synced watermark advances to
// the last assigned LSN.
func (a *appender) flushLocked() error {
	if !a.dirty {
		return nil
	}
	var start time.Time
	if a.met != nil {
		start = a.clk.Now()
	}
	if err := a.bw.Flush(); err != nil {
		a.fail(err)
		return err
	}
	if err := a.f.Sync(); err != nil {
		a.fail(err)
		return err
	}
	a.fsyncs++
	a.synced = a.lsn
	if a.met != nil {
		a.met.syncDur.ObserveDuration(a.clk.Since(start))
		a.met.fsyncs.Inc()
	}
	a.dirty = false
	if a.onSync != nil {
		a.onSync(a.synced)
	}
	return nil
}

// Sync forces a group commit now (the background flusher's tick, and
// the shutdown path).
func (a *appender) Sync() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.flushLocked()
}

// Rotate seals the active segment (flush + fsync) and starts a fresh
// one. It returns the sealed segment's sequence number. Records
// appended after Rotate land in the new segment.
func (a *appender) Rotate() (sealed uint64, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.flushLocked(); err != nil {
		return 0, err
	}
	if err := a.f.Close(); err != nil {
		return 0, err
	}
	sealed = a.seq
	a.seq++
	path := filepath.Join(a.dir, segmentName(a.seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		a.fail(err)
		return 0, fmt.Errorf("journal: rotate: %w", err)
	}
	if err := syncDir(a.dir); err != nil {
		_ = f.Close()
		a.fail(err)
		return 0, fmt.Errorf("journal: rotate sync dir: %w", err)
	}
	a.f = f
	a.bw = bufio.NewWriterSize(f, 64*1024)
	a.size = 0
	a.dirty = false
	return sealed, nil
}

// BytesSinceCheckpoint reports bytes appended to the active segment.
func (a *appender) BytesSinceCheckpoint() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.size
}

// LastLSN returns the last assigned sequence number.
func (a *appender) LastLSN() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lsn
}

// SyncedLSN is the durability watermark: the highest LSN covered by a
// successful fsync.
func (a *appender) SyncedLSN() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.synced
}

// Err returns the first append/flush error, if any (degraded journal).
func (a *appender) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// Close flushes, fsyncs and closes the active segment.
func (a *appender) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	flushErr := a.flushLocked()
	closeErr := a.f.Close()
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// groupWindowDefault is the group-commit interval: appends buffered in
// this window share one fsync.
const groupWindowDefault = 20 * time.Millisecond
