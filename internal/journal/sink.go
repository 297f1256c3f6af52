package journal

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// ErrSinkFenced is returned by Sink.Apply when the shipper's epoch is
// below the sink's fence: the shipping owner was deposed, and its late
// writes must not reach the replica (DESIGN.md D15).
var ErrSinkFenced = errors.New("journal: sink fenced (stale ship epoch)")

// sinkSegmentBytes is the sink's rotation threshold. The replica's
// segment boundaries need not mirror the primary's — records are
// self-describing JSONL, and replay walks segments in order.
const sinkSegmentBytes = 4 << 20

// Sink is the receiving side of WAL replication: it owns a warm
// standby's journal directory and appends raw shipped records to its
// own segments, fsync'ing per batch. Promotion is then ordinary
// recovery — LoadStores + Open on the sink's directory replays
// everything the dead owner ever fsync'd.
//
// The sink is fenced by a ship epoch: Apply carries the epoch of the
// link that shipped the batch, and Fence raises the minimum. When a
// room's ownership moves, the fabric fences the standby at the new
// epoch before promoting it, so a dead-but-not-quite owner flushing
// one last group commit gets ErrSinkFenced instead of corrupting the
// replica it no longer backs.
type Sink struct {
	mu      sync.Mutex
	dir     string
	f       *os.File
	seq     uint64
	size    int64
	fence   uint64
	lastLSN uint64
	records uint64
	closed  bool
	fault   error
}

// OpenSink opens (or creates) a standby journal directory. Reopening
// an existing sink resumes the highest segment and rescans it for the
// last shipped LSN, so re-shipped batches stay idempotent across a
// standby restart.
func OpenSink(dir string) (*Sink, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: sink mkdir: %w", err)
	}
	seqs, err := listSegments(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: sink list: %w", err)
	}
	s := &Sink{dir: dir, seq: 1}
	if len(seqs) > 0 {
		s.seq = seqs[len(seqs)-1]
		if s.lastLSN, err = scanLastLSN(filepath.Join(dir, segmentName(s.seq))); err != nil {
			return nil, err
		}
	}
	path := filepath.Join(dir, segmentName(s.seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: sink open: %w", err)
	}
	if len(seqs) == 0 {
		if err := syncDir(dir); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("journal: sink sync dir: %w", err)
		}
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	s.f = f
	s.size = st.Size()
	return s, nil
}

// scanLastLSN reads the highest valid LSN in a segment (stopping at
// the first torn line, exactly like replay).
func scanLastLSN(path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("journal: sink scan: %w", err)
	}
	defer f.Close()
	var last uint64
	br := bufio.NewReaderSize(f, 256*1024)
	for {
		line, readErr := br.ReadBytes('\n')
		if trimmed := bytes.TrimSpace(line); len(trimmed) > 0 {
			rec, ok := decodeRecord(trimmed)
			if !ok || rec.LSN <= last {
				return last, nil
			}
			last = rec.LSN
		}
		if readErr == io.EOF {
			return last, nil
		}
		if readErr != nil {
			return last, fmt.Errorf("journal: sink scan: %w", readErr)
		}
	}
}

// Dir returns the standby journal directory (what promotion opens).
func (s *Sink) Dir() string { return s.dir }

// Fence raises the sink's minimum ship epoch. Lower fences are
// ignored — fencing never moves backwards.
func (s *Sink) Fence(epoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch > s.fence {
		s.fence = epoch
	}
}

// Apply appends a batch of shipped records under the given ship epoch
// and fsyncs. Records at or below the last shipped LSN are skipped
// (idempotent re-ship); an epoch below the fence rejects the whole
// batch with ErrSinkFenced.
func (s *Sink) Apply(epoch uint64, recs []ShippedRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("journal: sink closed")
	}
	if epoch < s.fence {
		return fmt.Errorf("%w: ship epoch %d < fence %d", ErrSinkFenced, epoch, s.fence)
	}
	if s.fault != nil {
		return s.fault
	}
	wrote := false
	for _, rec := range recs {
		if rec.LSN <= s.lastLSN {
			continue
		}
		if _, err := s.f.Write(rec.Raw); err != nil {
			return fmt.Errorf("journal: sink append: %w", err)
		}
		s.lastLSN = rec.LSN
		s.records++
		s.size += int64(len(rec.Raw))
		wrote = true
	}
	if !wrote {
		return nil
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("journal: sink sync: %w", err)
	}
	if s.size >= sinkSegmentBytes {
		return s.rotateLocked()
	}
	return nil
}

func (s *Sink) rotateLocked() error {
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("journal: sink rotate: %w", err)
	}
	s.seq++
	f, err := os.OpenFile(filepath.Join(s.dir, segmentName(s.seq)), os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: sink rotate: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		_ = f.Close()
		return fmt.Errorf("journal: sink rotate sync dir: %w", err)
	}
	s.f = f
	s.size = 0
	return nil
}

// InjectFault makes every subsequent Apply fail with err before
// writing anything (nil clears the fault). Chaos harnesses use it to
// model a lagging or wedged standby: the shipper keeps its tail
// cursor parked at the last durable position, so healing the fault
// resumes shipping with no gap.
func (s *Sink) InjectFault(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fault = err
}

// LastLSN returns the highest LSN the sink has durably applied — the
// replication watermark the failover invariant compares against the
// dead owner's SyncedLSN.
func (s *Sink) LastLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastLSN
}

// Records returns how many records this sink has appended this run.
func (s *Sink) Records() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.records
}

// Close seals the sink. Promotion closes the sink before opening a
// real journal manager on its directory (which takes the flock).
func (s *Sink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.f.Close()
}
