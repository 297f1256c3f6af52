package journal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// writeSegment hand-crafts a journal segment from encoded records —
// the tail reader is exercised against raw files so segment sealing,
// torn tails and LSN bounds are all under the test's control.
func writeSegment(t *testing.T, dir string, seq uint64, lsns []uint64, tail string) {
	t.Helper()
	var buf []byte
	for _, lsn := range lsns {
		line, err := encodeRecord(lsn, "corpus.add", map[string]uint64{"n": lsn})
		if err != nil {
			t.Fatalf("encodeRecord: %v", err)
		}
		buf = append(buf, line...)
	}
	buf = append(buf, tail...)
	if err := os.WriteFile(filepath.Join(dir, segmentName(seq)), buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

func lsnsOf(recs []ShippedRecord) []uint64 {
	out := make([]uint64, len(recs))
	for i, r := range recs {
		out[i] = r.LSN
	}
	return out
}

func wantLSNs(t *testing.T, recs []ShippedRecord, want ...uint64) {
	t.Helper()
	got := lsnsOf(recs)
	if len(got) != len(want) {
		t.Fatalf("shipped %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("shipped %v, want %v", got, want)
		}
	}
}

func TestTailReaderAdvancesAcrossSealedSegments(t *testing.T) {
	dir := t.TempDir()
	writeSegment(t, dir, 1, []uint64{1, 2}, "")
	writeSegment(t, dir, 2, []uint64{3}, "")

	tr := NewTailReader(dir)
	recs, err := tr.Next(0)
	if err != nil {
		t.Fatal(err)
	}
	wantLSNs(t, recs, 1, 2, 3)
	// Cursor parked on the active (last) segment, not past it.
	if tr.Pos().Segment != 2 {
		t.Fatalf("cursor on segment %d, want 2", tr.Pos().Segment)
	}
	// Nothing new: no records, no error.
	recs, err = tr.Next(0)
	if err != nil || len(recs) != 0 {
		t.Fatalf("idle Next = %v, %v; want empty", lsnsOf(recs), err)
	}
	// New appends to the active segment are picked up incrementally.
	f, err := os.OpenFile(filepath.Join(dir, segmentName(2)), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	line, err := encodeRecord(4, "corpus.add", map[string]uint64{"n": 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(line); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	recs, err = tr.Next(0)
	if err != nil {
		t.Fatal(err)
	}
	wantLSNs(t, recs, 4)
}

func TestTailReaderStopsAtTornLineAndResumes(t *testing.T) {
	dir := t.TempDir()
	writeSegment(t, dir, 1, []uint64{1, 2}, `{"lsn":3,"type":"corpus.add","crc":9,"da`)

	tr := NewTailReader(dir)
	recs, err := tr.Next(0)
	if err != nil {
		t.Fatal(err)
	}
	wantLSNs(t, recs, 1, 2)
	tornAt := tr.Pos()

	// The torn bytes were simply not flushed yet: complete the record
	// in place and the reader resumes from the same offset.
	full, err := encodeRecord(3, "corpus.add", map[string]uint64{"n": 3})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data = append(data[:tornAt.Offset], full...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err = tr.Next(0)
	if err != nil {
		t.Fatal(err)
	}
	wantLSNs(t, recs, 3)
}

func TestTailReaderHonorsLSNBound(t *testing.T) {
	dir := t.TempDir()
	writeSegment(t, dir, 1, []uint64{1, 2, 3, 4}, "")

	tr := NewTailReader(dir)
	recs, err := tr.Next(2)
	if err != nil {
		t.Fatal(err)
	}
	wantLSNs(t, recs, 1, 2)
	// Raising the bound releases the rest — the shipper only ever ships
	// up to the fsync watermark, then catches up on the next sync.
	recs, err = tr.Next(4)
	if err != nil {
		t.Fatal(err)
	}
	wantLSNs(t, recs, 3, 4)
	if tr.LastLSN() != 4 {
		t.Fatalf("LastLSN = %d, want 4", tr.LastLSN())
	}
}

func TestSinkIdempotentReship(t *testing.T) {
	dir := t.TempDir()
	src := t.TempDir()
	writeSegment(t, src, 1, []uint64{1, 2, 3}, "")
	recs, err := NewTailReader(src).Next(0)
	if err != nil {
		t.Fatal(err)
	}

	s, err := OpenSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(1, recs); err != nil {
		t.Fatal(err)
	}
	// The same batch again (a shipper retry) must be a no-op.
	if err := s.Apply(1, recs); err != nil {
		t.Fatal(err)
	}
	if s.Records() != 3 || s.LastLSN() != 3 {
		t.Fatalf("records %d lastLSN %d after re-ship, want 3/3", s.Records(), s.LastLSN())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A standby restart rescans its segments: the resumed sink still
	// dedupes the old batch and accepts only genuinely new LSNs.
	s2, err := OpenSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.LastLSN() != 3 {
		t.Fatalf("reopened sink lastLSN = %d, want 3", s2.LastLSN())
	}
	writeSegment(t, src, 2, []uint64{4}, "")
	more, err := NewTailReader(src).Next(0) // fresh reader re-ships everything
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Apply(1, more); err != nil {
		t.Fatal(err)
	}
	if s2.LastLSN() != 4 || s2.Records() != 1 {
		t.Fatalf("resumed sink lastLSN %d records %d, want 4/1", s2.LastLSN(), s2.Records())
	}
}

func TestSinkFencesStaleEpoch(t *testing.T) {
	src := t.TempDir()
	writeSegment(t, src, 1, []uint64{1, 2}, "")
	recs, err := NewTailReader(src).Next(0)
	if err != nil {
		t.Fatal(err)
	}

	s, err := OpenSink(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Apply(1, recs[:1]); err != nil {
		t.Fatal(err)
	}
	s.Fence(2)
	// The deposed owner's last group commit arrives after the fence.
	if err := s.Apply(1, recs[1:]); !errors.Is(err, ErrSinkFenced) {
		t.Fatalf("stale-epoch apply returned %v, want ErrSinkFenced", err)
	}
	if s.LastLSN() != 1 {
		t.Fatalf("fenced batch leaked: lastLSN = %d", s.LastLSN())
	}
	// Fencing never moves backwards.
	s.Fence(1)
	if err := s.Apply(1, recs[1:]); !errors.Is(err, ErrSinkFenced) {
		t.Fatalf("fence moved backwards: apply returned %v", err)
	}
	// The new owner at the fenced epoch proceeds.
	if err := s.Apply(2, recs[1:]); err != nil {
		t.Fatal(err)
	}
	if s.LastLSN() != 2 {
		t.Fatalf("lastLSN = %d, want 2", s.LastLSN())
	}
}

// TestShipThenPromote is the replication path end-to-end: a live
// journal ships every fsync'd record through OnSync into a sink, and
// promotion — ordinary LoadStores + Open on the sink's directory —
// recovers every mutation the primary ever made durable.
func TestShipThenPromote(t *testing.T) {
	primary := t.TempDir()
	standby := t.TempDir()
	sink, err := OpenSink(standby)
	if err != nil {
		t.Fatal(err)
	}
	tail := NewTailReader(primary)

	opts := noAutoOpts
	opts.SyncEveryRecord = true
	opts.OnSync = func(synced uint64) {
		recs, err := tail.Next(synced)
		if err != nil {
			t.Errorf("tail: %v", err)
			return
		}
		if err := sink.Apply(1, recs); err != nil {
			t.Errorf("sink: %v", err)
		}
	}
	s1, m1 := openFresh(t, primary, opts)
	want := mutate(t, s1, "one")
	want += mutate(t, s1, "two")
	synced := m1.Stats().SyncedLSN
	m1.Abandon() // SIGKILL the owner; only the shipped bytes matter now

	if sink.LastLSN() < synced {
		t.Fatalf("standby watermark %d below the dead owner's synced %d", sink.LastLSN(), synced)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	s2, m2 := openFresh(t, standby, noAutoOpts)
	defer m2.Close()
	rs := m2.Stats().Replay
	if rs.Applied != want {
		t.Fatalf("promotion replayed %d records, want %d", rs.Applied, want)
	}
	if got := s2.Corpus.Len(); got != 2 {
		t.Errorf("promoted corpus.Len = %d, want 2", got)
	}
	if p, ok := s2.Profiles.Get("alice"); !ok || p.Messages != 2 {
		t.Errorf("promoted profile alice = %+v, ok=%v; want 2 messages", p, ok)
	}
}

// TestTailMarkResetReplaysAfterFailure: a ship attempt whose downstream
// apply fails must be re-readable. Rewinding only the position is not
// enough — Next refuses LSNs at or below its watermark — so Mark/Reset
// capture both, and a reset re-read returns the identical records.
func TestTailMarkResetReplaysAfterFailure(t *testing.T) {
	dir := t.TempDir()
	writeSegment(t, dir, 1, []uint64{1, 2, 3}, "")

	tr := NewTailReader(dir)
	if recs, err := tr.Next(1); err != nil {
		t.Fatal(err)
	} else {
		wantLSNs(t, recs, 1)
	}
	mark := tr.Mark()
	first, err := tr.Next(0)
	if err != nil {
		t.Fatal(err)
	}
	wantLSNs(t, first, 2, 3)

	// The sink rejected the batch: rewind and re-read.
	tr.Reset(mark)
	second, err := tr.Next(0)
	if err != nil {
		t.Fatal(err)
	}
	wantLSNs(t, second, 2, 3)
	for i := range first {
		if string(first[i].Raw) != string(second[i].Raw) {
			t.Fatalf("re-read record %d diverges from the original read", i)
		}
	}

	// Without the reset the records would have been lost for good.
	if recs, err := tr.Next(0); err != nil || len(recs) != 0 {
		t.Fatalf("cursor did not advance past the re-read: %v, %v", recs, err)
	}
}
