package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"semagent/internal/clock"
	"semagent/internal/corpus"
	"semagent/internal/journal"
	"semagent/internal/metrics"
)

// fabHarness runs a Fabric over journal-only nodes: each incarnation
// is a real journal manager (SyncEveryRecord, so every mutation fsyncs
// and ships) with no chat server on top — the tests drive mutations
// straight through the journaled stores. This is the narrowest harness
// that exercises the real shipping, promotion and recovery machinery.
// Its fault hook is a fake fault plan: per-incarnation ship errors and
// a one-shot failover crash stage, as a chaos harness would keep them.
type fabHarness struct {
	t   *testing.T
	vc  *clock.Virtual
	reg *metrics.Registry
	fab *Fabric

	mu      sync.Mutex
	stores  map[NodeID]journal.Stores
	mgrs    map[NodeID]*journal.Manager
	dirs    map[NodeID]string
	onSyncs map[NodeID]func(uint64)
	seq     int

	shipErrs map[NodeID]error // ship attempts of these incarnations fail
	crash    FaultPoint       // failover stage armed to fail once
	crashes  int              // times the armed stage fired
}

// fault is the harness's FabricConfig.Fault.
func (h *fabHarness) fault(at FaultPoint, id NodeID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if at == ShipApply {
		return h.shipErrs[id]
	}
	if at != h.crash {
		return nil
	}
	h.crash = 0
	h.crashes++
	return fmt.Errorf("test crash at stage %d", at)
}

// failShips makes every ship attempt of the lineage's live incarnation
// fail with err (nil clears).
func (h *fabHarness) failShips(base string, err error) {
	h.t.Helper()
	id, ok := h.fab.Current(base)
	if !ok {
		h.t.Fatalf("lineage %s has no live incarnation", base)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if err == nil {
		delete(h.shipErrs, id)
	} else {
		h.shipErrs[id] = err
	}
}

// heal clears the lineage's ship fault and re-ships at once through the
// incarnation's OnSync hook, without waiting for the next fsync.
func (h *fabHarness) heal(base string) {
	h.t.Helper()
	h.failShips(base, nil)
	id, _ := h.fab.Current(base)
	h.mu.Lock()
	onSync, mgr := h.onSyncs[id], h.mgrs[id]
	h.mu.Unlock()
	onSync(mgr.Stats().SyncedLSN)
}

func newFabHarness(t *testing.T, nodes int) *fabHarness {
	t.Helper()
	h := &fabHarness{
		t:      t,
		vc:     clock.NewVirtual(time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)),
		reg:    metrics.NewRegistry(),
		stores: make(map[NodeID]journal.Stores),
		mgrs:   make(map[NodeID]*journal.Manager),
		dirs:   make(map[NodeID]string),

		onSyncs:  make(map[NodeID]func(uint64)),
		shipErrs: make(map[NodeID]error),
	}
	start := func(id NodeID, dir string, onSync func(synced uint64)) (*NodeHandle, error) {
		stores, err := journal.LoadStores(dir)
		if err != nil {
			return nil, fmt.Errorf("node %s: load stores: %w", id, err)
		}
		mgr, err := journal.Open(dir, stores, journal.Options{
			SyncEveryRecord:    true,
			CheckpointBytes:    -1,
			CheckpointInterval: -1,
			Clock:              h.vc,
			OnSync:             onSync,
		})
		if err != nil {
			return nil, fmt.Errorf("node %s: open journal: %w", id, err)
		}
		h.mu.Lock()
		h.stores[id] = stores
		h.mgrs[id] = mgr
		h.dirs[id] = dir
		h.onSyncs[id] = onSync
		h.mu.Unlock()
		return &NodeHandle{
			Dial:  func() (net.Conn, error) { return nil, fmt.Errorf("harness nodes have no chat server") },
			Idle:  func() bool { return true },
			Kill:  func() error { mgr.Abandon(); return nil },
			Stop:  func() error { return mgr.Close() },
			Stats: mgr.Stats,
		}, nil
	}
	fab, err := NewFabric(FabricConfig{
		Nodes:   nodes,
		BaseDir: t.TempDir(),
		Clock:   h.vc,
		Metrics: h.reg,
		Start:   start,
		Fault:   h.fault,
	})
	if err != nil {
		t.Fatalf("NewFabric: %v", err)
	}
	h.fab = fab
	t.Cleanup(func() { _ = fab.Close() })
	return h
}

// mutate appends n corpus records through the lineage's live
// incarnation; with SyncEveryRecord each one fsyncs and ships.
func (h *fabHarness) mutate(base string, n int) {
	h.t.Helper()
	id, ok := h.fab.Current(base)
	if !ok {
		h.t.Fatalf("lineage %s has no live incarnation", base)
	}
	h.mu.Lock()
	s := h.stores[id]
	h.mu.Unlock()
	for i := 0; i < n; i++ {
		h.seq++
		s.Corpus.Add(corpus.Record{
			Text:    fmt.Sprintf("the dog runs %s %d", base, h.seq),
			Tokens:  []string{"the", "dog", "runs"},
			Verdict: corpus.VerdictCorrect,
			User:    "alice",
			Room:    "r1",
		})
	}
}

// health returns the lineage's live health entry.
func (h *fabHarness) health(base string) NodeHealth {
	h.t.Helper()
	for _, nh := range h.fab.Health() {
		if nh.Base == base && nh.Live {
			return nh
		}
	}
	h.t.Fatalf("no live health entry for lineage %s in %+v", base, h.fab.Health())
	return NodeHealth{}
}

// journalBytes concatenates a directory's journal segments in order —
// sink and primary use the same naming, so the same reader compares
// both sides of a ship stream byte for byte.
func journalBytes(t *testing.T, dir string) []byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read %s: %v", dir, err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "journal.") && strings.HasSuffix(e.Name(), ".wal") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var buf bytes.Buffer
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
	}
	return buf.Bytes()
}

// sinkDir resolves the live incarnation's standby directory.
func (h *fabHarness) sinkDir(base string) string {
	h.t.Helper()
	id, ok := h.fab.Current(base)
	if !ok {
		h.t.Fatalf("lineage %s has no live incarnation", base)
	}
	h.mu.Lock()
	dir := h.dirs[id]
	h.mu.Unlock()
	return filepath.Join(filepath.Dir(dir), string(id)+"-standby")
}

func (h *fabHarness) primaryDir(base string) string {
	h.t.Helper()
	id, ok := h.fab.Current(base)
	if !ok {
		h.t.Fatalf("lineage %s has no live incarnation", base)
	}
	h.mu.Lock()
	dir := h.dirs[id]
	h.mu.Unlock()
	return dir
}

func (h *fabHarness) metricsText() string {
	var buf bytes.Buffer
	if err := h.reg.WritePrometheus(&buf); err != nil {
		h.t.Fatalf("WritePrometheus: %v", err)
	}
	return buf.String()
}

// TestShipSeverHealByteIdentical: an asymmetric partition (ship stream
// cut, node still serving) accumulates lag, and because a cut is a
// failed ship attempt Health and the stalled gauge surface it; the heal
// re-ships through OnSync and catches the standby up to a
// byte-identical copy of the primary's journal.
func TestShipSeverHealByteIdentical(t *testing.T) {
	h := newFabHarness(t, 2)
	h.mutate("n0", 3)
	if nh := h.health("n0"); nh.Lag != 0 || nh.ShipFailures != 0 || nh.ShipErr != "" {
		t.Fatalf("healthy stream reports %+v", nh)
	}

	h.failShips("n0", errors.New("ship stream severed"))
	h.mutate("n0", 4)
	nh := h.health("n0")
	if nh.ShipFailures != 4 || !strings.Contains(nh.ShipErr, "ship stream severed") {
		t.Fatalf("cut stream not surfaced as 4 failed attempts: %+v", nh)
	}
	if nh.Lag != 4 {
		t.Fatalf("4 mutations under a severed stream produced lag %d: %+v", nh.Lag, nh)
	}
	if !strings.Contains(h.metricsText(), "semagent_cluster_ship_stalled 1") {
		t.Fatalf("stalled gauge did not count the severed stream:\n%s", h.metricsText())
	}

	h.heal("n0")
	nh = h.health("n0")
	if nh.Lag != 0 || nh.ShipFailures != 0 || nh.ShipErr != "" {
		t.Fatalf("healed stream still impaired: %+v", nh)
	}
	if !strings.Contains(h.metricsText(), "semagent_cluster_ship_stalled 0") {
		t.Fatalf("stalled gauge still counts the healed stream:\n%s", h.metricsText())
	}
	want := journalBytes(t, h.primaryDir("n0"))
	got := journalBytes(t, h.sinkDir("n0"))
	if len(want) == 0 {
		t.Fatalf("primary journal is empty — mutations did not land")
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sink segments diverge from primary after heal: %d vs %d bytes", len(got), len(want))
	}
}

// TestShipTransientFaultRetries: a sink fault must not kill the stream
// for good. The shipper surfaces the failure (Health, counter, gauge)
// and — once the fault clears — the next ship retries from the last
// durable position with no gap. This is the regression test for the
// sticky-shipErr bug (DESIGN.md D16).
func TestShipTransientFaultRetries(t *testing.T) {
	h := newFabHarness(t, 2)
	h.mutate("n0", 2)

	h.failShips("n0", errors.New("standby disk wedged"))
	h.mutate("n0", 3)
	nh := h.health("n0")
	if nh.ShipFailures == 0 || nh.ShipErr == "" {
		t.Fatalf("faulted stream not surfaced: %+v", nh)
	}
	if !strings.Contains(nh.ShipErr, "standby disk wedged") {
		t.Fatalf("ShipErr %q does not carry the injected fault", nh.ShipErr)
	}
	if nh.Lag == 0 {
		t.Fatalf("faulted stream reports zero lag: %+v", nh)
	}
	if errs := h.fab.ShipErrors(); len(errs) != 1 {
		t.Fatalf("ShipErrors = %v, want exactly the outstanding fault", errs)
	}
	if !strings.Contains(h.metricsText(), "semagent_cluster_ship_failures_total") {
		t.Fatalf("ship failure counter missing:\n%s", h.metricsText())
	}

	// Clear the fault WITHOUT a heal: the very next OnSync must retry
	// and catch up on its own — retries belong to the shipper, not the
	// operator.
	h.failShips("n0", nil)
	h.mutate("n0", 1)
	nh = h.health("n0")
	if nh.Lag != 0 || nh.ShipErr != "" || nh.ShipFailures != 0 {
		t.Fatalf("stream did not recover after fault cleared: %+v", nh)
	}
	if errs := h.fab.ShipErrors(); len(errs) != 0 {
		t.Fatalf("recovered stream still reports errors: %v", errs)
	}
	if !bytes.Equal(journalBytes(t, h.sinkDir("n0")), journalBytes(t, h.primaryDir("n0"))) {
		t.Fatalf("sink diverges from primary after retry")
	}
}

// TestShipFaultSurfacesAndRetriesWithoutGap: a failed ship attempt
// writes nothing to the standby, counts exactly one failure per
// attempt, carries the hook's error verbatim in ShipErr, and the retry
// from the tail mark ships the whole backlog as one contiguous run —
// the standby's watermark goes straight from before the fault to the
// primary's, with every record in between.
func TestShipFaultSurfacesAndRetriesWithoutGap(t *testing.T) {
	h := newFabHarness(t, 2)
	h.mutate("n0", 2)
	before := h.health("n0")
	if before.SinkLSN == 0 || before.Lag != 0 {
		t.Fatalf("baseline stream not caught up: %+v", before)
	}

	wedged := errors.New("standby disk wedged")
	h.failShips("n0", wedged)
	h.mutate("n0", 3)
	nh := h.health("n0")
	if nh.SinkLSN != before.SinkLSN {
		t.Fatalf("failed attempts reached the standby: sink lsn %d -> %d", before.SinkLSN, nh.SinkLSN)
	}
	if nh.ShipFailures != 3 || nh.ShipErr != wedged.Error() {
		t.Fatalf("want 3 failed attempts carrying %q, got %+v", wedged, nh)
	}
	if errs := h.fab.ShipErrors(); len(errs) != 1 || !errors.Is(errs[0], wedged) {
		t.Fatalf("ShipErrors = %v, want the hook's error", errs)
	}
	if !strings.Contains(h.metricsText(), "semagent_cluster_ship_failures_total 3") {
		t.Fatalf("failure counter does not read 3:\n%s", h.metricsText())
	}

	h.heal("n0")
	nh = h.health("n0")
	if nh.Lag != 0 || nh.SinkLSN != nh.SyncedLSN || nh.ShipErr != "" {
		t.Fatalf("retry did not catch the standby up: %+v", nh)
	}
	if !bytes.Equal(journalBytes(t, h.sinkDir("n0")), journalBytes(t, h.primaryDir("n0"))) {
		t.Fatalf("retry from the tail mark left a gap: sink diverges from primary")
	}
}

// TestFailoverCrashStagesResume: for every crash point, a failover
// the fault hook interrupts there must resume — not redo, not wedge —
// on the next call, completing exactly one promotion with Resumes == 1
// and every room moved exactly once.
func TestFailoverCrashStagesResume(t *testing.T) {
	stages := []FaultPoint{StageFenced, StageSealed, StageRestarted, StageMidPromote}
	for _, stage := range stages {
		t.Run(fmt.Sprintf("stage-%d", stage), func(t *testing.T) {
			h := newFabHarness(t, 2)
			if _, err := h.fab.Owners().Acquire("room-a", "n0"); err != nil {
				t.Fatal(err)
			}
			if _, err := h.fab.Owners().Acquire("room-b", "n0"); err != nil {
				t.Fatal(err)
			}
			h.mutate("n0", 3)
			if err := h.fab.Kill("n0"); err != nil {
				t.Fatal(err)
			}
			h.vc.Advance(h.fab.Owners().Lease() + time.Second)

			h.mu.Lock()
			h.crash = stage
			h.mu.Unlock()
			promos, err := h.fab.Failover()
			if !errors.Is(err, ErrFailoverInterrupted) {
				t.Fatalf("armed stage %d: Failover returned %v, want interruption", stage, err)
			}
			if len(promos) != 0 {
				t.Fatalf("interrupted failover reported completed promotions: %+v", promos)
			}

			promos, err = h.fab.Failover()
			if err != nil {
				t.Fatalf("resumed Failover: %v", err)
			}
			if len(promos) != 1 {
				t.Fatalf("resumed Failover completed %d promotions, want 1", len(promos))
			}
			p := promos[0]
			if p.Resumes != 1 {
				t.Fatalf("promotion resumed %d times, want exactly 1", p.Resumes)
			}
			if h.crashes != 1 {
				t.Fatalf("stage %d interrupted %d times, want exactly 1", stage, h.crashes)
			}
			if p.Lossy || p.SinkLastLSN < p.DeadSyncedLSN {
				t.Fatalf("healthy-stream promotion lost data: %+v", p)
			}
			if p.ReplayErrors != 0 || p.ReplayLastLSN < p.DeadSyncedLSN {
				t.Fatalf("promotion replay incomplete: %+v", p)
			}
			rooms := map[string]bool{}
			for _, mv := range p.Moves {
				if rooms[mv.Room] {
					t.Fatalf("room %s moved twice in one promotion: %+v", mv.Room, p.Moves)
				}
				rooms[mv.Room] = true
				if mv.EpochAfter != mv.EpochBefore+1 {
					t.Fatalf("room %s epoch jumped %d -> %d", mv.Room, mv.EpochBefore, mv.EpochAfter)
				}
			}
			if !rooms["room-a"] || !rooms["room-b"] {
				t.Fatalf("dead owner's rooms not all moved: %+v", p.Moves)
			}
			if id, ok := h.fab.Current("n0"); !ok || id != p.Promoted {
				t.Fatalf("lineage n0 resolves to %q, want promoted %q", id, p.Promoted)
			}
			// A third call has nothing left to do.
			if promos, err := h.fab.Failover(); err != nil || len(promos) != 0 {
				t.Fatalf("idle Failover = %v, %v", promos, err)
			}
		})
	}
}

// TestLaggedStandbyLossyPromotion: records fsync'd behind a faulted
// ship stream die with the node, and the promotion audit must say so —
// Lossy, with the sink watermark visibly below the dead owner's.
func TestLaggedStandbyLossyPromotion(t *testing.T) {
	h := newFabHarness(t, 2)
	if _, err := h.fab.Owners().Acquire("room-a", "n0"); err != nil {
		t.Fatal(err)
	}
	h.mutate("n0", 2)
	h.failShips("n0", errors.New("standby lagging"))
	h.mutate("n0", 3) // durable on the primary, never reaches the sink
	if err := h.fab.Kill("n0"); err != nil {
		t.Fatal(err)
	}
	h.vc.Advance(h.fab.Owners().Lease() + time.Second)
	promos, err := h.fab.Failover()
	if err != nil {
		t.Fatalf("Failover: %v", err)
	}
	if len(promos) != 1 {
		t.Fatalf("%d promotions, want 1", len(promos))
	}
	p := promos[0]
	if !p.Lossy {
		t.Fatalf("lagged-standby promotion not flagged lossy: %+v", p)
	}
	if p.SinkLastLSN >= p.DeadSyncedLSN {
		t.Fatalf("sink watermark %d should trail dead owner's %d", p.SinkLastLSN, p.DeadSyncedLSN)
	}
	if p.ReplayErrors != 0 || p.ReplayLastLSN != p.SinkLastLSN {
		t.Fatalf("replay must cover exactly what was shipped: %+v", p)
	}
}
