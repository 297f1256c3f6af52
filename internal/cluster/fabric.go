package cluster

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"semagent/internal/clock"
	"semagent/internal/journal"
	"semagent/internal/metrics"
)

// NodeHandle is the fabric's view of one running node incarnation. The
// fabric never builds servers or supervisors itself — the Start
// callback in FabricConfig does, so this package stays independent of
// the core supervision stack and the same fabric drives both the
// deterministic simulator (memnet transports, virtual clock) and
// cmd/gateway (real stores, wall clock).
type NodeHandle struct {
	// Dial opens a connection to the node's chat server.
	Dial func() (net.Conn, error)
	// Idle reports the node's instantaneous quiescence (chat.Server.Idle
	// plus anything node-local); used by the fabric's settle barrier.
	Idle func() bool
	// Kill crashes the node: close the chat server and abandon its
	// journal without flushing (the simulated power cut).
	Kill func() error
	// Stop shuts the node down gracefully (final checkpoint, seal).
	Stop func() error
	// Stats returns the node's journal counters (SyncedLSN watermark,
	// replay figures after a promotion).
	Stats func() journal.Stats
}

// FabricConfig configures a classroom fabric.
type FabricConfig struct {
	// Nodes is the initial node count (default 2).
	Nodes int
	// Lease is the room-ownership lease (default 10s on the fabric's
	// clock).
	Lease time.Duration
	// BaseDir holds every incarnation's journal directory and warm
	// standby directory.
	BaseDir string
	// Clock drives leases and liveness; the simulator injects its
	// virtual clock.
	Clock clock.Clock
	// Start launches a node incarnation over the given journal
	// directory. The incarnation MUST install onSync as its journal
	// Options.OnSync hook — that hook is the WAL shipping path; without
	// it the node has no warm standby and its rooms die with it.
	Start func(id NodeID, dir string, onSync func(synced uint64)) (*NodeHandle, error)
	// Metrics optionally registers the fabric's replication health
	// series: semagent_cluster_ship_failures_total,
	// semagent_cluster_ship_stalled and
	// semagent_cluster_ship_lag_records.
	Metrics *metrics.Registry
	// Fault, if set, is asked at every FaultPoint whether the fabric
	// fails there: at ShipApply for the incarnation whose ship attempt
	// is about to apply records to its standby, at a Stage* for the
	// dead incarnation being promoted. A non-nil error fails that ship
	// attempt like a real apply error (counted, surfaced by Health and
	// ShipErrors, retried from the tail mark on the next OnSync) or
	// interrupts Failover at that stage (ErrFailoverInterrupted; the
	// next call resumes). nil in production; fault-injection harnesses
	// keep their fault plan behind it.
	Fault func(at FaultPoint, id NodeID) error
}

// FaultPoint names a place where the fabric consults
// FabricConfig.Fault. The four failover stages bracket every durable
// transition of a promotion, so a fault plan can kill the coordinator
// between any two of them and the next Failover call must resume —
// not redo, not wedge — the half-finished promotion.
type FaultPoint int

const (
	StageFenced     FaultPoint = iota + 1 // sink fenced, not yet sealed
	StageSealed                           // sink closed, successor not yet booted
	StageRestarted                        // successor booted, no room moved yet
	StageMidPromote                       // first room moved, the rest still on the dead owner
	ShipApply                             // a ship attempt is about to apply records to the standby
)

// noFault is the production fault hook: nothing ever fails on purpose.
func noFault(FaultPoint, NodeID) error { return nil }

// nodeState is one live (or dead-awaiting-failover) incarnation.
type nodeState struct {
	base   string // lineage name: "n0" stays "n0" across incarnations
	gen    int    // incarnation number within the lineage
	id     NodeID // "n0", "n0+1", ...
	dir    string
	handle *NodeHandle

	// WAL shipping: tail of this node's journal into its standby sink.
	// shipMu serializes the seeding ship at provision time with the
	// journal's OnSync calls (which the appender lock already orders
	// among themselves).
	shipMu     sync.Mutex
	tail       *journal.TailReader
	sink       *journal.Sink
	shipEpoch  uint64
	shipTarget uint64 // highest durable watermark seen; ships catch up to it
	shipFails  int    // consecutive failed ship attempts since last success
	shipErr    error  // last ship failure; nil again after a successful retry

	failures *metrics.Counter               // semagent_cluster_ship_failures_total (nil = unregistered)
	fault    func(FaultPoint, NodeID) error // FabricConfig.Fault, never nil

	killedSynced uint64 // SyncedLSN captured at Kill time

	// Promotion progress (guarded by Fabric.mu): an interrupted
	// Failover records how far it got so the next call resumes instead
	// of redoing — or worse, wedging — the half-finished stages.
	promoFenced  bool
	promoSealed  bool
	promoSealLSN uint64
	promoShipped uint64
	promoSucc    *nodeState
	promoMoves   []RoomMove
	promoResumes int
}

// RoomMove records one room's ownership transfer during a failover.
type RoomMove struct {
	Room        string `json:"room"`
	EpochBefore uint64 `json:"epoch_before"`
	EpochAfter  uint64 `json:"epoch_after"`
}

// Promotion reports one dead node's standby being promoted.
type Promotion struct {
	Dead     NodeID     `json:"dead"`
	Promoted NodeID     `json:"promoted"`
	Moves    []RoomMove `json:"moves"`
	// DeadSyncedLSN is the durability watermark the dead owner reached;
	// SinkLastLSN is what its standby had durably received. The failover
	// invariant (gen.InvFailover) requires Sink ≥ Dead: nothing a
	// client saw fsync'd may be lost.
	DeadSyncedLSN uint64 `json:"dead_synced_lsn"`
	SinkLastLSN   uint64 `json:"sink_last_lsn"`
	ShippedRecs   uint64 `json:"shipped_records"`
	ReplayApplied int    `json:"replay_applied"`
	ReplayErrors  int    `json:"replay_errors"`
	ReplayLastLSN uint64 `json:"replay_last_lsn"`
	// Resumes counts how many times this promotion was re-entered after
	// an interruption (0 = completed in one pass).
	Resumes int `json:"resumes"`
	// Lossy is the audit verdict: SinkLastLSN < DeadSyncedLSN means
	// durable records never reached the standby (a severed or faulted
	// ship stream at kill time). The failover must say so rather than
	// silently promote.
	Lossy bool `json:"lossy"`
}

// Fabric owns the ownership map and the node incarnations. All
// liveness transitions (Kill, Failover) are explicit calls — no
// background goroutines — so the simulator replays identical schedules
// from identical seeds; cmd/gateway drives the same calls from a
// ticker on the system clock.
type Fabric struct {
	cfg FabricConfig
	clk clock.Clock

	owners *OwnerMap

	mu    sync.Mutex
	nodes map[NodeID]*nodeState // live incarnations
	bases map[string]*nodeState // lineage -> live incarnation (nil entry while dead)
	dead  []*nodeState          // killed, awaiting Failover
	epoch uint64                // ship-epoch counter across incarnations

	shipFailures *metrics.Counter
}

// NewFabric provisions the initial nodes (lineages "n0".."n<N-1>") and
// returns the running fabric.
func NewFabric(cfg FabricConfig) (*Fabric, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 2
	}
	if cfg.Start == nil {
		return nil, fmt.Errorf("cluster: FabricConfig.Start is required")
	}
	if cfg.Fault == nil {
		cfg.Fault = noFault
	}
	f := &Fabric{
		cfg:   cfg,
		clk:   clock.Or(cfg.Clock),
		nodes: make(map[NodeID]*nodeState),
		bases: make(map[string]*nodeState),
	}
	f.owners = NewOwnerMap(cfg.Lease, f.clk)
	if cfg.Metrics != nil {
		f.shipFailures = cfg.Metrics.Counter("semagent_cluster_ship_failures_total", "WAL ship attempts that failed (tail read, fault hook or sink apply) and will retry")
		cfg.Metrics.GaugeFunc("semagent_cluster_ship_stalled", "ship streams whose last attempt failed", f.stalledStreams)
		cfg.Metrics.GaugeFunc("semagent_cluster_ship_lag_records", "max standby replication lag in LSNs across live nodes", f.maxShipLag)
	}
	for i := 0; i < cfg.Nodes; i++ {
		base := fmt.Sprintf("n%d", i)
		ns, err := f.provision(base, 0, "")
		if err != nil {
			_ = f.Close()
			return nil, err
		}
		f.nodes[ns.id] = ns
		f.bases[base] = ns
	}
	return f, nil
}

// provision starts incarnation gen of a lineage. dir == "" means a
// fresh journal directory; a promotion passes the dead node's standby
// directory instead, so the new incarnation boots by replaying the
// shipped WAL. After Start, the whole durable log is shipped once into
// the incarnation's own fresh standby — so a lineage killed twice in a
// row without intervening mutations still loses nothing.
func (f *Fabric) provision(base string, gen int, dir string) (*nodeState, error) {
	id := NodeID(base)
	if gen > 0 {
		id = NodeID(fmt.Sprintf("%s+%d", base, gen))
	}
	if dir == "" {
		dir = filepath.Join(f.cfg.BaseDir, string(id))
	}
	sink, err := journal.OpenSink(filepath.Join(f.cfg.BaseDir, string(id)+"-standby"))
	if err != nil {
		return nil, fmt.Errorf("cluster: standby for %s: %w", id, err)
	}
	f.epoch++
	ns := &nodeState{
		base: base, gen: gen, id: id, dir: dir,
		tail: journal.NewTailReader(dir), sink: sink, shipEpoch: f.epoch,
		failures: f.shipFailures, fault: f.cfg.Fault,
	}
	handle, err := f.cfg.Start(id, dir, ns.ship)
	if err != nil {
		_ = sink.Close()
		return nil, fmt.Errorf("cluster: start %s: %w", id, err)
	}
	ns.handle = handle
	// Seed the standby with everything already durable (non-empty for a
	// promoted incarnation booting from shipped segments).
	ns.ship(handle.Stats().SyncedLSN)
	return ns, nil
}

// ship streams every durable record up to synced into the standby.
// Installed as the journal's OnSync hook, so replication lag is
// exactly durability lag. A failed attempt (tail read, fault hook or
// sink apply) rewinds the tail cursor to its pre-read mark and retries
// from the last durable position on the next call: the sink always
// holds a contiguous LSN prefix of the primary's journal, and one
// transient error never kills the stream for good (that bug shipped
// once; see DESIGN.md D16).
func (ns *nodeState) ship(synced uint64) {
	ns.shipMu.Lock()
	defer ns.shipMu.Unlock()
	if synced > ns.shipTarget {
		ns.shipTarget = synced
	}
	mark := ns.tail.Mark()
	recs, err := ns.tail.Next(ns.shipTarget)
	if err == nil && len(recs) > 0 {
		if err = ns.fault(ShipApply, ns.id); err == nil {
			err = ns.sink.Apply(ns.shipEpoch, recs)
		}
	}
	if err != nil {
		ns.tail.Reset(mark)
		ns.shipFails++
		ns.shipErr = err
		if ns.failures != nil {
			ns.failures.Inc()
		}
		return
	}
	ns.shipFails = 0
	ns.shipErr = nil
}

// NodeHealth is one incarnation's replication health: how far its
// standby lags behind its durability watermark, and whether the ship
// stream is impaired. Operators see a lagging standby here *before*
// the kill that would make the lag a loss.
type NodeHealth struct {
	Node      NodeID `json:"node"`
	Base      string `json:"base"`
	Live      bool   `json:"live"`
	SyncedLSN uint64 `json:"synced_lsn"`
	SinkLSN   uint64 `json:"sink_lsn"`
	// Lag is SyncedLSN - SinkLSN: durable records the standby has not
	// received. Nonzero lag with no ShipFailures/ShipErr is a silent
	// stall — exactly what the ship-resumes-or-surfaces invariant
	// forbids.
	Lag          uint64 `json:"lag"`
	ShipFailures int    `json:"ship_failures,omitempty"`
	ShipErr      string `json:"ship_err,omitempty"`
}

// Health reports replication health for every incarnation — live ones
// against their journal's current SyncedLSN, dead-awaiting-failover
// ones against the watermark captured at kill time — sorted by node
// id.
func (f *Fabric) Health() []NodeHealth {
	f.mu.Lock()
	states := make([]*nodeState, 0, len(f.nodes)+len(f.dead))
	live := make(map[*nodeState]bool, len(f.nodes))
	for _, ns := range f.nodes {
		states = append(states, ns)
		live[ns] = true
	}
	states = append(states, f.dead...)
	f.mu.Unlock()
	sort.Slice(states, func(i, j int) bool { return states[i].id < states[j].id })
	out := make([]NodeHealth, 0, len(states))
	for _, ns := range states {
		h := NodeHealth{Node: ns.id, Base: ns.base, Live: live[ns]}
		if live[ns] {
			h.SyncedLSN = ns.handle.Stats().SyncedLSN
		} else {
			h.SyncedLSN = ns.killedSynced
		}
		h.SinkLSN = ns.sink.LastLSN()
		if h.SyncedLSN > h.SinkLSN {
			h.Lag = h.SyncedLSN - h.SinkLSN
		}
		ns.shipMu.Lock()
		h.ShipFailures = ns.shipFails
		if ns.shipErr != nil {
			h.ShipErr = ns.shipErr.Error()
		}
		ns.shipMu.Unlock()
		out = append(out, h)
	}
	return out
}

// stalledStreams counts live ship streams whose last attempt failed —
// the semagent_cluster_ship_stalled gauge.
func (f *Fabric) stalledStreams() int64 {
	f.mu.Lock()
	states := make([]*nodeState, 0, len(f.nodes))
	for _, ns := range f.nodes {
		states = append(states, ns)
	}
	f.mu.Unlock()
	var n int64
	for _, ns := range states {
		ns.shipMu.Lock()
		if ns.shipErr != nil {
			n++
		}
		ns.shipMu.Unlock()
	}
	return n
}

// maxShipLag is the worst standby replication lag (in LSNs) across
// live nodes — the semagent_cluster_ship_lag_records gauge.
func (f *Fabric) maxShipLag() int64 {
	var max uint64
	for _, h := range f.Health() {
		if h.Live && h.Lag > max {
			max = h.Lag
		}
	}
	return int64(max)
}

// ShipErrors returns the replication errors currently outstanding on
// any incarnation (live or dead), sorted by node id. A transient
// failure that a later ship retried past is NOT reported — empty means
// every stream is healthy now, not that none ever hiccuped.
func (f *Fabric) ShipErrors() []error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var states []*nodeState
	for _, ns := range f.nodes {
		states = append(states, ns)
	}
	states = append(states, f.dead...)
	sort.Slice(states, func(i, j int) bool { return states[i].id < states[j].id })
	var errs []error
	for _, ns := range states {
		ns.shipMu.Lock()
		if ns.shipErr != nil {
			errs = append(errs, fmt.Errorf("node %s: %w", ns.id, ns.shipErr))
		}
		ns.shipMu.Unlock()
	}
	return errs
}

// Owners exposes the ownership map (status endpoints, tests).
func (f *Fabric) Owners() *OwnerMap { return f.owners }

// Current resolves a lineage base name to its live incarnation.
func (f *Fabric) Current(base string) (NodeID, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ns := f.bases[base]
	if ns == nil {
		return "", false
	}
	return ns.id, true
}

// LiveNodes returns the live incarnation ids, sorted.
func (f *Fabric) LiveNodes() []NodeID {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]NodeID, 0, len(f.nodes))
	for id := range f.nodes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Owner resolves (and on first contact assigns) a room's owner. New
// rooms are placed by a stable hash of the room name over the sorted
// live lineages, so placement is deterministic for a given set of
// live nodes.
func (f *Fabric) Owner(room string) (Ownership, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if o, ok := f.owners.Lookup(room); ok {
		return o, nil
	}
	var live []string
	for base, ns := range f.bases {
		if ns != nil {
			live = append(live, base)
		}
	}
	if len(live) == 0 {
		return Ownership{}, fmt.Errorf("cluster: no live nodes to own room %q", room)
	}
	sort.Strings(live)
	h := fnv.New32a()
	_, _ = h.Write([]byte(room))
	base := live[int(h.Sum32())%len(live)]
	return f.owners.Acquire(room, f.bases[base].id)
}

// DialNode connects to a live incarnation's chat server.
func (f *Fabric) DialNode(id NodeID) (net.Conn, error) {
	f.mu.Lock()
	ns := f.nodes[id]
	f.mu.Unlock()
	if ns == nil {
		return nil, fmt.Errorf("cluster: node %s is not live", id)
	}
	return ns.handle.Dial()
}

// NodeStats returns a live incarnation's journal counters.
func (f *Fabric) NodeStats(id NodeID) (journal.Stats, bool) {
	f.mu.Lock()
	ns := f.nodes[id]
	f.mu.Unlock()
	if ns == nil {
		return journal.Stats{}, false
	}
	return ns.handle.Stats(), true
}

// Kill crashes a lineage's live incarnation: its chat server closes
// (every gateway link to it severs), its journal is abandoned without
// a flush, and the incarnation joins the dead list until Failover
// promotes its standby. The SyncedLSN watermark is captured first —
// it is the durability bar the promotion must clear.
func (f *Fabric) Kill(base string) error {
	f.mu.Lock()
	ns := f.bases[base]
	if ns == nil {
		f.mu.Unlock()
		return fmt.Errorf("cluster: lineage %s has no live incarnation", base)
	}
	delete(f.nodes, ns.id)
	f.bases[base] = nil
	f.dead = append(f.dead, ns)
	f.mu.Unlock()

	ns.killedSynced = ns.handle.Stats().SyncedLSN
	return ns.handle.Kill()
}

// ErrFailoverInterrupted reports that Failover stopped at a stage the
// fault hook failed. The interrupted promotion's lineage stays on the
// dead list with its progress recorded; calling Failover again resumes
// it.
var ErrFailoverInterrupted = errors.New("cluster: failover interrupted at crash point")

// interrupt asks the fault hook whether the promotion of ns stops at
// stage. Callers hold f.mu.
func (f *Fabric) interrupt(stage FaultPoint, ns *nodeState, where string) error {
	if err := f.cfg.Fault(stage, ns.id); err != nil {
		return fmt.Errorf("%w: %s %s: %v", ErrFailoverInterrupted, ns.id, where, err)
	}
	return nil
}

// Failover promotes every dead incarnation's warm standby: the sink is
// fenced (a late group commit from the dead owner must not land) and
// closed, a new incarnation boots on the sink's directory — ordinary
// WAL recovery over the shipped segments — and each of the dead
// node's rooms moves to it with a bumped fencing epoch. Live owners'
// leases are renewed in the same pass (probe-based renewal: the
// fabric has no renewal goroutine, see the package comment).
//
// Failover is re-entrant: a promotion interrupted at a fault-hook
// stage (or by a caller crash between stages) left the dead incarnation
// on the dead list with its completed stages recorded, and the next
// call picks up exactly where it stopped. A dead node only leaves the
// dead list when its promotion fully completes, so interruption can
// never strand a lineage half-promoted.
//
// Promotions require the dead owner's lease to have expired on the
// fabric's clock; callers advance past the lease (simulator) or run
// Failover on a ticker slower than nothing but faster than the lease
// (cmd/gateway).
func (f *Fabric) Failover() ([]Promotion, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var promos []Promotion
	for len(f.dead) > 0 {
		ns := f.dead[0]
		p, err := f.promoteLocked(ns)
		if err != nil {
			return promos, err
		}
		promos = append(promos, p)
		f.dead = f.dead[1:]
	}
	// Renew the live owners (promoted incarnations included).
	ids := make([]NodeID, 0, len(f.nodes))
	for id := range f.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		for _, room := range f.owners.Rooms(id) {
			if o, ok := f.owners.Lookup(room); ok && o.Node == id {
				if _, err := f.owners.Renew(room, id, o.Epoch); err != nil {
					return promos, err
				}
			}
		}
	}
	return promos, nil
}

// promoteLocked runs (or resumes) one dead incarnation's promotion.
// Callers hold f.mu. Each stage checks recorded progress first, so a
// resumed call skips completed work; the fault hook is consulted
// between stages via interrupt.
func (f *Fabric) promoteLocked(ns *nodeState) (Promotion, error) {
	if ns.promoFenced { // any prior progress means this is a resume
		ns.promoResumes++
	}
	if !ns.promoFenced {
		ns.sink.Fence(ns.shipEpoch + 1)
		ns.promoFenced = true
		if err := f.interrupt(StageFenced, ns, "fenced"); err != nil {
			return Promotion{}, err
		}
	}
	if !ns.promoSealed {
		ns.promoSealLSN, ns.promoShipped = ns.sink.LastLSN(), ns.sink.Records()
		if err := ns.sink.Close(); err != nil {
			return Promotion{}, fmt.Errorf("cluster: close standby of %s: %w", ns.id, err)
		}
		ns.promoSealed = true
		if err := f.interrupt(StageSealed, ns, "sealed"); err != nil {
			return Promotion{}, err
		}
	}
	if ns.promoSucc == nil {
		succ, err := f.provision(ns.base, ns.gen+1, ns.sink.Dir())
		if err != nil {
			return Promotion{}, fmt.Errorf("cluster: promote standby of %s: %w", ns.id, err)
		}
		f.nodes[succ.id] = succ
		f.bases[ns.base] = succ
		ns.promoSucc = succ
		if err := f.interrupt(StageRestarted, ns, "restarted"); err != nil {
			return Promotion{}, err
		}
	}
	succ := ns.promoSucc
	// Rooms() only returns rooms still on the dead id, so a resumed
	// loop naturally continues with the rooms the interruption left
	// behind (the moved ones already answer to the successor).
	for _, room := range f.owners.Rooms(ns.id) {
		before, _ := f.owners.Lookup(room)
		after, err := f.owners.Promote(room, succ.id)
		if err != nil {
			return Promotion{}, fmt.Errorf("cluster: promote %s: %w", room, err)
		}
		ns.promoMoves = append(ns.promoMoves, RoomMove{Room: room, EpochBefore: before.Epoch, EpochAfter: after.Epoch})
		if err := f.interrupt(StageMidPromote, ns, "mid-promote after "+room); err != nil {
			return Promotion{}, err
		}
	}
	// Asked again after the loop, so a dead owner with no (remaining)
	// rooms still reaches the stage and schedules stay deterministic.
	if err := f.interrupt(StageMidPromote, ns, "mid-promote (no rooms)"); err != nil {
		return Promotion{}, err
	}
	p := Promotion{
		Dead: ns.id, Promoted: succ.id, Moves: ns.promoMoves,
		DeadSyncedLSN: ns.killedSynced, SinkLastLSN: ns.promoSealLSN, ShippedRecs: ns.promoShipped,
		Resumes: ns.promoResumes,
		Lossy:   ns.promoSealLSN < ns.killedSynced,
	}
	st := succ.handle.Stats()
	p.ReplayApplied = st.Replay.Applied
	p.ReplayErrors = st.Replay.Errors
	p.ReplayLastLSN = st.Replay.LastLSN
	return p, nil
}

// NodesIdle reports whether every live node is instantaneously idle.
// Combined with Gateway.Idle under one clock.Until poll, this is the
// cluster-wide settle barrier.
func (f *Fabric) NodesIdle() bool {
	f.mu.Lock()
	states := make([]*nodeState, 0, len(f.nodes))
	for _, ns := range f.nodes {
		states = append(states, ns)
	}
	f.mu.Unlock()
	for _, ns := range states {
		if !ns.handle.Idle() {
			return false
		}
	}
	return true
}

// Close stops every live incarnation gracefully and closes the
// standbys. Dead incarnations were already torn down by Kill.
func (f *Fabric) Close() error {
	f.mu.Lock()
	states := make([]*nodeState, 0, len(f.nodes))
	for _, ns := range f.nodes {
		states = append(states, ns)
	}
	sort.Slice(states, func(i, j int) bool { return states[i].id < states[j].id })
	f.nodes = make(map[NodeID]*nodeState)
	for base := range f.bases {
		f.bases[base] = nil
	}
	f.mu.Unlock()
	var first error
	for _, ns := range states {
		if ns.handle != nil {
			if err := ns.handle.Stop(); err != nil && first == nil {
				first = err
			}
		}
		if err := ns.sink.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
