package simulate

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"semagent/internal/chat"
	"semagent/internal/cluster"
	"semagent/internal/core"
	"semagent/internal/journal"
	"semagent/internal/memnet"
)

// Cluster mode (DESIGN.md D15): instead of one in-process server, the
// scenario runs on a room-partitioned fabric — N nodes, each with its
// own knowledge stores and journal, behind a gateway that owns the
// client edge. Sim clients dial the gateway exactly as they dialed the
// single server; everything else (virtual clock, memnet, settle
// barrier, transcript) is unchanged. StepKillNode crashes a node and
// promotes its journal-shipped warm standby; StepPartition severs the
// gateway's links to a node without killing it. The ship-stream and
// failover faults live in a faultPlan the fabric consults through its
// one fault hook (cluster.FabricConfig.Fault).

// simNode is one node incarnation built by the fabric's Start
// callback: private stores, journal (with the WAL-shipping OnSync
// hook) and chat server over its own in-memory listener.
type simNode struct {
	id       cluster.NodeID
	listener *memnet.Listener
	server   *chat.Server
	sup      *core.Supervisor
	stores   journal.Stores
	mgr      *journal.Manager
	onSync   func(synced uint64) // the fabric's WAL-shipping hook
}

// errShipCut and errInjectedSinkFault are the deterministic errors a
// faultPlan fails ship attempts with: an asymmetric partition
// (StepCutShip) and a wedged standby (StepSinkFault).
var (
	errShipCut           = errors.New("ship stream severed (chaos)")
	errInjectedSinkFault = errors.New("injected sink fault (chaos)")
)

// faultPlan is the cluster scenario's fault schedule: which
// incarnations' ship attempts fail, and the failover stage armed to
// crash once. The fabric asks it at every cluster.FaultPoint — from
// journal sync callbacks as well as the sim thread, hence the lock.
type faultPlan struct {
	mu    sync.Mutex
	ships map[cluster.NodeID]error
	crash cluster.FaultPoint
}

// at is the fabric's FabricConfig.Fault hook.
func (p *faultPlan) at(point cluster.FaultPoint, id cluster.NodeID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if point == cluster.ShipApply {
		return p.ships[id]
	}
	if point != p.crash {
		return nil
	}
	p.crash = 0
	return fmt.Errorf("coordinator crashed at stage %d", point)
}

// failShips fails every ship attempt of incarnation id with err (nil
// heals).
func (p *faultPlan) failShips(id cluster.NodeID, err error) {
	p.mu.Lock()
	p.ships[id] = err
	p.mu.Unlock()
}

// armCrash makes the next Failover stop once at stage.
func (p *faultPlan) armCrash(stage cluster.FaultPoint) {
	p.mu.Lock()
	p.crash = stage
	p.mu.Unlock()
}

// clusterRuntime is the runner's cluster-mode substrate.
type clusterRuntime struct {
	fab        *cluster.Fabric
	gw         *cluster.Gateway
	gwListener *memnet.Listener
	lease      time.Duration
	faults     faultPlan

	// mu guards nodes: incarnations come and go on the sim thread, but
	// the recorder resolves rooms to supervisors from pipeline workers.
	mu    sync.Mutex
	nodes map[cluster.NodeID]*simNode
}

// live returns the live incarnations sorted by id — the iteration
// order every cross-node aggregate uses.
func (cr *clusterRuntime) live() []*simNode {
	cr.mu.Lock()
	out := make([]*simNode, 0, len(cr.nodes))
	for _, n := range cr.nodes {
		out = append(out, n)
	}
	cr.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// resolveSup routes a room to its owner's supervisor (the recorder's
// resolve seam). A nil return means the owner died between enqueue and
// processing; the recorder logs the message as unprocessed.
func (cr *clusterRuntime) resolveSup(room string) *core.Supervisor {
	o, ok := cr.fab.Owners().Lookup(room)
	if !ok {
		return nil
	}
	cr.mu.Lock()
	defer cr.mu.Unlock()
	n := cr.nodes[o.Node]
	if n == nil {
		return nil
	}
	return n.sup
}

// startCluster brings up the fabric and the gateway. Called once from
// start(); node incarnations after that are born only through
// Fabric.Failover.
func (r *runner) startCluster() error {
	cc := r.sc.Cluster
	cr := &clusterRuntime{nodes: make(map[cluster.NodeID]*simNode)}
	cr.faults.ships = make(map[cluster.NodeID]error)
	r.cluster = cr
	r.rec = newRecorder(nil)
	r.rec.resolve = cr.resolveSup
	workers := r.sc.Workers
	if workers <= 0 {
		workers = 2 // pinned, as in single-node mode
	}
	start := func(id cluster.NodeID, dir string, onSync func(synced uint64)) (*cluster.NodeHandle, error) {
		stores, err := journal.LoadStores(dir)
		if err != nil {
			return nil, fmt.Errorf("node %s: load stores: %w", id, err)
		}
		mgr, err := journal.Open(dir, stores, journal.Options{
			SyncEveryRecord:    true,
			CheckpointBytes:    -1,
			CheckpointInterval: -1,
			Clock:              r.vc,
			OnSync:             onSync,
		})
		if err != nil {
			return nil, fmt.Errorf("node %s: open journal: %w", id, err)
		}
		sup, err := core.New(core.Config{
			Now:      r.vc.Now,
			Ontology: stores.Ontology,
			Corpus:   stores.Corpus,
			Profiles: stores.Profiles,
			FAQ:      stores.FAQ,
		})
		if err != nil {
			return nil, fmt.Errorf("node %s: build supervisor: %w", id, err)
		}
		n := &simNode{id: id, stores: stores, mgr: mgr, sup: sup, listener: memnet.NewListener(), onSync: onSync}
		n.server = chat.NewServer(chat.ServerOptions{
			Supervisor:     r.rec,
			Async:          r.sc.Async,
			Workers:        workers,
			SuperviseQueue: r.sc.SuperviseQueue,
			SendQueue:      1024,
			HistorySize:    r.sc.HistorySize,
			ShedPolicy:     r.sc.ShedPolicy,
			RoomHighWater:  r.sc.RoomHighWater,
			OnShed: func(room string) {
				r.shedMu.Lock()
				r.shedByRoom[room]++
				r.shedMu.Unlock()
			},
			Clock: r.vc,
		})
		n.server.Serve(n.listener)
		cr.mu.Lock()
		cr.nodes[id] = n
		cr.mu.Unlock()
		return &cluster.NodeHandle{
			Dial: n.listener.Dial,
			Idle: n.server.Idle,
			Kill: func() error {
				// Mirror StepCrash: server down, pipeline counters banked,
				// journal abandoned unsealed.
				_ = n.server.Close()
				if pst, ok := n.server.SupervisionStats(); ok {
					r.pipeTotal = r.pipeTotal.Merge(pst)
				}
				n.mgr.Abandon()
				cr.mu.Lock()
				delete(cr.nodes, id)
				cr.mu.Unlock()
				return nil
			},
			Stop: func() error {
				cr.mu.Lock()
				delete(cr.nodes, id)
				cr.mu.Unlock()
				if err := n.server.Close(); err != nil {
					return err
				}
				return n.mgr.Close()
			},
			Stats: n.mgr.Stats,
		}, nil
	}
	fab, err := cluster.NewFabric(cluster.FabricConfig{
		Nodes:   cc.Nodes,
		Lease:   cc.Lease,
		BaseDir: r.dir,
		Clock:   r.vc,
		Start:   start,
		Fault:   cr.faults.at,
	})
	if err != nil {
		return fmt.Errorf("start fabric: %w", err)
	}
	cr.fab = fab
	cr.lease = fab.Owners().Lease()
	cr.gw = cluster.NewGateway(fab, r.vc)
	cr.gwListener = memnet.NewListener()
	cr.gw.Serve(cr.gwListener)
	return nil
}

// dialEdge opens a client connection: the gateway in cluster mode, the
// server's listener otherwise.
func (r *runner) dialEdge() (net.Conn, error) {
	if r.cluster != nil {
		return r.cluster.gwListener.Dial()
	}
	return r.listener.Dial()
}

// roomServer resolves the chat server handling a room: the owner node
// in cluster mode, the single server otherwise.
func (r *runner) roomServer(room string) (*chat.Server, error) {
	if r.cluster == nil {
		return r.server, nil
	}
	o, err := r.cluster.fab.Owner(room)
	if err != nil {
		return nil, err
	}
	r.cluster.mu.Lock()
	n := r.cluster.nodes[o.Node]
	r.cluster.mu.Unlock()
	if n == nil {
		return nil, fmt.Errorf("room %s: owner %s is not live", room, o.Node)
	}
	return n.server, nil
}

// clusterStep runs one cluster-only step (any other kind is unknown):
// it writes the step's transcript line, settles the stack, then fires
// the fault.
func (r *runner) clusterStep(i int, st Step) error {
	var desc string
	var fire func(*clusterRuntime, Step) error
	switch st.Kind {
	case StepKillNode:
		desc, fire = fmt.Sprintf("kill node %s: incarnation dies, warm standby promoted after lease expiry", st.Node), r.killNode
		if st.Stage > 0 {
			desc = fmt.Sprintf("kill node %s: incarnation dies, failover crashes at stage %d and resumes", st.Node, st.Stage)
		}
	case StepPartition:
		desc, fire = fmt.Sprintf("partition node %s: gateway links severed, resume-reconnect to same owner", st.Node), r.partitionNode
	case StepCutShip:
		desc, fire = fmt.Sprintf("cut ship %s: WAL stream to standby severed, client edge stays up", st.Node), r.failShips
	case StepHealShip:
		desc, fire = fmt.Sprintf("heal ship %s: WAL stream reconnected, backlog ships", st.Node), r.healShip
	case StepSinkFault:
		desc, fire = fmt.Sprintf("sink fault %s: standby rejects applies until healed", st.Node), r.failShips
	case StepSkewRace:
		desc, fire = fmt.Sprintf("skew race %s: clock offset %s, race every other lineage's leases", st.Node, st.Skew), r.skewRace
	default:
		return fmt.Errorf("unknown step kind %d", st.Kind)
	}
	r.tr.step(i, desc)
	if r.cluster == nil {
		return fmt.Errorf("step %d (%s) requires Scenario.Cluster", i, desc)
	}
	if err := r.settle(); err != nil {
		return err
	}
	return fire(r.cluster, st)
}

// current resolves a lineage to its live incarnation.
func (cr *clusterRuntime) current(base string) (cluster.NodeID, error) {
	id, ok := cr.fab.Current(base)
	if !ok {
		return "", fmt.Errorf("lineage %s has no live incarnation", base)
	}
	return id, nil
}

// killNode crashes a lineage's live incarnation, expires its lease on
// the virtual clock and promotes its warm standby. The settle that
// follows in step() rides every gateway link through the failover.
func (r *runner) killNode(cr *clusterRuntime, st Step) error {
	if err := cr.fab.Kill(st.Node); err != nil {
		return err
	}
	r.tr.note(fmt.Sprintf("node %s: killed (journal abandoned unsealed)", st.Node))
	// Promotion fences on lease expiry; advance past it. The golden arm
	// of a failover comparison must advance by the same extra amount.
	r.vc.Advance(cr.lease + time.Second)
	if st.Stage > 0 {
		// Kill-during-promotion: arm the crash point, prove the first
		// Failover stops there, then resume. A promotion that completes
		// despite the armed stage (or wedges on resume) fails the run.
		cr.faults.armCrash(cluster.FaultPoint(st.Stage))
		if _, err := cr.fab.Failover(); !errors.Is(err, cluster.ErrFailoverInterrupted) {
			return fmt.Errorf("staged failover: wanted interruption at stage %d, got %v", st.Stage, err)
		}
		r.tr.note(fmt.Sprintf("failover: coordinator crashed at stage %d, re-entering", st.Stage))
	}
	promos, err := cr.fab.Failover()
	if err != nil {
		return err
	}
	for _, p := range promos {
		r.failovers = append(r.failovers, FailoverStats{Step: r.curStep, Promotion: p})
		r.tr.note(fmt.Sprintf(
			"failover: %s -> %s; %d rooms moved, sink lsn %d covers dead synced lsn %d (replayed %d records)",
			p.Dead, p.Promoted, len(p.Moves), p.SinkLastLSN, p.DeadSyncedLSN, p.ReplayApplied))
	}
	return nil
}

// partitionNode severs the gateway's links to a live node; the links
// reconnect to the same owner with Resume joins during the settle.
func (r *runner) partitionNode(cr *clusterRuntime, st Step) error {
	id, err := cr.current(st.Node)
	if err != nil {
		return fmt.Errorf("partition: %w", err)
	}
	cut := cr.gw.CutNode(id)
	r.tr.note(fmt.Sprintf("partition: severed %d gateway links to %s", cut, id))
	return nil
}

// failShips fails every ship attempt of a lineage's live incarnation
// until the heal: StepCutShip severs the stream while the client edge
// stays up (the asymmetric partition), StepSinkFault wedges the
// standby. Either way the shipper must surface the failures (counter,
// Health) and retry — and a kill before the heal must audit as a lossy
// promotion.
func (r *runner) failShips(cr *clusterRuntime, st Step) error {
	id, err := cr.current(st.Node)
	if err != nil {
		return err
	}
	if st.Kind == StepCutShip {
		cr.faults.failShips(id, errShipCut)
		r.tr.note(fmt.Sprintf("ship stream %s: severed (clients unaffected)", st.Node))
	} else {
		cr.faults.failShips(id, errInjectedSinkFault)
		r.tr.note(fmt.Sprintf("standby sink %s: fault injected (applies fail until healed)", st.Node))
	}
	return nil
}

// healShip clears a lineage's ship fault (cut or sink fault) and
// re-ships through the incarnation's OnSync hook at once: the journal
// will not necessarily fsync again soon, so waiting for the next sync
// could leave the standby lagging forever.
func (r *runner) healShip(cr *clusterRuntime, st Step) error {
	id, err := cr.current(st.Node)
	if err != nil {
		return err
	}
	cr.faults.failShips(id, nil)
	cr.mu.Lock()
	n := cr.nodes[id]
	cr.mu.Unlock()
	n.onSync(n.mgr.Stats().SyncedLSN)
	for _, h := range cr.fab.Health() {
		if h.Node == id && h.ShipErr != "" {
			return fmt.Errorf("heal ship %s: %s", id, h.ShipErr)
		}
	}
	r.tr.note(fmt.Sprintf("ship stream %s: healed (standby caught up)", st.Node))
	return nil
}

// skewRace races a lineage, on a clock offset by Step.Skew, for every
// other live lineage's leases. Seized rooms are handed straight back
// (the challenger has no replica); the step re-routes their gateway
// links so the settle barrier sees fresh epochs.
func (r *runner) skewRace(cr *clusterRuntime, st Step) error {
	ch, err := cr.current(st.Node)
	if err != nil {
		return err
	}
	races, err := raceLeases(cr.fab.Owners(), r.vc.Now(), ch, cr.fab.LiveNodes(), st.Skew)
	if err != nil {
		return err
	}
	for _, race := range races {
		r.leaseRaces = append(r.leaseRaces, LeaseRaceStats{Step: r.curStep, LeaseRace: race})
		if race.Seized {
			cut := cr.gw.CutRoom(race.Room)
			r.tr.note(fmt.Sprintf(
				"lease race: %s seized %s from %s (epoch %d->%d, old owner fenced=%v), handed back; %d links re-routed",
				race.Challenger, race.Room, race.Owner, race.EpochBefore, race.EpochAfter, race.OldOwnerFenced, cut))
		} else {
			r.tr.note(fmt.Sprintf("lease race: %s refused %s: %s", race.Challenger, race.Room, race.Refused))
		}
	}
	return nil
}

// Cross-node aggregates for buildResult. In single-node mode they read
// the one supervisor; in cluster mode they fold the live incarnations
// in id order.

func (r *runner) minedPairs() int {
	if r.cluster == nil {
		return r.sup.Generator().MinedPairs()
	}
	total := 0
	for _, n := range r.cluster.live() {
		total += n.sup.Generator().MinedPairs()
	}
	return total
}

func (r *runner) faqLen() int {
	if r.cluster == nil {
		return r.sup.FAQ().Len()
	}
	total := 0
	for _, n := range r.cluster.live() {
		total += n.sup.FAQ().Len()
	}
	return total
}

func (r *runner) analyzerReport() string {
	if r.cluster == nil {
		return r.sup.Analyzer().Report()
	}
	var b strings.Builder
	for _, n := range r.cluster.live() {
		fmt.Fprintf(&b, "== node %s ==\n", n.id)
		b.WriteString(n.sup.Analyzer().Report())
	}
	return b.String()
}
