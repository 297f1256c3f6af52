// Package simulate is the deterministic classroom-session simulator
// (DESIGN.md D11): it drives the full supervision stack — chat server,
// sharded pipeline, Learning_Angel / Semantic Agent / QA system, and
// optionally the write-ahead journal — through an in-memory transport
// and a virtual clock. No sockets, no sleeps: whole multi-room class
// sessions replay in milliseconds, and the same Scenario produces a
// byte-identical transcript every run.
//
// A Scenario is a seeded script of persona-driven events (joins, chat
// lines, rapid-fire bursts, leaves) plus fault injections (abrupt
// client drops mid-message, a journal crash with recovery mid-session,
// an admission-control shed storm). The simulator settles the entire
// stack between scripted events — every broadcast delivered, every
// supervision verdict recorded, every write flushed — which is what
// makes the inherently concurrent server deterministic to observe.
//
// The golden-transcript regression suite (testdata/scenarios/*.golden)
// diffs each scenario's transcript against a checked-in file, and
// experiment E13 replays a scenario matrix to score per-persona
// detection precision and recall.
package simulate

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"semagent/internal/chat"
	"semagent/internal/clock"
	"semagent/internal/core"
	"semagent/internal/journal"
	"semagent/internal/memnet"
	"semagent/internal/pipeline"
)

// simEpoch is the virtual instant every scenario starts at. Fixed so
// transcript timestamps are identical across runs and machines.
var simEpoch = time.Date(2026, time.March, 2, 9, 0, 0, 0, time.UTC)

// settleTimeout bounds each real-time wait for the stack to go idle; a
// scenario that cannot settle is a bug surfaced as an error, never a
// hang.
const settleTimeout = 30 * time.Second

// simClient is the simulator's end of one participant connection.
type simClient struct {
	name, room string
	persona    PersonaKind
	conn       *memnet.Conn
	codec      *chat.Codec
	// inbox collects messages read since the last transcript flush.
	inbox []chat.Message
	alive bool
}

// read blocks for the next message (bounded by settleTimeout).
func (c *simClient) read() (chat.Message, error) {
	//semalint:allow injectedclock: the settle guard bounds a real blocking read on a live conn; virtual time cannot unblock it
	_ = c.conn.SetReadDeadline(time.Now().Add(settleTimeout))
	m, err := c.codec.Read()
	if err != nil {
		return m, fmt.Errorf("client %s: read: %w", c.name, err)
	}
	c.inbox = append(c.inbox, m)
	return m, nil
}

// readUntil reads (collecting into the inbox) until pred matches.
func (c *simClient) readUntil(pred func(chat.Message) bool) error {
	for {
		m, err := c.read()
		if err != nil {
			return err
		}
		if pred(m) {
			return nil
		}
	}
}

// drainAvailable consumes every message already delivered to this
// client's buffers without blocking for more. Sound only after the
// server has quiesced.
func (c *simClient) drainAvailable() error {
	for c.codec.Buffered() > 0 || c.conn.Pending() > 0 {
		if _, err := c.read(); err != nil {
			return err
		}
	}
	return nil
}

// runner executes one scenario.
type runner struct {
	sc  *Scenario
	dir string
	vc  *clock.Virtual

	listener *memnet.Listener
	server   *chat.Server
	sup      *core.Supervisor
	rec      *recorder
	mgr      *journal.Manager
	stores   journal.Stores

	clients    map[string]*simClient
	sentByUser map[string]int
	tr         *transcript
	recovery   *RecoveryStats
	recoveries []RecoveryStats

	// cluster is non-nil when the scenario runs on the multi-node
	// fabric; failovers collects every StepKillNode promotion and
	// leaseRaces every StepSkewRace acquisition attempt.
	cluster    *clusterRuntime
	failovers  []FailoverStats
	leaseRaces []LeaseRaceStats

	// curStep tags drained deliveries with the step that produced them.
	curStep    int
	deliveries []Delivery
	// pipeTotal accumulates the pipeline counters of server incarnations
	// already torn down by a crash; buildResult merges the final one in.
	pipeTotal pipeline.Stats

	// shedByRoom is fed by the chat server's OnShed seam; the mutex is
	// the runner's only concurrently-touched state (sheds happen on the
	// client reader goroutines).
	shedMu     sync.Mutex
	shedByRoom map[string]int
}

func (r *runner) copyShedByRoom() map[string]int {
	r.shedMu.Lock()
	defer r.shedMu.Unlock()
	out := make(map[string]int, len(r.shedByRoom))
	for room, n := range r.shedByRoom {
		out[room] = n
	}
	return out
}

// Run replays the scenario and returns its transcript and statistics.
// dir is the journal data directory (required when sc.Journal; a test
// passes t.TempDir()).
func Run(sc *Scenario, dir string) (*Result, error) {
	if sc.GateBursts && !sc.Async {
		return nil, fmt.Errorf("simulate %s: GateBursts requires Async", sc.Name)
	}
	if sc.Cluster != nil {
		if dir == "" {
			return nil, fmt.Errorf("simulate %s: Cluster requires a data dir", sc.Name)
		}
		// Cluster sessions are journaled by definition: failover is a
		// replay of the shipped WAL.
		sc.Journal = true
	}
	if sc.Journal && dir == "" {
		return nil, fmt.Errorf("simulate %s: Journal requires a data dir", sc.Name)
	}
	if sc.StepInterval <= 0 {
		sc.StepInterval = 2 * time.Second
	}
	r := &runner{
		sc:         sc,
		dir:        dir,
		vc:         clock.NewVirtual(simEpoch),
		clients:    make(map[string]*simClient),
		sentByUser: make(map[string]int),
		tr:         newTranscript(sc),
		shedByRoom: make(map[string]int),
	}
	if err := r.start(); err != nil {
		return nil, err
	}
	for i, st := range sc.Steps {
		if err := r.step(i, st); err != nil {
			return nil, fmt.Errorf("simulate %s step %d: %w", sc.Name, i+1, err)
		}
	}
	return r.finish()
}

// start builds the supervisor (over journaled stores when configured),
// the recorder, and a server listening on a fresh in-memory transport.
// It is called once at scenario start and again after a StepCrash.
func (r *runner) start() error {
	if r.sc.Cluster != nil {
		return r.startCluster()
	}
	cfg := core.Config{Now: r.vc.Now}
	if r.sc.Journal {
		stores, err := journal.LoadStores(r.dir)
		if err != nil {
			return fmt.Errorf("load stores: %w", err)
		}
		mgr, err := journal.Open(r.dir, stores, journal.Options{
			// Per-record sync makes the crash point exact: every
			// mutation the session applied is on disk, so recovery is a
			// deterministic function of the script.
			SyncEveryRecord:    true,
			CheckpointBytes:    -1,
			CheckpointInterval: -1,
			Clock:              r.vc,
		})
		if err != nil {
			return fmt.Errorf("open journal: %w", err)
		}
		r.stores, r.mgr = stores, mgr
		cfg.Ontology = stores.Ontology
		cfg.Corpus = stores.Corpus
		cfg.Profiles = stores.Profiles
		cfg.FAQ = stores.FAQ
	}
	sup, err := core.New(cfg)
	if err != nil {
		return fmt.Errorf("build supervisor: %w", err)
	}
	r.sup = sup
	if r.rec == nil {
		r.rec = newRecorder(sup)
	} else {
		r.rec.swap(sup)
	}
	workers := r.sc.Workers
	if workers <= 0 {
		workers = 2 // pinned: GOMAXPROCS would vary by machine
	}
	r.listener = memnet.NewListener()
	r.server = chat.NewServer(chat.ServerOptions{
		Supervisor:     r.rec,
		Async:          r.sc.Async,
		Workers:        workers,
		SuperviseQueue: r.sc.SuperviseQueue,
		SendQueue:      1024, // ample: a sim client must never be "stalled"
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
	r.server.Serve(r.listener)
	return nil
}

// settle blocks until the whole stack is idle, then drains every
// delivered message into the clients' inboxes.
func (r *runner) settle() error {
	if cr := r.cluster; cr != nil {
		// Cluster-wide barrier: every node's server idle AND every
		// gateway link parked with a current, live backend — observed in
		// one poll, so nothing is in flight across the relay hop either.
		if !clock.Until(settleTimeout, func() bool {
			return cr.fab.NodesIdle() && cr.gw.Idle()
		}) {
			return fmt.Errorf("cluster did not quiesce")
		}
	} else if !r.server.Quiesce(settleTimeout) {
		return fmt.Errorf("server did not quiesce")
	}
	for _, name := range r.clientNames() {
		c := r.clients[name]
		if !c.alive {
			continue
		}
		if err := c.drainAvailable(); err != nil {
			return err
		}
	}
	return nil
}

func (r *runner) clientNames() []string {
	names := make([]string, 0, len(r.clients))
	for name := range r.clients {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// flushInboxes renders every client's drained messages (clients in name
// order, each inbox in arrival order) into both the transcript and the
// structured delivery log, and clears them.
func (r *runner) flushInboxes() {
	for _, name := range r.clientNames() {
		c := r.clients[name]
		for _, m := range c.inbox {
			r.tr.message(c.name, m)
			r.deliveries = append(r.deliveries, Delivery{
				Step: r.curStep, Client: c.name, Type: m.Type,
				Room: m.Room, From: m.From, Agent: m.Agent, Text: m.Text,
			})
		}
		c.inbox = nil
	}
}

func (r *runner) step(i int, st Step) error {
	r.curStep = i
	if st.Kind == StepAdvance {
		r.vc.Advance(st.Advance)
		r.tr.step(i, fmt.Sprintf("advance clock by %s", st.Advance))
		return nil
	}
	r.vc.Advance(r.sc.StepInterval)
	var err error
	switch st.Kind {
	case StepJoin:
		r.tr.step(i, fmt.Sprintf("join %s -> #%s", st.User, st.Room))
		err = r.join(st)
	case StepSay:
		r.tr.step(i, fmt.Sprintf("say %s #%s %q", st.User, st.Room, st.Texts[0]))
		err = r.say(st)
	case StepBurst:
		r.tr.step(i, fmt.Sprintf("burst %s #%s x%d (rapid fire, no settling)", st.User, st.Room, len(st.Texts)))
		err = r.burst(st)
	case StepLeave:
		r.tr.step(i, fmt.Sprintf("leave %s #%s", st.User, st.Room))
		err = r.leave(st, false)
	case StepDrop:
		desc := "drop %s #%s (abrupt disconnect"
		if st.Partial {
			desc += ", torn frame on the wire"
		}
		r.tr.step(i, fmt.Sprintf(desc+")", st.User, st.Room))
		err = r.leave(st, true)
	case StepCrash:
		r.tr.step(i, "crash: process dies, journal unsealed; recover from WAL replay")
		err = r.crash()
	default:
		err = r.clusterStep(i, st)
	}
	if err != nil {
		return err
	}
	if err := r.settle(); err != nil {
		return err
	}
	r.flushInboxes()
	return nil
}

func (r *runner) join(st Step) error {
	conn, err := r.dialEdge()
	if err != nil {
		return err
	}
	c := &simClient{
		name:    st.User,
		room:    st.Room,
		persona: r.sc.Personas[st.User],
		conn:    conn.(*memnet.Conn),
		codec:   chat.NewCodec(conn),
		alive:   true,
	}
	r.clients[st.User] = c
	if err := c.codec.Write(chat.Message{Type: chat.TypeJoin, Room: st.Room, From: st.User}); err != nil {
		return err
	}
	if err := c.readUntil(func(m chat.Message) bool { return m.Type == chat.TypeWelcome }); err != nil {
		return err
	}
	// The join broadcast reaches the joiner too; seeing it proves the
	// fan-out (to everyone) is underway, which Quiesce then completes.
	return c.readUntil(func(m chat.Message) bool {
		return m.Type == chat.TypeSystem && m.Text == st.User+" joined the room"
	})
}

func (r *runner) say(st Step) error {
	c := r.clients[st.User]
	if c == nil || !c.alive {
		return fmt.Errorf("say from unknown or disconnected user %s", st.User)
	}
	r.rec.expect(st.User, st.Expect[0])
	r.sentByUser[st.User]++
	if err := c.codec.Write(chat.Message{Type: chat.TypeSay, Text: st.Texts[0]}); err != nil {
		return err
	}
	// Reading back the sender's own broadcast echo proves the say has
	// been handled (and, in async mode, submitted for supervision).
	return c.readUntil(func(m chat.Message) bool {
		return m.Type == chat.TypeChat && m.From == st.User && m.Text == st.Texts[0]
	})
}

func (r *runner) burst(st Step) error {
	c := r.clients[st.User]
	if c == nil || !c.alive {
		return fmt.Errorf("burst from unknown or disconnected user %s", st.User)
	}
	srv, err := r.roomServer(st.Room)
	if err != nil {
		return err
	}
	if r.sc.Async && !r.sc.GateBursts && r.sc.ShedPolicy == pipeline.ShedNone {
		return r.pacedBurst(c, srv, st)
	}
	var before pipeline.Stats
	if r.sc.GateBursts {
		before, _ = srv.SupervisionStats()
		r.rec.closeGate()
		defer r.rec.openGate()
	}
	for i, text := range st.Texts {
		r.rec.expect(st.User, st.Expect[i])
		r.sentByUser[st.User]++
		if err := c.codec.Write(chat.Message{Type: chat.TypeSay, Text: text}); err != nil {
			return err
		}
	}
	// All echoes back: every line has been broadcast and its supervision
	// submitted (or refused by admission control).
	echoes := 0
	err = c.readUntil(func(m chat.Message) bool {
		if m.Type == chat.TypeChat && m.From == st.User {
			echoes++
		}
		return echoes == len(st.Texts)
	})
	if err != nil {
		return err
	}
	if r.sc.GateBursts {
		// With the supervisor gated, shedding is decided purely by queue
		// depth. Wait for the admission ledger to account for every line
		// before releasing the gate, so accepted-vs-shed is exact.
		want := int64(len(st.Texts))
		ok := clock.Until(settleTimeout, func() bool {
			st, _ := srv.SupervisionStats()
			return (st.Submitted+st.ShedNew)-(before.Submitted+before.ShedNew) >= want
		})
		if !ok {
			return fmt.Errorf("burst accounting never settled")
		}
		r.rec.openGate()
	}
	return nil
}

// pacedBurst floods an async room under blocking backpressure with a
// schedule the run fixes, not the goroutine scheduler. The supervisor
// gate is held shut and the lines go out one at a time, each only after
// the previous one's Submit is resolved (queued, or blocked on the full
// shard) with the worker parked at the gate. A blocked line is let
// through by admitting exactly one supervision: its private response is
// queued to the sender before the worker frees the slot, so it lands
// ahead of the next line's echo. Left free-running, the order of a
// sender's echoes and its feedback depended on whether the room's
// worker or the client's reader ran first.
func (r *runner) pacedBurst(c *simClient, srv *chat.Server, st Step) error {
	before, _ := srv.SupervisionStats()
	r.rec.closeGate()
	defer r.rec.openGate()
	released := 0
	blocked := int64(0)
	for i, text := range st.Texts {
		r.rec.expect(st.User, st.Expect[i])
		r.sentByUser[st.User]++
		if err := c.codec.Write(chat.Message{Type: chat.TypeSay, Text: text}); err != nil {
			return err
		}
		if err := c.readUntil(func(m chat.Message) bool {
			return m.Type == chat.TypeChat && m.From == st.User && m.Text == text
		}); err != nil {
			return err
		}
		want := int64(i + 1)
		var cur pipeline.Stats
		if !clock.Until(settleTimeout, func() bool {
			cur, _ = srv.SupervisionStats()
			resolved := cur.Submitted-before.Submitted == want || cur.Blocked-before.Blocked > blocked
			return resolved && r.rec.gateArrivals() == released+1
		}) {
			return fmt.Errorf("burst line %d: submit never resolved", i+1)
		}
		if cur.Submitted-before.Submitted == want {
			continue
		}
		// Backpressure: the reader is blocked on the full shard.
		blocked++
		if err := r.rec.admitOne(settleTimeout); err != nil {
			return err
		}
		released++
		if !clock.Until(settleTimeout, func() bool {
			cur, _ := srv.SupervisionStats()
			return cur.Submitted-before.Submitted == want && r.rec.gateArrivals() == released+1
		}) {
			return fmt.Errorf("burst line %d: backpressure never released", i+1)
		}
	}
	return nil
}

// leave disconnects st.User — politely (protocol leave) or abruptly
// (drop, optionally leaving a torn frame on the wire).
func (r *runner) leave(st Step, drop bool) error {
	c := r.clients[st.User]
	if c == nil || !c.alive {
		return fmt.Errorf("leave of unknown or disconnected user %s", st.User)
	}
	var witness *simClient
	for _, name := range r.clientNames() {
		other := r.clients[name]
		if other.alive && other.name != st.User && other.room == st.Room {
			witness = other
			break
		}
	}
	if drop {
		if st.Partial {
			// A torn frame: the client died mid-message.
			if _, err := c.conn.Write([]byte(`{"type":"say","text":"i was about to sa`)); err != nil {
				return err
			}
		}
		_ = c.conn.Close()
	} else {
		if err := c.codec.Write(chat.Message{Type: chat.TypeLeave}); err != nil {
			return err
		}
	}
	c.alive = false
	if witness != nil {
		return witness.readUntil(func(m chat.Message) bool {
			return m.Type == chat.TypeSystem && m.Text == st.User+" left the room"
		})
	}
	// Last member out: nothing observable remains, the membership table
	// is the only signal.
	srv, err := r.roomServer(st.Room)
	if err != nil {
		return err
	}
	if !clock.Until(settleTimeout, func() bool {
		for _, name := range srv.Members(st.Room) {
			if name == st.User {
				return false
			}
		}
		return true
	}) {
		return fmt.Errorf("departure of %s never observed", st.User)
	}
	return nil
}

// crash kills the session the hard way — journal left unsealed, every
// connection cut — then rebuilds the supervisor from WAL replay and
// restarts the server. The recorder (and its session-wide verdict log)
// survives; the knowledge stores must come back via recovery.
func (r *runner) crash() error {
	if r.cluster != nil {
		return fmt.Errorf("StepCrash is not supported in cluster mode (use StepKillNode)")
	}
	if r.mgr == nil {
		return fmt.Errorf("StepCrash requires Scenario.Journal")
	}
	if err := r.settle(); err != nil {
		return err
	}
	preCorpus := r.stores.Corpus.Len()
	preFAQ := r.stores.FAQ.Len()
	preJournal := r.mgr.Stats()
	_ = r.server.Close()
	if pst, ok := r.server.SupervisionStats(); ok {
		// This incarnation's pipeline dies with the crash; bank its
		// counters so the session-wide totals survive.
		r.pipeTotal = r.pipeTotal.Merge(pst)
	}
	r.mgr.Abandon()
	for _, name := range r.clientNames() {
		c := r.clients[name]
		if c.alive {
			c.alive = false
			_ = c.conn.Close()
			r.tr.note(fmt.Sprintf("%s: connection lost in crash", c.name))
		}
	}
	r.mgr = nil
	if err := r.start(); err != nil {
		return err
	}
	rs := r.mgr.Stats().Replay
	r.recovery = &RecoveryStats{
		ReplayedRecords:   rs.Applied,
		CorpusBefore:      preCorpus,
		CorpusAfter:       r.stores.Corpus.Len(),
		FAQBefore:         preFAQ,
		FAQAfter:          r.stores.FAQ.Len(),
		PreCrashLSN:       preJournal.LastLSN,
		PreCrashSyncedLSN: preJournal.SyncedLSN,
		ReplayLastLSN:     rs.LastLSN,
		ReplayErrors:      rs.Errors,
	}
	r.recoveries = append(r.recoveries, *r.recovery)
	r.tr.note(fmt.Sprintf("recovery: replayed %d WAL records; corpus %d -> %d, faq %d -> %d",
		rs.Applied, preCorpus, r.recovery.CorpusAfter, preFAQ, r.recovery.FAQAfter))
	return nil
}

// finish tears the session down and assembles the result.
func (r *runner) finish() (*Result, error) {
	if err := r.settle(); err != nil {
		return nil, err
	}
	r.curStep = len(r.sc.Steps)
	r.flushInboxes()
	var pst pipeline.Stats
	var hasPipe bool
	var jstats *journal.Stats
	if cr := r.cluster; cr != nil {
		for _, n := range cr.live() {
			if st, ok := n.server.SupervisionStats(); ok {
				pst = pst.Merge(st)
				hasPipe = true
			}
		}
	} else {
		pst, hasPipe = r.server.SupervisionStats()
		if r.mgr != nil {
			st := r.mgr.Stats()
			jstats = &st
		}
	}
	res := buildResult(r, pst, hasPipe, jstats)
	r.tr.summary(res)
	res.Transcript = r.tr.bytes()

	if cr := r.cluster; cr != nil {
		if err := cr.gw.Close(); err != nil {
			return nil, fmt.Errorf("gateway close: %w", err)
		}
		if err := cr.fab.Close(); err != nil {
			return nil, fmt.Errorf("fabric close: %w", err)
		}
		if errs := cr.fab.ShipErrors(); len(errs) > 0 {
			return nil, fmt.Errorf("wal shipping: %w", errs[0])
		}
		return res, nil
	}
	if err := r.server.Close(); err != nil {
		return nil, fmt.Errorf("server close: %w", err)
	}
	if r.mgr != nil {
		if err := r.mgr.Close(); err != nil {
			return nil, fmt.Errorf("journal close: %w", err)
		}
	}
	return res, nil
}
