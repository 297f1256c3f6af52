package chat

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"semagent/internal/clock"
	"semagent/internal/metrics"
	"semagent/internal/pipeline"
)

// ServerOptions configures a chat server.
type ServerOptions struct {
	// Supervisor observes messages; nil runs an unsupervised room
	// (the OFF arm of experiment E6).
	Supervisor Supervisor
	// Async delivers supervisor responses off the broadcast path,
	// through a worker pool sharded by room (design decision D5 +
	// package pipeline). Inline runs supervision before the broadcast
	// returns; async minimizes broadcast latency while the sharding
	// still preserves per-room response order.
	Async bool
	// Workers sizes the async supervision pool (shards). 0 selects
	// runtime.GOMAXPROCS. Ignored unless Async with a Supervisor.
	Workers int
	// SuperviseQueue is each supervision shard's queue capacity
	// (default 256). A full shard blocks the flooding client's reader
	// — backpressure — rather than dropping supervision.
	SuperviseQueue int
	// BatchSupervise coalesces a room's queued messages into one
	// supervision task: the first message of a burst schedules a batch
	// task, later messages arriving before it runs piggyback on it, and
	// the task drains the room's pending buffer through the
	// supervisor's ProcessBatch — one snapshot pin and dictionary
	// warm-up per burst instead of per message. Requires Async and a
	// Supervisor implementing BatchSupervisor; ignored (per-message
	// tasks) otherwise. Response semantics, per-room ordering and
	// Quiesce are unchanged; under admission control a shed batch task
	// sheds the messages it covered.
	BatchSupervise bool
	// Logger receives operational messages; nil discards them.
	Logger *log.Logger
	// SendQueue is the per-client outgoing buffer, in frames (default
	// 256). When a slow client's queue fills, the client is dropped (a
	// supervised classroom must not let one stalled socket block the
	// room). The default leaves room for a healthy client's traffic in
	// flight: a learner keeping 34 lines unacknowledged (two windows of
	// the classroom benchmark) draws an echo and one to three agent
	// responses for each, plus a roommate's echoes. At 64 frames such a
	// burst overflowed whenever the connection's writer fell a few
	// milliseconds behind, and a healthy client was dropped as stalled.
	SendQueue int
	// HistorySize keeps the last N chat messages per room and replays
	// them to joining clients, so late learners see the recent
	// discussion (and its agent feedback). 0 disables replay.
	HistorySize int

	// DisableBinaryWire makes the server ignore binary-framing requests
	// in joins: every connection stays on newline-JSON. Clients follow
	// the welcome's echo, so a DialWire(WireBinary) client against this
	// server simply keeps talking text (the -wire text operator switch).
	DisableBinaryWire bool

	// ShedPolicy enables supervision admission control (DESIGN.md D10):
	// instead of a full supervision queue back-pressuring the room,
	// excess messages are still broadcast but their supervision is shed
	// deterministically. Requires Async with a Supervisor.
	ShedPolicy pipeline.ShedPolicy
	// RoomHighWater / GlobalHighWater are the admission watermarks
	// (pipeline.Config). Ignored when ShedPolicy is ShedNone.
	RoomHighWater, GlobalHighWater int
	// OnShed, if set, observes every supervision task admission control
	// drops, with the room it belonged to — the per-room attribution the
	// chaos simulator's shed-exactness checker needs (metrics only keep
	// a global counter). Called outside all server and pipeline locks.
	OnShed func(room string)

	// Metrics, if set, registers the chat layer's counters and latency
	// histograms (semagent_chat_*) and the supervision pipeline's
	// (semagent_pipeline_*).
	Metrics *metrics.Registry

	// Clock stamps protocol messages (welcome, chat, system, agent).
	// Nil selects the wall clock; the scenario simulator (package
	// simulate, DESIGN.md D11) injects a virtual clock so the same seed
	// always yields the same timestamps.
	Clock clock.Clock
}

// Server is the chat room service.
type Server struct {
	opts     ServerOptions
	clk      clock.Clock
	listener net.Listener
	// pipe fans async supervision out by room; nil in inline/off modes.
	pipe *pipeline.Pipeline
	// batcher is the supervisor's batch interface when BatchSupervise
	// coalescing is active; nil runs per-message supervision tasks.
	batcher BatchSupervisor
	met     *chatMetrics

	mu      sync.Mutex
	rooms   map[string]*room
	clients map[*client]struct{}
	closed  bool

	// activeSays and activeBroadcasts count handleSay calls and
	// broadcast fan-outs in flight; together with the per-client pending
	// counters they let Quiesce prove the server has gone idle — the
	// determinism barrier the scenario simulator settles on between
	// scripted events.
	activeSays       atomic.Int64
	activeBroadcasts atomic.Int64

	wg sync.WaitGroup
}

// chatMetrics are the chat layer's hot-path instruments (nil when the
// server runs unobserved).
type chatMetrics struct {
	messages, agentMsgs, shed, droppedClients *metrics.Counter
	broadcastDur                              *metrics.Histogram
	fanout                                    *metrics.Counter
}

func newChatMetrics(r *metrics.Registry) *chatMetrics {
	if r == nil {
		return nil
	}
	return &chatMetrics{
		messages:       r.Counter("semagent_chat_messages_total", "chat lines received from clients"),
		agentMsgs:      r.Counter("semagent_chat_agent_messages_total", "supervision responses delivered"),
		shed:           r.Counter("semagent_chat_supervision_shed_total", "messages broadcast without supervision (admission control)"),
		droppedClients: r.Counter("semagent_chat_dropped_clients_total", "stalled clients disconnected"),
		broadcastDur:   r.DurationHistogram("semagent_chat_broadcast_seconds", "room broadcast fan-out latency"),
		fanout:         r.Counter("semagent_chat_fanout_total", "per-recipient message deliveries"),
	}
}

type room struct {
	name    string
	members map[string]*client
	// history is a bounded ring of recent broadcast messages.
	history []Message
	// sayMu serializes broadcast+submit per room in async mode, so the
	// supervision pipeline sees messages in the order the room did —
	// even when they come from different clients' reader goroutines.
	sayMu sync.Mutex

	// Batch coalescing state (BatchSupervise mode), guarded by batchMu
	// — a separate, innermost lock so the batch worker draining pending
	// never contends with a submitter blocked on queue space under
	// sayMu. Invariant: batchScheduled ⇒ a task is queued, running, or
	// mid-Submit that will drain pendingBatch (a shed clears both).
	batchMu        sync.Mutex
	pendingBatch   []batchItem
	batchScheduled bool
}

// batchItem is one coalesced chat line awaiting batch supervision; the
// client is kept so private responses reach the speaker.
type batchItem struct {
	c    *client
	user string
	text string
}

// outMsg is one queued delivery: the Message, plus the shared
// pre-encoded frame when it came from a broadcast fan-out. The writer
// prefers the frame's bytes for its wire format and releases its
// reference after the write attempt.
type outMsg struct {
	m Message
	f *frame
}

type client struct {
	name string
	room string
	// wire is the negotiated framing, fixed at join ("" = text). The
	// codec itself switches only after the welcome is written; queue
	// order guarantees everything enqueued after the join is written
	// after that switch.
	wire Wire
	// resume marks a reconnecting join (Message.Resume): the client has
	// already seen the room, so no history replay.
	resume bool
	conn   net.Conn
	codec  *Codec
	out    chan outMsg
	done   chan struct{}
	// dropped latches the stalled-client disconnect so the counter and
	// log fire once per client, not once per undeliverable message.
	dropped atomic.Bool
	// pending counts messages enqueued but not yet written to the
	// connection; writerGone marks the writer goroutine's exit (after
	// which pending can never drain). Both feed Quiesce.
	pending    atomic.Int64
	writerGone atomic.Bool
}

// NewServer returns an unstarted server.
func NewServer(opts ServerOptions) *Server {
	if opts.SendQueue <= 0 {
		opts.SendQueue = 256
	}
	s := &Server{
		opts:    opts,
		clk:     clock.Or(opts.Clock),
		rooms:   make(map[string]*room),
		clients: make(map[*client]struct{}),
		met:     newChatMetrics(opts.Metrics),
	}
	if opts.Async && opts.Supervisor != nil {
		if opts.BatchSupervise {
			// Coalescing needs the batch entry point; a supervisor
			// without one keeps per-message tasks.
			s.batcher, _ = opts.Supervisor.(BatchSupervisor)
		}
		cfg := pipeline.Config{
			Workers:   opts.Workers,
			QueueSize: opts.SuperviseQueue,
			// Without admission control a full shard blocks the
			// submitting room (backpressure); with it, Submit sheds
			// instead and the chat layer counts what went unsupervised.
			Block:           true,
			Policy:          opts.ShedPolicy,
			RoomHighWater:   opts.RoomHighWater,
			GlobalHighWater: opts.GlobalHighWater,
			Metrics:         opts.Metrics,
			// The supervision pipeline shares the server's clock, so a
			// simulated server's task-latency accounting runs on the
			// simulation's virtual time.
			Clock: s.clk,
		}
		if s.batcher != nil {
			// One wakeup can drain several rooms' batch tasks sharing a
			// shard — the same amortization, one level down.
			cfg.BatchDrain = 8
		}
		if s.met != nil || opts.OnShed != nil || s.batcher != nil {
			// OnShed sees every dropped supervision — rejected new
			// tasks and oldest-drop evictions alike; counting Submit
			// errors instead would miss the evictions entirely.
			cfg.OnShed = func(room string) {
				if s.batcher != nil {
					// The shed task was a batch drainer: clear the room's
					// coalescing state so the messages it covered are
					// dropped and the next say schedules a fresh task
					// (otherwise batchScheduled would latch true forever).
					s.clearBatch(room)
				}
				if s.met != nil {
					s.met.shed.Inc()
				}
				if opts.OnShed != nil {
					opts.OnShed(room)
				}
			}
		}
		s.pipe = pipeline.New(cfg)
	}
	if opts.Metrics != nil {
		opts.Metrics.GaugeFunc("semagent_chat_connections", "connected clients", func() int64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return int64(len(s.clients))
		})
		opts.Metrics.GaugeFunc("semagent_chat_rooms", "active rooms", func() int64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return int64(len(s.rooms))
		})
	}
	return s
}

// SupervisionStats reports the async supervision pipeline counters and
// whether a pipeline is running (false in inline/off modes).
func (s *Server) SupervisionStats() (pipeline.Stats, bool) {
	if s.pipe == nil {
		return pipeline.Stats{}, false
	}
	return s.pipe.Stats(), true
}

// Listen starts accepting on addr ("127.0.0.1:0" for tests) and returns
// the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("chat listen: %w", err)
	}
	s.Serve(l)
	return l.Addr(), nil
}

// Serve starts accepting connections from an injected listener — the
// transport seam: production passes a TCP listener (Listen does), the
// scenario simulator passes an in-memory memnet.Listener so whole
// classrooms connect without a socket. Close closes the listener.
func (s *Server) Serve(l net.Listener) {
	s.listener = l
	s.wg.Add(1)
	go s.acceptLoop(l)
}

// Quiesce blocks until the server is idle — no chat line mid-handling,
// no broadcast mid-fan-out, no supervision task queued or running, and
// every enqueued message written to its connection (clients whose
// writer died are exempt: their queues can never drain) — or until the
// real-time timeout expires, reporting whether idleness was reached.
//
// Quiesce only proves the absence of in-flight work the server has
// already accepted; a caller that just wrote a message to a connection
// must first observe its effect (e.g. read back its own broadcast echo)
// before Quiesce can vouch for the consequences. The scenario simulator
// uses exactly that two-step barrier between scripted events.
func (s *Server) Quiesce(timeout time.Duration) bool {
	return clock.Until(timeout, s.Idle)
}

// Idle is Quiesce's instantaneous predicate: true when no work the
// server has accepted is still in flight. Exported so composite
// barriers (the cluster fabric's multi-node quiesce) can AND it with
// their own idleness conditions inside one clock.Until poll.
func (s *Server) Idle() bool {
	if s.activeSays.Load() != 0 || s.activeBroadcasts.Load() != 0 {
		return false
	}
	// Pipeline pending is checked after activeSays: a say still in
	// flight may be about to submit. Task completion enqueues the
	// agent responses before the pipeline counts the task done, so
	// Pending()==0 implies the responses are in the client queues,
	// where the pending counters below see them.
	if s.pipe != nil {
		if st := s.pipe.Stats(); st.Pending() != 0 {
			return false
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.clients {
		if c.writerGone.Load() {
			continue
		}
		if c.pending.Load() != 0 {
			return false
		}
	}
	return true
}

func (s *Server) acceptLoop(l net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

// Close stops the listener, disconnects all clients and waits for every
// goroutine to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	var conns []net.Conn
	for c := range s.clients {
		conns = append(conns, c.conn)
	}
	s.mu.Unlock()

	var err error
	if s.listener != nil {
		err = s.listener.Close()
	}
	for _, conn := range conns {
		_ = conn.Close()
	}
	s.wg.Wait()
	if s.pipe != nil {
		// Readers are gone; run queued supervision to completion so
		// recording (corpus, profiles, FAQ) is not lost on shutdown.
		s.pipe.Close()
	}
	return err
}

// RoomNames returns the names of active rooms.
func (s *Server) RoomNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.rooms))
	for name := range s.rooms {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Members returns the user names present in a room.
func (s *Server) Members(roomName string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.rooms[roomName]
	if r == nil {
		return nil
	}
	out := make([]string, 0, len(r.members))
	for name := range r.members {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.opts.Logger != nil {
		s.opts.Logger.Printf(format, args...)
	}
}

func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	codec := NewCodec(conn)

	// The first message must be a join.
	first, err := codec.Read()
	if err != nil {
		return
	}
	if first.Type != TypeJoin || first.From == "" || first.Room == "" {
		_ = codec.Write(Message{Type: TypeError, Text: "first message must be a join with room and from"})
		return
	}

	c := &client{
		name:   first.From,
		room:   first.Room,
		resume: first.Resume,
		conn:   conn,
		codec:  codec,
		// The queue must absorb the join-time burst — welcome plus a
		// full history replay, enqueued before the writer goroutine
		// starts — on top of the configured live-traffic slack.
		out:  make(chan outMsg, s.opts.SendQueue+s.opts.HistorySize+1),
		done: make(chan struct{}),
	}
	if first.Wire == WireBinary && !s.opts.DisableBinaryWire {
		c.wire = WireBinary
	}
	if err := s.join(c); err != nil {
		_ = codec.Write(Message{Type: TypeError, Text: err.Error()})
		return
	}
	// The join is accepted: everything the client sends from here on is
	// in its negotiated framing (it switches on receiving the welcome,
	// and sends nothing between join and welcome).
	codec.SetReadWire(c.wire)

	// Writer goroutine: the only writer to the codec after join.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer c.writerGone.Store(true)
		for {
			select {
			case om, ok := <-c.out:
				if !ok {
					return
				}
				var err error
				if b := om.frameBytes(c.wire); b != nil {
					err = c.codec.WriteRaw(b)
				} else {
					err = c.codec.Write(om.m)
				}
				if om.f != nil {
					om.f.release()
				}
				c.pending.Add(-1)
				if err != nil {
					_ = c.conn.Close()
					return
				}
				if om.m.Type == TypeWelcome && c.wire == WireBinary {
					// The welcome (sent as text) acknowledged the binary
					// negotiation; every later write is a binary frame.
					c.codec.SetWriteWire(WireBinary)
				}
			case <-c.done:
				return
			}
		}
	}()

	s.broadcast(c.room, Message{
		Type: TypeSystem, Room: c.room,
		Text: c.name + " joined the room", Time: s.clk.Now(),
	}, nil)
	s.logf("chat: %s joined %s", c.name, c.room)

	for {
		m, err := codec.Read()
		if err != nil {
			if errors.Is(err, ErrTooLarge) {
				// Best-effort notice, then drop: the codec refused to
				// buffer the oversized unit, so the stream position is
				// unrecoverable.
				s.enqueue(c, Message{Type: TypeError, Text: err.Error()})
			}
			break
		}
		switch m.Type {
		case TypeSay:
			s.handleSay(c, m.Text)
		case TypeLeave:
			err = errors.New("left")
		case TypeJoin:
			s.enqueue(c, Message{Type: TypeError, Text: "already joined"})
		default:
			s.enqueue(c, Message{Type: TypeError, Text: "unknown message type " + string(m.Type)})
		}
		if err != nil {
			break
		}
	}

	s.leave(c)
	close(c.done)
	s.broadcast(c.room, Message{
		Type: TypeSystem, Room: c.room,
		Text: c.name + " left the room", Time: s.clk.Now(),
	}, nil)
	s.logf("chat: %s left %s", c.name, c.room)
}

// handleSay broadcasts a chat line and runs supervision.
func (s *Server) handleSay(c *client, text string) {
	s.activeSays.Add(1)
	defer s.activeSays.Add(-1)
	text = strings.TrimSpace(text)
	if text == "" {
		return
	}
	if s.met != nil {
		s.met.messages.Inc()
	}
	now := s.clk.Now()
	chatMsg := Message{
		Type: TypeChat, Room: c.room, From: c.name, Text: text, Time: now,
	}
	if s.opts.Supervisor == nil {
		s.broadcast(c.room, chatMsg, nil)
		return
	}
	deliver := func() {
		for _, resp := range s.opts.Supervisor.Process(c.room, c.name, text) {
			msg := Message{
				Type: TypeAgent, Room: c.room, Agent: resp.Agent,
				Text: resp.Text, Time: s.clk.Now(), Private: resp.Private,
			}
			if s.met != nil {
				s.met.agentMsgs.Inc()
			}
			if resp.Private {
				s.enqueue(c, msg)
			} else {
				s.broadcast(c.room, msg, nil)
			}
		}
	}
	if s.pipe != nil {
		// Sharded by room: per-room response order is preserved, rooms
		// run in parallel, and a full shard queue back-pressures this
		// room's senders instead of spawning unbounded goroutines. The
		// room's sayMu makes broadcast order == submission order across
		// clients; backpressure therefore stalls only this room. With
		// admission control the Submit never blocks: at a watermark the
		// message is still broadcast but its supervision is shed (and
		// counted) — overload degrades coverage, not chat latency.
		s.mu.Lock()
		r := s.rooms[c.room]
		s.mu.Unlock()
		if r == nil {
			return // client raced a leave; nothing to supervise
		}
		r.sayMu.Lock()
		s.broadcast(c.room, chatMsg, nil)
		if s.batcher != nil {
			s.submitBatch(r, c, text)
		} else {
			// Shed returns (ErrShed) are counted by the pipeline's OnShed
			// hook; ErrClosed (shutdown) is the only other outcome.
			//semalint:allow shedhandled: sheds are counted by the OnShed hook above; ErrClosed only means shutdown
			_ = s.pipe.Submit(c.room, deliver)
		}
		r.sayMu.Unlock()
		return
	}
	s.broadcast(c.room, chatMsg, nil)
	deliver()
}

// submitBatch coalesces one message into the room's pending batch and
// schedules the drain task when none is in flight. Callers hold the
// room's sayMu, so pending order is broadcast order and at most one
// goroutine per room is in the schedule/rollback path at a time.
func (s *Server) submitBatch(r *room, c *client, text string) {
	r.batchMu.Lock()
	r.pendingBatch = append(r.pendingBatch, batchItem{c: c, user: c.name, text: text})
	schedule := !r.batchScheduled
	if schedule {
		r.batchScheduled = true
	}
	r.batchMu.Unlock()
	if !schedule {
		return // piggybacks on the task already in flight
	}
	if err := s.pipe.Submit(r.name, func() { s.superviseBatch(r) }); err != nil {
		// Shed (OnShed already cleared the room's state) or shutdown:
		// drop the burst so the next say schedules a fresh task.
		s.clearBatch(r.name)
	}
}

// superviseBatch is the coalesced drain task: it empties the room's
// pending buffer through the supervisor's batch entry point, looping so
// messages that arrived while a batch was mid-supervision are drained
// by this task instead of scheduling another. It clears batchScheduled
// only on seeing an empty buffer, under the same lock appends take —
// so every coalesced message is covered by some task until supervised
// or deliberately shed.
func (s *Server) superviseBatch(r *room) {
	var items []batchItem
	for {
		r.batchMu.Lock()
		if len(r.pendingBatch) == 0 {
			r.batchScheduled = false
			r.batchMu.Unlock()
			return
		}
		items = append(items[:0], r.pendingBatch...)
		r.pendingBatch = r.pendingBatch[:0]
		r.batchMu.Unlock()

		users := make([]string, len(items))
		texts := make([]string, len(items))
		for i, it := range items {
			users[i], texts[i] = it.user, it.text
		}
		for i, resps := range s.batcher.ProcessBatch(r.name, users, texts) {
			for _, resp := range resps {
				msg := Message{
					Type: TypeAgent, Room: r.name, Agent: resp.Agent,
					Text: resp.Text, Time: s.clk.Now(), Private: resp.Private,
				}
				if s.met != nil {
					s.met.agentMsgs.Inc()
				}
				if resp.Private {
					s.enqueue(items[i].c, msg)
				} else {
					s.broadcast(r.name, msg, nil)
				}
			}
		}
	}
}

// clearBatch drops a room's coalescing state after its drain task was
// shed or refused: the covered messages lose their supervision (that is
// what shedding means) and the next say schedules afresh.
func (s *Server) clearBatch(roomName string) {
	s.mu.Lock()
	r := s.rooms[roomName]
	s.mu.Unlock()
	if r == nil {
		return
	}
	r.batchMu.Lock()
	r.pendingBatch = r.pendingBatch[:0]
	r.batchScheduled = false
	r.batchMu.Unlock()
}

// join registers the client and queues its welcome plus the room's
// history replay in the same critical section that makes the client a
// broadcast recipient. Broadcasters also hold s.mu, so every room
// message either predates the join (it is in the replayed history, and
// only there) or follows it (it is queued live, after the replay) —
// a late joiner sees each message exactly once, welcome first.
func (s *Server) join(c *client) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("server shutting down")
	}
	r := s.rooms[c.room]
	if r == nil {
		r = &room{name: c.room, members: make(map[string]*client)}
		s.rooms[c.room] = r
	}
	if _, taken := r.members[c.name]; taken {
		return fmt.Errorf("name %q already in use in room %q", c.name, c.room)
	}
	r.members[c.name] = c
	s.clients[c] = struct{}{}
	// Wire echoes the client's negotiated framing ("" for text keeps the
	// welcome JSON byte-identical to the pre-negotiation protocol).
	s.enqueue(c, Message{Type: TypeWelcome, Room: c.room, Text: "welcome, " + c.name, Time: s.clk.Now(), Wire: c.wire})
	if !c.resume {
		for _, m := range r.history {
			s.enqueue(c, m)
		}
	}
	return nil
}

func (s *Server) leave(c *client) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := s.rooms[c.room]; r != nil {
		if r.members[c.name] == c {
			delete(r.members, c.name)
		}
		if len(r.members) == 0 {
			delete(s.rooms, c.room)
		}
	}
	delete(s.clients, c)
}

// broadcast sends to every room member except skip (may be nil) and
// records chat/agent traffic in the room history.
func (s *Server) broadcast(roomName string, m Message, skip *client) {
	s.activeBroadcasts.Add(1)
	defer s.activeBroadcasts.Add(-1)
	var start time.Time
	if s.met != nil {
		start = s.clk.Now()
	}
	s.mu.Lock()
	r := s.rooms[roomName]
	var members []*client
	if r != nil {
		members = make([]*client, 0, len(r.members))
		for _, c := range r.members {
			if c != skip {
				members = append(members, c)
			}
		}
		if s.opts.HistorySize > 0 && (m.Type == TypeChat || m.Type == TypeAgent) {
			r.history = append(r.history, m)
			if len(r.history) > s.opts.HistorySize {
				r.history = r.history[len(r.history)-s.opts.HistorySize:]
			}
		}
	}
	s.mu.Unlock()
	if len(members) > 0 {
		// Encode once per wire format present among the recipients and
		// share the bytes; each recipient's writer releases one reference.
		needText, needBinary := false, false
		for _, c := range members {
			if c.wire == WireBinary {
				needBinary = true
			} else {
				needText = true
			}
		}
		f := newFrame(m, needText, needBinary, len(members))
		for _, c := range members {
			s.send(c, outMsg{m: m, f: f})
		}
	}
	if s.met != nil {
		s.met.fanout.Add(int64(len(members)))
		s.met.broadcastDur.ObserveDuration(s.clk.Since(start))
	}
}

func (om outMsg) frameBytes(w Wire) []byte {
	if om.f == nil {
		return nil
	}
	return om.f.bytesFor(w)
}

// enqueue delivers without blocking; a stalled client is disconnected.
// The pending counter is raised before the send attempt and rolled back
// on the non-delivery paths, so it can overcount a written message for
// an instant but never undercount an outstanding one — the direction
// Quiesce's soundness needs.
func (s *Server) enqueue(c *client, m Message) {
	s.send(c, outMsg{m: m})
}

func (s *Server) send(c *client, om outMsg) {
	c.pending.Add(1)
	select {
	case c.out <- om:
	case <-c.done:
		c.pending.Add(-1)
		if om.f != nil {
			om.f.release()
		}
	default:
		c.pending.Add(-1)
		if om.f != nil {
			om.f.release()
		}
		if c.dropped.CompareAndSwap(false, true) {
			if s.met != nil {
				s.met.droppedClients.Inc()
			}
			s.logf("chat: dropping stalled client %s in %s", c.name, c.room)
		}
		_ = c.conn.Close()
	}
}
