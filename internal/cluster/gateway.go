package cluster

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"semagent/internal/chat"
	"semagent/internal/clock"
)

// linkTimeout bounds the real time a relink (initial route or
// failover reconnect) may spend retrying. Like the simulator's settle
// timeout it exists only to turn a genuine bug into a clean failure.
const linkTimeout = 30 * time.Second

// readableWaiter is the optional transport extension the gateway's
// relay pumps use to park between messages without consuming bytes
// (memnet.Conn implements it). On transports without it (TCP) the
// pumps block inside Read instead; Idle is then advisory, which is
// fine — the settle barrier only runs under memnet.
type readableWaiter interface {
	WaitReadable()
	Closed() bool
}

// Gateway owns the client edge of the fabric: it accepts client
// connections on any net.Listener, routes each join to the room's
// owner node over the binary wire protocol, and relays in both
// directions. When an owner dies the client-side connection stays up;
// the link re-resolves the room (retrying until Failover promotes the
// standby) and rejoins with Message.Resume so the recovered owner
// skips the history replay — the client never sees a duplicate
// (DESIGN.md D15).
type Gateway struct {
	fab *Fabric
	clk clock.Clock

	mu       sync.Mutex
	links    map[*link]struct{}
	closed   bool
	listener net.Listener
	wg       sync.WaitGroup
}

// link is one client's relay: a client-side connection and the
// current backend connection to the room's owner, plus the state the
// idle barrier reads. gen increments on every relink; writers that
// hit a dead backend wait for a gen change and resend.
type link struct {
	room, user string
	clientWire chat.Wire

	clientConn  net.Conn
	clientCodec *chat.Codec

	mu        sync.Mutex // guards the backend fields and serializes backend writes
	backConn  net.Conn
	backCodec *chat.Codec
	epoch     uint64 // ownership epoch this link last routed with
	gen       uint64

	closed atomic.Bool // client is gone; no more relinks
	busy   atomic.Int64

	// clientBuffered and backBuffered publish how many bytes each
	// codec's reader holds after its owning goroutine's last read, so
	// Idle sees them without touching a codec that a pump is reading.
	clientBuffered, backBuffered atomic.Int64
}

// NewGateway returns a gateway routing through the given fabric.
func NewGateway(fab *Fabric, clk clock.Clock) *Gateway {
	return &Gateway{fab: fab, clk: clock.Or(clk), links: make(map[*link]struct{})}
}

// Serve accepts client connections from l until the gateway closes.
func (g *Gateway) Serve(l net.Listener) {
	g.mu.Lock()
	g.listener = l
	g.mu.Unlock()
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			g.mu.Lock()
			if g.closed {
				g.mu.Unlock()
				_ = conn.Close()
				return
			}
			g.mu.Unlock()
			g.wg.Add(1)
			go g.handleClient(conn)
		}
	}()
}

// Close stops accepting, severs every link and waits for the pumps.
func (g *Gateway) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	l := g.listener
	links := make([]*link, 0, len(g.links))
	for lk := range g.links {
		links = append(links, lk)
	}
	g.mu.Unlock()
	var err error
	if l != nil {
		err = l.Close()
	}
	for _, lk := range links {
		lk.closed.Store(true)
		_ = lk.clientConn.Close()
		lk.mu.Lock()
		if lk.backConn != nil {
			_ = lk.backConn.Close()
		}
		lk.mu.Unlock()
	}
	g.wg.Wait()
	return err
}

// CutNode severs every link's backend connection to the given
// incarnation without touching the client side — a network partition
// between gateway and node. Each cut link reconnects (Resume join)
// through the normal failover path; since the node is still alive it
// reattaches to the same owner. Returns how many links were cut.
func (g *Gateway) CutNode(id NodeID) int {
	g.mu.Lock()
	links := make([]*link, 0, len(g.links))
	for lk := range g.links {
		links = append(links, lk)
	}
	g.mu.Unlock()
	cut := 0
	for _, lk := range links {
		lk.mu.Lock()
		if o, ok := g.fab.Owners().Lookup(lk.room); ok && o.Node == id && lk.backConn != nil {
			_ = lk.backConn.Close()
			cut++
		}
		lk.mu.Unlock()
	}
	return cut
}

// CutRoom severs every link routed to the given room, regardless of
// which node serves it. After an ownership-map epoch change that moved
// no state (a clock-skew lease race and hand-back), the links' routed
// epoch is stale and Idle would report a reconnect owed forever — the
// cut forces the relink that refreshes it. Returns how many links were
// cut.
func (g *Gateway) CutRoom(room string) int {
	g.mu.Lock()
	links := make([]*link, 0, len(g.links))
	for lk := range g.links {
		links = append(links, lk)
	}
	g.mu.Unlock()
	cut := 0
	for _, lk := range links {
		lk.mu.Lock()
		if lk.room == room && lk.backConn != nil {
			_ = lk.backConn.Close()
			cut++
		}
		lk.mu.Unlock()
	}
	return cut
}

// Links reports the number of live client links.
func (g *Gateway) Links() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.links)
}

// Idle reports whether every link is parked with nothing in flight:
// no pump mid-message, no bytes waiting on either side, and the
// backend both current (routing epoch matches the ownership map) and
// alive (a severed backend means a reconnect is owed, even if the
// pump has not scheduled it yet). ANDed with Fabric.NodesIdle under
// one clock.Until poll, this makes the simulator's settle barrier
// sound across the relay hop.
func (g *Gateway) Idle() bool {
	g.mu.Lock()
	links := make([]*link, 0, len(g.links))
	for lk := range g.links {
		links = append(links, lk)
	}
	g.mu.Unlock()
	for _, lk := range links {
		if lk.busy.Load() != 0 {
			return false
		}
		if pendingBytes(lk.clientConn) > 0 || lk.clientBuffered.Load() > 0 {
			return false
		}
		lk.mu.Lock()
		conn, epoch := lk.backConn, lk.epoch
		lk.mu.Unlock()
		if conn == nil || pendingBytes(conn) > 0 || lk.backBuffered.Load() > 0 {
			return false
		}
		if w, ok := conn.(readableWaiter); ok && w.Closed() {
			return false
		}
		if o, ok := g.fab.Owners().Lookup(lk.room); ok && o.Epoch != epoch {
			return false
		}
	}
	return true
}

func pendingBytes(c net.Conn) int {
	if p, ok := c.(interface{ Pending() int }); ok {
		return p.Pending()
	}
	return 0
}

func waitReadable(c net.Conn) {
	if w, ok := c.(readableWaiter); ok {
		w.WaitReadable()
	}
}

// handleClient runs one client's session: handshake, then the
// client-to-backend pump inline with the backend-to-client pump in a
// sibling goroutine.
func (g *Gateway) handleClient(conn net.Conn) {
	defer g.wg.Done()
	defer conn.Close()
	codec := chat.NewCodec(conn)
	first, err := codec.Read()
	if err != nil {
		return
	}
	if first.Type != chat.TypeJoin || first.From == "" || first.Room == "" {
		_ = codec.Write(chat.Message{Type: chat.TypeError, Text: "first message must be a join with room and from"})
		return
	}
	lk := &link{room: first.Room, user: first.From, clientConn: conn, clientCodec: codec}
	if first.Wire == chat.WireBinary {
		lk.clientWire = chat.WireBinary
	}
	welcome, ok := g.relink(lk, first.Resume)
	if !ok {
		_ = codec.Write(chat.Message{Type: chat.TypeError, Text: "no owner reachable for room " + first.Room})
		return
	}
	// Forward the welcome with the wire echo the CLIENT negotiated (the
	// backend hop is always binary regardless), then switch framings
	// exactly like the server would.
	welcome.Wire = lk.clientWire
	if err := codec.Write(welcome); err != nil {
		lk.mu.Lock()
		_ = lk.backConn.Close()
		lk.mu.Unlock()
		return
	}
	if lk.clientWire == chat.WireBinary {
		codec.SetReadWire(chat.WireBinary)
		codec.SetWriteWire(chat.WireBinary)
	}
	lk.clientBuffered.Store(int64(codec.Buffered()))

	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		lk.mu.Lock()
		_ = lk.backConn.Close()
		lk.mu.Unlock()
		return
	}
	g.links[lk] = struct{}{}
	g.mu.Unlock()

	g.wg.Add(1)
	go g.pumpBackendToClient(lk)
	g.pumpClientToBackend(lk)

	g.mu.Lock()
	delete(g.links, lk)
	g.mu.Unlock()
}

// relink (re)connects a link to its room's current owner, retrying
// until the fabric promotes one or the timeout expires. resume marks
// the backend join as a reconnection so the owner skips its history
// replay. On success the new backend is installed under lk.mu and the
// link's generation bumps — writers blocked on the old backend see the
// change and resend.
func (g *Gateway) relink(lk *link, resume bool) (welcome chat.Message, ok bool) {
	done := clock.Until(linkTimeout, func() bool {
		if lk.closed.Load() {
			return true // give up: client is gone
		}
		o, err := g.fab.Owner(lk.room)
		if err != nil {
			return false
		}
		conn, err := g.fab.DialNode(o.Node)
		if err != nil {
			return false // owner dead or mid-promotion; retry
		}
		codec := chat.NewCodec(conn)
		join := chat.Message{Type: chat.TypeJoin, Room: lk.room, From: lk.user, Wire: chat.WireBinary, Resume: resume}
		if err := codec.Write(join); err != nil {
			_ = conn.Close()
			return false
		}
		reply, err := codec.Read()
		if err != nil || reply.Type != chat.TypeWelcome {
			// A TypeError here is usually "name already in use": the old
			// incarnation of this link has not processed its EOF-leave
			// yet. Close and retry until it has.
			_ = conn.Close()
			return false
		}
		codec.SetReadWire(chat.WireBinary)
		codec.SetWriteWire(chat.WireBinary)
		lk.mu.Lock()
		lk.backConn = conn
		lk.backCodec = codec
		lk.backBuffered.Store(int64(codec.Buffered()))
		lk.epoch = o.Epoch
		lk.gen++
		lk.mu.Unlock()
		welcome = reply
		return true
	})
	return welcome, done && !lk.closed.Load()
}

// pumpClientToBackend relays the client's messages to the current
// owner. A write that fails waits for the backend-to-client pump to
// relink (generation change) and resends on the new backend, so a
// message sent across a failover is delivered exactly once.
func (g *Gateway) pumpClientToBackend(lk *link) {
	for {
		if lk.clientCodec.Buffered() == 0 {
			waitReadable(lk.clientConn)
		}
		lk.busy.Add(1)
		m, err := lk.clientCodec.Read()
		lk.clientBuffered.Store(int64(lk.clientCodec.Buffered()))
		if err != nil {
			lk.busy.Add(-1)
			break // client dropped (or sent garbage); sever the backend
		}
		switch m.Type {
		case chat.TypeSay, chat.TypeLeave:
			if m.Type == chat.TypeLeave {
				// Mark before forwarding: the backend will close this
				// link's connection after processing the leave, and the
				// sibling pump must read that EOF as "done", not as a
				// failover to recover from.
				lk.closed.Store(true)
			}
			if !lk.writeBackend(m) {
				lk.busy.Add(-1)
				goto out
			}
		default:
			// Joins were consumed at handshake; anything else is a
			// protocol error answered locally.
			_ = m
		}
		lk.busy.Add(-1)
		if m.Type == chat.TypeLeave {
			goto out
		}
	}
out:
	lk.closed.Store(true)
	lk.mu.Lock()
	if lk.backConn != nil {
		_ = lk.backConn.Close()
	}
	lk.mu.Unlock()
	_ = lk.clientConn.Close()
}

// writeBackend sends one message on the link's current backend,
// riding out failovers: on error it waits for a relink and resends.
func (lk *link) writeBackend(m chat.Message) bool {
	for {
		lk.mu.Lock()
		codec, gen := lk.backCodec, lk.gen
		var err error
		if codec == nil {
			err = errors.New("no backend")
		} else {
			err = codec.Write(m)
		}
		lk.mu.Unlock()
		if err == nil {
			return true
		}
		if lk.closed.Load() {
			return false
		}
		relinked := clock.Until(linkTimeout, func() bool {
			if lk.closed.Load() {
				return true
			}
			lk.mu.Lock()
			changed := lk.gen != gen
			lk.mu.Unlock()
			return changed
		})
		if !relinked || lk.closed.Load() {
			return false
		}
	}
}

// pumpBackendToClient relays the owner's messages to the client. A
// backend EOF with the client still attached is a failover (or
// partition): relink with Resume, forward the fresh welcome, carry on.
func (g *Gateway) pumpBackendToClient(lk *link) {
	defer g.wg.Done()
	for {
		lk.mu.Lock()
		conn, codec := lk.backConn, lk.backCodec
		lk.mu.Unlock()
		if codec.Buffered() == 0 {
			waitReadable(conn)
		}
		lk.busy.Add(1)
		m, err := codec.Read()
		lk.backBuffered.Store(int64(codec.Buffered()))
		if err != nil {
			lk.busy.Add(-1)
			if lk.closed.Load() {
				return
			}
			welcome, ok := g.relink(lk, true)
			if !ok {
				// No owner came back inside the window: drop the client;
				// its edge connection closing is the honest signal.
				lk.closed.Store(true)
				_ = lk.clientConn.Close()
				return
			}
			welcome.Wire = lk.clientWire
			lk.busy.Add(1)
			werr := lk.clientCodec.Write(welcome)
			lk.busy.Add(-1)
			if werr != nil {
				lk.closed.Store(true)
				return
			}
			continue
		}
		werr := lk.clientCodec.Write(m)
		lk.busy.Add(-1)
		if werr != nil {
			// Client gone mid-broadcast: sever the backend so the owner
			// sees the leave.
			lk.closed.Store(true)
			lk.mu.Lock()
			if lk.backConn != nil {
				_ = lk.backConn.Close()
			}
			lk.mu.Unlock()
			return
		}
	}
}
