package main

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"semagent/internal/chat"
)

// barrierLine is the in-band completion marker: commands keep their
// place in per-room order in every server mode, so the reply to a
// /help sent after a batch of lines proves every earlier line of that
// connection was supervised.
const barrierLine = "/help"

// rx is one received message and when it arrived.
type rx struct {
	at time.Time
	m  chat.Message
}

// client is one learner's connection over the binary wire. A reader
// goroutine logs what arrives (while recording), counts frames and own
// echoes, and signals barrier replies.
type client struct {
	user, room string
	conn       net.Conn
	codec      *chat.Codec
	wmu        sync.Mutex

	mu     sync.Mutex
	log    []rx
	record bool

	frames atomic.Int64
	// echoes and peerEchoes count echoes of this learner's lines and of
	// the other learners' lines; ownSig and peerSig wake the one sender
	// waiting on each count.
	echoes, peerEchoes atomic.Int64
	ownSig, peerSig    chan struct{}
	barrier            chan time.Time
	dead               chan struct{}
	err                error
	done               sync.WaitGroup
}

var errTimeout = errors.New("timed out")

// join dials addr, joins room as user asking for the binary wire, and
// starts the reader.
func join(addr, room, user string, timeout time.Duration) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return joinConn(conn, room, user, timeout)
}

// joinConn joins over an established connection (TCP or in-memory).
func joinConn(conn net.Conn, room, user string, timeout time.Duration) (*client, error) {
	c := &client{
		user: user, room: room, conn: conn, codec: chat.NewCodec(conn),
		ownSig:  make(chan struct{}, 1),
		peerSig: make(chan struct{}, 1),
		barrier: make(chan time.Time, 4), // at most one barrier is outstanding per connection
		dead:    make(chan struct{}),
	}
	if err := c.codec.Write(chat.Message{Type: chat.TypeJoin, Room: room, From: user, Wire: chat.WireBinary}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("join %s/%s: %w", room, user, err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(timeout))
	first, err := c.codec.Read()
	_ = conn.SetReadDeadline(time.Time{})
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("join %s/%s: %w", room, user, err)
	}
	if first.Type != chat.TypeWelcome {
		conn.Close()
		return nil, fmt.Errorf("join %s/%s refused: %s %q", room, user, first.Type, first.Text)
	}
	if first.Wire == chat.WireBinary {
		c.codec.SetReadWire(chat.WireBinary)
		c.codec.SetWriteWire(chat.WireBinary)
	}
	c.done.Add(1)
	go c.readLoop()
	return c, nil
}

func isBarrierReply(m chat.Message) bool {
	return m.Type == chat.TypeAgent && m.Private && strings.HasPrefix(m.Text, "commands:")
}

func (c *client) readLoop() {
	defer c.done.Done()
	for {
		m, err := c.codec.Read()
		if err != nil {
			c.mu.Lock()
			c.err = err
			c.mu.Unlock()
			close(c.dead)
			return
		}
		now := time.Now()
		if m.Type == chat.TypeWelcome {
			// A second welcome means a gateway re-linked the learner to
			// its room's owner; what was in flight may be lost.
			c.mu.Lock()
			c.err = errors.New("re-linked mid-session (welcome received)")
			c.mu.Unlock()
			close(c.dead)
			return
		}
		c.frames.Add(1)
		if m.Type == chat.TypeChat && m.Text != barrierLine {
			n, sig := &c.peerEchoes, c.peerSig
			if m.From == c.user {
				n, sig = &c.echoes, c.ownSig
			}
			n.Add(1)
			select {
			case sig <- struct{}{}:
			default:
			}
		}
		c.mu.Lock()
		if c.record {
			c.log = append(c.log, rx{at: now, m: m})
		}
		c.mu.Unlock()
		if isBarrierReply(m) {
			c.barrier <- now
		}
	}
}

// setRecord turns message logging on or off and returns (and clears)
// what was logged so far.
func (c *client) setRecord(on bool) []rx {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.log
	c.log = nil
	c.record = on
	return out
}

// take returns and clears the log, leaving recording as it is.
func (c *client) take() []rx {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.log
	c.log = nil
	return out
}

func (c *client) say(text string) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.codec.Write(chat.Message{Type: chat.TypeSay, Text: text})
}

// deadErr describes why the connection is gone.
func (c *client) deadErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fmt.Errorf("connection of %s in %s dropped: %v", c.user, c.room, c.err)
}

// awaitBarrier waits for the reply to a barrier already sent.
func (c *client) awaitBarrier(timeout time.Duration) (time.Time, error) {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case at := <-c.barrier:
		return at, nil
	case <-c.dead:
		return time.Time{}, c.deadErr()
	case <-t.C:
		return time.Time{}, fmt.Errorf("barrier of %s in %s: %w", c.user, c.room, errTimeout)
	}
}

// awaitEchoes waits until at least n own echoes have arrived.
func (c *client) awaitEchoes(n int64, timeout time.Duration) error {
	return awaitCount(c, &c.echoes, c.ownSig, n, timeout)
}

// awaitCount waits until count, which c's reader raises and signals on
// sig, reaches n.
func awaitCount(c *client, count *atomic.Int64, sig chan struct{}, n int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for count.Load() < n {
		wait := time.Until(deadline)
		if wait <= 0 {
			return fmt.Errorf("echo %d at %s in %s: %w", n, c.user, c.room, errTimeout)
		}
		t := time.NewTimer(wait)
		select {
		case <-sig:
		case <-c.dead:
			t.Stop()
			return c.deadErr()
		case <-t.C:
		}
		t.Stop()
	}
	return nil
}

// close leaves the room and waits for the reader to exit.
func (c *client) close() {
	c.wmu.Lock()
	_ = c.codec.Write(chat.Message{Type: chat.TypeLeave})
	c.wmu.Unlock()
	_ = c.conn.Close()
	c.done.Wait()
}
