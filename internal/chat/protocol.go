// Package chat implements the Augmentative Chat Room of the paper: a
// TCP chat service with rooms, a newline-delimited JSON wire protocol
// (with an optional negotiated binary framing), and a supervisor hook
// through which the Learning_Angel Agent, the Semantic Agent and the
// QA system observe every message and inject their responses — the
// "supervisors constantly online" of the abstract.
package chat

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"
)

// MsgType enumerates protocol message types.
type MsgType string

// Wire message types.
const (
	// Client -> server.
	TypeJoin  MsgType = "join"  // Room, From required
	TypeSay   MsgType = "say"   // Text required
	TypeLeave MsgType = "leave" //

	// Server -> client.
	TypeWelcome MsgType = "welcome" // join acknowledged
	TypeChat    MsgType = "chat"    // a user's message, broadcast
	TypeSystem  MsgType = "system"  // membership notices
	TypeAgent   MsgType = "agent"   // supervisor responses; Agent names the sender
	TypeError   MsgType = "error"   // protocol errors
)

// Wire identifies a message framing.
type Wire string

// Wire formats. The zero value means text (newline-delimited JSON), the
// default every telnet-style client and all pre-existing tooling speak.
const (
	WireText   Wire = "text"
	WireBinary Wire = "binary"
)

// Message is the wire unit: one JSON object per line in text framing,
// one length-prefixed frame in binary framing.
type Message struct {
	Type  MsgType   `json:"type"`
	Room  string    `json:"room,omitempty"`
	From  string    `json:"from,omitempty"`
	Text  string    `json:"text,omitempty"`
	Agent string    `json:"agent,omitempty"`
	Time  time.Time `json:"time,omitempty"`
	// Private marks agent responses addressed only to the speaker.
	Private bool `json:"private,omitempty"`
	// Wire negotiates the binary framing: a client sets it on its join,
	// the server echoes it on the welcome to acknowledge, and both sides
	// switch immediately after the welcome (see DESIGN.md D13).
	Wire Wire `json:"wire,omitempty"`
	// Resume marks a join as a reconnection that already observed the
	// room: the server skips the history replay it would otherwise
	// enqueue behind the welcome. The cluster gateway sets it when it
	// re-routes a live client to a new or recovered owner, so failover
	// never re-delivers messages the client has already seen
	// (DESIGN.md D15).
	Resume bool `json:"resume,omitempty"`
}

// maxLineBytes bounds a single protocol unit — a text line or a binary
// frame payload.
const maxLineBytes = 64 * 1024

// ErrTooLarge reports a protocol unit over the 64 KiB cap. The codec
// returns it without buffering the oversized input, so a hostile peer
// cannot grow server memory; the server drops the connection.
var ErrTooLarge = errors.New("chat: message exceeds protocol size limit")

// Codec frames Messages over a stream: newline-delimited JSON by
// default, length-prefixed binary after negotiation. Read and write
// sides switch independently (the negotiation handshake is asymmetric
// for one message — the welcome). A Codec is not safe for concurrent
// use of the same side; the server dedicates one goroutine per side.
type Codec struct {
	r *bufio.Reader
	w *bufio.Writer

	readWire, writeWire Wire
	enc                 *json.Encoder // text writes, reuses its buffer

	// readBuf holds one binary payload; intern folds repeated small
	// decoded strings (room, user, agent names) so steady-state traffic
	// from the same room costs one allocation per message (the text).
	readBuf  []byte
	writeBuf []byte
	intern   map[string]string
}

// NewCodec wraps a bidirectional stream in text framing.
func NewCodec(rw io.ReadWriter) *Codec {
	c := &Codec{
		r: bufio.NewReaderSize(rw, maxLineBytes),
		w: bufio.NewWriterSize(rw, maxLineBytes),
	}
	c.enc = json.NewEncoder(c.w)
	return c
}

// SetReadWire switches the framing the codec expects from the peer.
func (c *Codec) SetReadWire(w Wire) {
	if w == "" {
		w = WireText
	}
	c.readWire = w
}

// SetWriteWire switches the framing the codec emits.
func (c *Codec) SetWriteWire(w Wire) {
	if w == "" {
		w = WireText
	}
	c.writeWire = w
}

// Read decodes the next message.
func (c *Codec) Read() (Message, error) {
	if c.readWire == WireBinary {
		return c.readBinary()
	}
	var m Message
	// The reader's buffer is exactly maxLineBytes, so ReadSlice enforces
	// the cap *during* the read: a newline-free flood fails with
	// ErrBufferFull at 64 KiB instead of accumulating without bound.
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		if err == bufio.ErrBufferFull {
			return m, fmt.Errorf("%w (text line over %d bytes)", ErrTooLarge, maxLineBytes)
		}
		return m, err
	}
	if err := json.Unmarshal(line, &m); err != nil {
		return m, fmt.Errorf("decode message: %w", err)
	}
	return m, nil
}

// Buffered reports how many decoded-but-unread bytes sit in the read
// buffer. The scenario simulator combines it with the transport's own
// pending count to drain "everything already delivered" without
// blocking for more.
func (c *Codec) Buffered() int { return c.r.Buffered() }

// Write encodes and flushes one message.
func (c *Codec) Write(m Message) error {
	if c.writeWire == WireBinary {
		return c.writeBinary(m)
	}
	// json.Encoder emits exactly Marshal's bytes plus the terminating
	// newline, and reuses its internal buffer across calls.
	if err := c.enc.Encode(m); err != nil {
		return fmt.Errorf("encode message: %w", err)
	}
	return c.w.Flush()
}

// WriteRaw writes an already-encoded frame and flushes. The bytes must
// be in the codec's current write framing — the broadcast fan-out uses
// this to share one encoding across every recipient of a message.
func (c *Codec) WriteRaw(b []byte) error {
	if _, err := c.w.Write(b); err != nil {
		return err
	}
	return c.w.Flush()
}

// AppendEncoded appends m's encoding in the given wire format to dst,
// producing bytes WriteRaw accepts.
func AppendEncoded(dst []byte, m Message, w Wire) ([]byte, error) {
	if w == WireBinary {
		return appendBinaryFrame(dst, m), nil
	}
	data, err := json.Marshal(m)
	if err != nil {
		return dst, fmt.Errorf("encode message: %w", err)
	}
	dst = append(dst, data...)
	return append(dst, '\n'), nil
}

// Response is a supervisor's reaction to a chat message.
type Response struct {
	// Agent names the responder ("Learning_Angel", "Semantic_Agent",
	// "QA_System").
	Agent string
	Text  string
	// Private responses go only to the speaker, not the whole room.
	Private bool
}

// Supervisor observes every chat message and may respond. The core
// package's Supervisor implements this; tests may plug stubs.
type Supervisor interface {
	Process(room, user, text string) []Response
}

// SupervisorFunc adapts a function to the Supervisor interface.
type SupervisorFunc func(room, user, text string) []Response

// Process implements Supervisor.
func (f SupervisorFunc) Process(room, user, text string) []Response {
	return f(room, user, text)
}
