package simulate

import (
	"fmt"
	"sync"
	"time"

	"semagent/internal/chat"
	"semagent/internal/core"
	"semagent/internal/corpus"
	"semagent/internal/workload"
)

// VerdictEntry is one supervised message with its ground truth. The
// full per-message log is exported on Result.VerdictLog so the chaos
// invariant checkers (internal/simulate/gen) can audit every verdict
// against the script — no verdict may exist for a never-sent message.
type VerdictEntry struct {
	Room, User, Text string
	Expect           workload.Kind
	Verdict          corpus.Verdict
	// Agents are the responder names of the interventions this message
	// drew (in response order).
	Agents []string
}

// recorder wraps the core Supervisor as the chat.Supervisor: it matches
// every processed message against the ground-truth expectation queued
// when the script sent it, logs the verdict, and (when gated) holds
// processing shut so a flooding burst's shed decisions depend only on
// queue depth. The recorder survives a mid-session crash/recovery —
// only its inner supervisor is swapped — so the verdict log spans the
// whole session.
type recorder struct {
	mu    sync.Mutex
	inner *core.Supervisor
	gate  chan struct{}
	// arrived counts Process calls that reached a closed gate since
	// closeGate — how a paced burst sees the worker parked on a task.
	arrived int
	expects map[string][]workload.Kind // per-user FIFO of ground truth
	log     []VerdictEntry
	// resolve, when set, routes each message to the supervisor owning
	// its room (cluster mode: one supervisor per node, DESIGN.md D15).
	// It overrides inner, which stays nil in cluster mode.
	resolve func(room string) *core.Supervisor
}

func newRecorder(sup *core.Supervisor) *recorder {
	return &recorder{inner: sup, expects: make(map[string][]workload.Kind)}
}

// swap installs the post-recovery supervisor.
func (r *recorder) swap(sup *core.Supervisor) {
	r.mu.Lock()
	r.inner = sup
	r.mu.Unlock()
}

// expect queues ground truth for the next message user sends. Message
// order is preserved per room (pipeline sharding) and each user speaks
// in one room at a time, so a per-user FIFO matches exactly.
func (r *recorder) expect(user string, kind workload.Kind) {
	r.mu.Lock()
	r.expects[user] = append(r.expects[user], kind)
	r.mu.Unlock()
}

// closeGate makes Process block until openGate (or, one call at a
// time, admitOne); openGate releases it.
func (r *recorder) closeGate() {
	r.mu.Lock()
	r.gate = make(chan struct{})
	r.arrived = 0
	r.mu.Unlock()
}

// gateArrivals reports how many Process calls have reached the closed
// gate since closeGate, released or not.
func (r *recorder) gateArrivals() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.arrived
}

// admitOne lets exactly one Process call through the closed gate,
// waiting (bounded) for a call to take it.
func (r *recorder) admitOne(timeout time.Duration) error {
	r.mu.Lock()
	gate := r.gate
	r.mu.Unlock()
	if gate == nil {
		return nil
	}
	//semalint:allow injectedclock: bounds a real hand-off to a parked worker goroutine; virtual time cannot unblock it
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case gate <- struct{}{}:
		return nil
	case <-t.C:
		return fmt.Errorf("no supervision task reached the gate")
	}
}

func (r *recorder) openGate() {
	r.mu.Lock()
	if r.gate != nil {
		close(r.gate)
		r.gate = nil
	}
	r.mu.Unlock()
}

// Process implements chat.Supervisor.
func (r *recorder) Process(room, user, text string) []chat.Response {
	r.mu.Lock()
	gate := r.gate
	sup := r.inner
	// The expectation is consumed up front: even if the supervisor
	// errors below, the per-user FIFO must stay aligned with the
	// message stream or every later verdict would be scored against
	// the wrong ground truth.
	entry := VerdictEntry{Room: room, User: user, Text: text, Verdict: corpus.VerdictUnknown}
	if q := r.expects[user]; len(q) > 0 {
		entry.Expect = q[0]
		r.expects[user] = q[1:]
	}
	resolve := r.resolve
	if gate != nil {
		r.arrived++
	}
	r.mu.Unlock()
	if gate != nil {
		<-gate
	}
	if resolve != nil {
		sup = resolve(room)
	}
	if sup == nil {
		// Owner died between enqueue and processing (cluster mode); the
		// expectation was already consumed, so the entry still lands in
		// the log with VerdictUnknown.
		r.mu.Lock()
		r.log = append(r.log, entry)
		r.mu.Unlock()
		return nil
	}

	a, err := sup.Process(room, user, text)
	if err == nil {
		entry.Verdict = a.Verdict
		for _, resp := range a.Responses {
			entry.Agents = append(entry.Agents, resp.Agent)
		}
	}

	r.mu.Lock()
	r.log = append(r.log, entry)
	r.mu.Unlock()
	if err != nil {
		return nil
	}
	return a.Responses
}

// entries returns a copy of the verdict log.
func (r *recorder) entries() []VerdictEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]VerdictEntry, len(r.log))
	copy(out, r.log)
	return out
}

// unsupervised returns, per user, the expectations never consumed —
// messages whose supervision was shed (or cut off by a crash).
func (r *recorder) unsupervised() map[string][]workload.Kind {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string][]workload.Kind)
	for user, q := range r.expects {
		if len(q) > 0 {
			out[user] = append([]workload.Kind(nil), q...)
		}
	}
	return out
}
