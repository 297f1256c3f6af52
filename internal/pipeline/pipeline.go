// Package pipeline fans supervised chat-room messages out to a pool of
// worker goroutines sharded by room (DESIGN.md, design decisions D7 and
// D10). One classroom at paper scale is a single-threaded loop; a
// deployment supervising many classrooms needs rooms to run in parallel
// while each room's dialogue keeps its order — agent feedback referring
// to "the previous message" is wrong if messages are reordered. Hashing
// the room name onto a fixed shard gives both properties: tasks for one
// room always land on the same single-worker queue (FIFO), different
// rooms spread across the pool.
//
// Each shard's queue is bounded. Without admission control a full queue
// either rejects the task (ErrFull, Config.Block=false) or blocks the
// submitter until space frees (Config.Block=true) — backpressure
// instead of unbounded goroutine growth. With admission control
// (Config.Policy != ShedNone) the pipeline sheds load deterministically
// instead of blocking: a room above its queue-depth watermark, or the
// whole pool above its in-flight watermark, drops the new task
// (ShedRejectNew) or evicts the oldest queued task of the shard
// (ShedOldest) — so a traffic spike degrades supervision coverage,
// never end-to-end chat latency. Stats exposes submitted/completed/
// rejected/shed counts and queue high-water marks so operators can see
// saturation; a metrics.Registry (Config.Metrics) additionally gets
// queue-wait and task-duration histograms on the hot path.
package pipeline

import (
	"errors"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"semagent/internal/clock"
	"semagent/internal/metrics"
)

// Errors returned by Submit.
var (
	// ErrFull reports a full shard queue in non-blocking mode without
	// admission control.
	ErrFull = errors.New("pipeline: shard queue full")
	// ErrClosed reports submission after Close.
	ErrClosed = errors.New("pipeline: closed")
	// ErrShed reports that admission control refused the task: the
	// submitting room is over its queue-depth watermark, or the pool is
	// over its global in-flight watermark under the reject-new policy.
	ErrShed = errors.New("pipeline: shed by admission control")
)

// ShedPolicy selects what admission control does at a watermark.
type ShedPolicy uint8

// Admission-control policies.
const (
	// ShedNone disables admission control: a full queue blocks
	// (Config.Block) or rejects with ErrFull — the pre-D10 behaviour.
	ShedNone ShedPolicy = iota
	// ShedRejectNew drops the incoming task (the submitter learns
	// immediately via ErrShed).
	ShedRejectNew
	// ShedOldest evicts the oldest queued task of the target shard to
	// make room for the new one — freshest-first supervision, the
	// right choice when stale feedback is worthless to learners.
	ShedOldest
)

// String names the policy (flag values of cmd/chatserver).
func (p ShedPolicy) String() string {
	switch p {
	case ShedNone:
		return "none"
	case ShedRejectNew:
		return "reject-new"
	case ShedOldest:
		return "oldest-drop"
	default:
		return "unknown"
	}
}

// ParseShedPolicy maps a flag string to a policy.
func ParseShedPolicy(s string) (ShedPolicy, error) {
	switch s {
	case "", "none", "block":
		return ShedNone, nil
	case "reject-new", "reject":
		return ShedRejectNew, nil
	case "oldest-drop", "oldest":
		return ShedOldest, nil
	default:
		return ShedNone, errors.New("pipeline: unknown shed policy " + s)
	}
}

// Config sizes a Pipeline. The zero value selects sensible defaults.
type Config struct {
	// Workers is the number of shards, each served by one goroutine.
	// 0 selects runtime.GOMAXPROCS(0).
	Workers int
	// QueueSize is each shard's task-queue capacity. 0 selects 256.
	QueueSize int
	// Block makes Submit wait for queue space instead of returning
	// ErrFull. Ignored when Policy != ShedNone (admission control never
	// blocks — that is its point). The chat server without shedding
	// uses blocking mode: supervision applies backpressure to a
	// flooding client rather than silently dropping its messages.
	Block bool

	// Policy enables admission control (DESIGN.md D10).
	Policy ShedPolicy
	// RoomHighWater caps one room's tasks in flight (queued or
	// running); a room at the cap has its new tasks shed (both
	// policies — evicting another room's work to admit a flooding room
	// would invert fairness). 0 means no per-room cap.
	RoomHighWater int
	// GlobalHighWater caps tasks in flight (queued + running) across
	// all shards. At the cap ShedRejectNew drops the new task and
	// ShedOldest evicts the oldest queued task of the target shard.
	// 0 means no global cap.
	GlobalHighWater int
	// OnShed, if set, is called once per shed task with the room it
	// belonged to — the evicted task of ShedOldest has no live
	// submitter to hand an error to. Called outside all pipeline locks.
	OnShed func(room string)

	// Metrics, if set, registers the pipeline's counters, gauges and
	// latency histograms (semagent_pipeline_*).
	Metrics *metrics.Registry

	// Clock supplies the timestamps behind the queue-wait and
	// task-duration histograms. nil selects the wall clock; the
	// simulator injects a virtual clock so latency accounting is
	// deterministic and reproducible from the seed (DESIGN.md D11).
	Clock clock.Clock
}

// Stats is a snapshot of pipeline counters.
type Stats struct {
	// Workers is the shard count.
	Workers int
	// Submitted, Completed and Rejected count tasks accepted, finished
	// and refused (ErrFull).
	Submitted, Completed, Rejected int64
	// Blocked counts Submit calls that had to wait for queue space.
	Blocked int64
	// Shed counts tasks dropped by admission control: new tasks refused
	// at a watermark (ShedNew) plus queued tasks evicted by the
	// oldest-drop policy (ShedOldest). Evicted tasks were previously
	// Submitted; they are never Completed.
	Shed, ShedNew, ShedOldest int64
	// QueueDepth is the current number of queued tasks across shards.
	QueueDepth int
	// MaxQueueDepth is the high-water mark of a single shard queue.
	MaxQueueDepth int
}

// Pending is the number of accepted tasks not yet completed or evicted.
func (s Stats) Pending() int64 { return s.Submitted - s.Completed - s.ShedOldest }

// Merge adds another snapshot's counters into this one and returns the
// sum (gauges take the maximum). Callers that restart a pipeline — the
// chaos simulator rebuilds one per crash/recovery cycle — use it to
// account a whole session across pipeline lifetimes.
func (s Stats) Merge(o Stats) Stats {
	if o.Workers > s.Workers {
		s.Workers = o.Workers
	}
	s.Submitted += o.Submitted
	s.Completed += o.Completed
	s.Rejected += o.Rejected
	s.Blocked += o.Blocked
	s.Shed += o.Shed
	s.ShedNew += o.ShedNew
	s.ShedOldest += o.ShedOldest
	s.QueueDepth += o.QueueDepth
	if o.MaxQueueDepth > s.MaxQueueDepth {
		s.MaxQueueDepth = o.MaxQueueDepth
	}
	return s
}

// task is one queued unit of work with its room attribution (for
// per-room accounting and shed notification) and enqueue time (for the
// queue-wait histogram).
type task struct {
	room     string
	fn       func()
	enqueued time.Time
}

// shard is one worker's queue plus the per-room depth ledger of the
// rooms hashed onto it. Rooms never span shards, so room accounting
// needs only the shard's own lock — workers on different shards never
// serialize on shared bookkeeping.
type shard struct {
	jobs chan *task

	mu        sync.Mutex
	roomDepth map[string]int
}

func (sh *shard) addRoom(room string, delta int) {
	sh.mu.Lock()
	d := sh.roomDepth[room] + delta
	if d <= 0 {
		delete(sh.roomDepth, room)
	} else {
		sh.roomDepth[room] = d
	}
	sh.mu.Unlock()
}

func (sh *shard) depthOf(room string) int {
	sh.mu.Lock()
	d := sh.roomDepth[room]
	sh.mu.Unlock()
	return d
}

// pipeMetrics are the registered hot-path instruments (nil when the
// pipeline runs unobserved).
type pipeMetrics struct {
	submitted, completed, rejected, blocked *metrics.Counter
	shedNew, shedOldest                     *metrics.Counter
	queueWait, taskDur                      *metrics.Histogram
}

func newPipeMetrics(r *metrics.Registry) *pipeMetrics {
	if r == nil {
		return nil
	}
	return &pipeMetrics{
		submitted:  r.Counter("semagent_pipeline_submitted_total", "tasks accepted onto a shard queue"),
		completed:  r.Counter("semagent_pipeline_completed_total", "tasks run to completion"),
		rejected:   r.Counter("semagent_pipeline_rejected_total", "tasks refused with ErrFull (non-blocking, no admission control)"),
		blocked:    r.Counter("semagent_pipeline_blocked_total", "Submit calls that waited for queue space"),
		shedNew:    r.Counter("semagent_pipeline_shed_total", "tasks dropped by admission control", metrics.L("kind", "reject-new")),
		shedOldest: r.Counter("semagent_pipeline_shed_total", "tasks dropped by admission control", metrics.L("kind", "oldest-drop")),
		queueWait:  r.DurationHistogram("semagent_pipeline_queue_wait_seconds", "submit-to-dequeue latency (includes any blocking wait for queue space)"),
		taskDur:    r.DurationHistogram("semagent_pipeline_task_seconds", "task execution latency"),
	}
}

// Pipeline is the sharded worker pool. Safe for concurrent use.
type Pipeline struct {
	shards []*shard
	cfg    Config
	met    *pipeMetrics
	clk    clock.Clock
	// trackRooms gates the per-room depth ledger and trackInflight the
	// shared in-flight counter: each only has readers under admission
	// control (plus the metrics gauge for the latter), so the default
	// configuration skips the per-task shard-mutex map updates and the
	// cross-shard atomic RMWs entirely.
	trackRooms    bool
	trackInflight bool

	// inflightTasks counts queued + running tasks (the global
	// watermark's subject); atomic so admission checks stay off p.mu.
	inflightTasks atomic.Int64

	mu       sync.Mutex
	cond     *sync.Cond
	closed   bool
	closing  chan struct{}
	inflight int // blocked submitters Close must wait out

	submitted, rejected, blocked int64
	shedNew, shedOldest          int64
	maxDepth                     int

	// completed is atomic and waiters gates the cond broadcast, so the
	// per-task completion path stays off the shared mutex — workers on
	// different shards must not serialize on bookkeeping.
	completed atomic.Int64
	waiters   atomic.Int32

	wg sync.WaitGroup
}

// New starts the worker pool.
func New(cfg Config) *Pipeline {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 256
	}
	if cfg.Policy != ShedNone {
		// Admission control supersedes blocking: watermarks shed
		// deterministically, they never stall a submitter.
		cfg.Block = false
	}
	p := &Pipeline{
		shards:        make([]*shard, cfg.Workers),
		cfg:           cfg,
		met:           newPipeMetrics(cfg.Metrics),
		clk:           clock.Or(cfg.Clock),
		trackRooms:    cfg.Policy != ShedNone,
		trackInflight: cfg.Policy != ShedNone || cfg.Metrics != nil,
		closing:       make(chan struct{}),
	}
	p.cond = sync.NewCond(&p.mu)
	for i := range p.shards {
		p.shards[i] = &shard{
			jobs:      make(chan *task, cfg.QueueSize),
			roomDepth: make(map[string]int),
		}
		p.wg.Add(1)
		go p.worker(p.shards[i])
	}
	if cfg.Metrics != nil {
		cfg.Metrics.GaugeFunc("semagent_pipeline_queue_depth", "queued tasks across shards",
			func() int64 { return int64(p.queueDepth()) })
		cfg.Metrics.GaugeFunc("semagent_pipeline_inflight", "tasks queued or running",
			func() int64 { return p.inflightTasks.Load() })
	}
	return p
}

func (p *Pipeline) worker(sh *shard) {
	defer p.wg.Done()
	for t := range sh.jobs {
		p.runTask(sh, t)
	}
}

// runTask executes one task with full per-task accounting.
func (p *Pipeline) runTask(sh *shard, t *task) {
	// Timestamps come from the injected clock so that, under the
	// simulator's virtual clock, the same seed reproduces the same
	// latency histograms bit for bit.
	var start time.Time
	if p.met != nil {
		p.met.queueWait.ObserveDuration(p.clk.Since(t.enqueued))
		start = p.clk.Now()
	}
	t.fn()
	if p.met != nil {
		p.met.taskDur.ObserveDuration(p.clk.Since(start))
		p.met.completed.Inc()
	}
	p.finishTask(sh, t)
	p.completed.Add(1)
	if p.waiters.Load() > 0 {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// finishTask releases a task's room and in-flight accounting (shared by
// the worker's completion path and the oldest-drop eviction path).
func (p *Pipeline) finishTask(sh *shard, t *task) {
	if p.trackRooms {
		sh.addRoom(t.room, -1)
	}
	if p.trackInflight {
		p.inflightTasks.Add(-1)
	}
}

// shardFor hashes the room name onto a shard; every task of one room
// lands on the same FIFO queue.
func (p *Pipeline) shardFor(room string) *shard {
	h := fnv.New32a()
	_, _ = h.Write([]byte(room))
	return p.shards[int(h.Sum32())%len(p.shards)]
}

// Submit enqueues a task on the room's shard. Tasks of one room run in
// submission order; tasks of different rooms run in parallel. Returns
// ErrShed when admission control refuses the task, ErrFull when the
// shard queue is full in non-blocking mode without admission control,
// ErrClosed after Close.
func (p *Pipeline) Submit(room string, fn func()) error {
	if fn == nil {
		return errors.New("pipeline: nil task")
	}
	sh := p.shardFor(room)
	t := &task{room: room, fn: fn}
	if p.met != nil {
		// Stamped at Submit entry: the queue-wait histogram measures
		// submit-to-dequeue, which deliberately includes a blocking
		// Submit's wait for queue space (the stamp cannot be set after
		// the send — the worker may already have dequeued the task).
		t.enqueued = p.clk.Now()
	}

	p.mu.Lock()
	if p.closed {
		// The closed check precedes admission control: a Submit racing
		// Close must see ErrClosed, not a shed (and must never evict
		// from a queue Close has promised to run to completion).
		p.mu.Unlock()
		return ErrClosed
	}
	// Admission control: watermark sheds are deterministic functions
	// of current depth, not races against a draining worker.
	var evicted []string
	if p.cfg.Policy != ShedNone {
		if p.cfg.RoomHighWater > 0 && sh.depthOf(room) >= p.cfg.RoomHighWater {
			p.shedNewLocked()
			p.mu.Unlock()
			p.notifyShed(room)
			return ErrShed
		}
		if p.cfg.GlobalHighWater > 0 && p.inflightTasks.Load() >= int64(p.cfg.GlobalHighWater) {
			var r string
			if p.cfg.Policy == ShedOldest {
				r = p.evictOldestLocked(sh)
			}
			if r == "" { // reject-new, or nothing queued to evict
				p.shedNewLocked()
				p.mu.Unlock()
				p.notifyShed(room)
				return ErrShed
			}
			evicted = append(evicted, r)
		}
	}

	// Reserve the room/in-flight accounting BEFORE the send: once the
	// task is on the channel a worker may finish it — and decrement —
	// at any moment, so the increment must already be visible or the
	// clamp in addRoom would discard the decrement and leak depth.
	p.reserve(sh, room)
	select {
	case sh.jobs <- t:
		p.acceptLocked(sh)
		p.mu.Unlock()
		p.notifyShedAll(evicted)
		return nil
	default:
	}
	if p.cfg.Policy == ShedOldest {
		// Full shard queue: evict the oldest queued task to admit the
		// new one. The eviction and the racing worker both receive from
		// sh.jobs, so whichever wins, the send below finds space (the
		// retry loop covers other submitters stealing the slot first —
		// every eviction it makes is notified after unlock).
		for {
			if room := p.evictOldestLocked(sh); room != "" {
				evicted = append(evicted, room)
			}
			select {
			case sh.jobs <- t:
				p.acceptLocked(sh)
				p.mu.Unlock()
				p.notifyShedAll(evicted)
				return nil
			default:
			}
		}
	}
	if p.cfg.Policy == ShedRejectNew {
		p.unreserve(sh, room)
		p.shedNewLocked()
		p.mu.Unlock()
		p.notifyShed(room)
		return ErrShed
	}
	if !p.cfg.Block {
		p.unreserve(sh, room)
		p.rejected++
		if p.met != nil {
			p.met.rejected.Inc()
		}
		p.mu.Unlock()
		return ErrFull
	}
	// Blocking path: wait for space outside the lock, but register as
	// in flight so Close does not tear the queues down under us. The
	// select on p.closing is what keeps a Submit blocked on a full
	// queue from deadlocking when Close stops the drainers.
	p.blocked++
	if p.met != nil {
		p.met.blocked.Inc()
	}
	p.inflight++
	p.mu.Unlock()

	select {
	case sh.jobs <- t:
		p.mu.Lock()
		p.inflight--
		p.acceptLocked(sh)
		p.cond.Broadcast()
		p.mu.Unlock()
		return nil
	case <-p.closing:
		p.mu.Lock()
		p.inflight--
		p.unreserve(sh, room)
		p.cond.Broadcast()
		p.mu.Unlock()
		return ErrClosed
	}
}

// reserve accounts a task's room and in-flight slots ahead of the
// enqueue attempt (see Submit); unreserve rolls it back on the paths
// that end up not enqueueing.
func (p *Pipeline) reserve(sh *shard, room string) {
	if p.trackRooms {
		sh.addRoom(room, 1)
	}
	if p.trackInflight {
		p.inflightTasks.Add(1)
	}
}

func (p *Pipeline) unreserve(sh *shard, room string) {
	if p.trackRooms {
		sh.addRoom(room, -1)
	}
	if p.trackInflight {
		p.inflightTasks.Add(-1)
	}
}

// acceptLocked accounts a successful (already reserved) enqueue
// (p.mu held).
func (p *Pipeline) acceptLocked(sh *shard) {
	p.submitted++
	if p.met != nil {
		p.met.submitted.Inc()
	}
	if d := len(sh.jobs); d > p.maxDepth {
		p.maxDepth = d
	}
}

// shedNewLocked / shedOldestLocked count one dropped task (p.mu held);
// the caller notifies OnShed with the room after unlocking.
func (p *Pipeline) shedNewLocked() {
	p.shedNew++
	if p.met != nil {
		p.met.shedNew.Inc()
	}
}

func (p *Pipeline) shedOldestLocked() {
	p.shedOldest++
	if p.met != nil {
		p.met.shedOldest.Inc()
	}
	// An eviction shrinks Drain's completion target; wake it.
	if p.waiters.Load() > 0 {
		p.cond.Broadcast()
	}
}

func (p *Pipeline) notifyShed(room string) {
	if p.cfg.OnShed != nil {
		p.cfg.OnShed(room)
	}
}

func (p *Pipeline) notifyShedAll(rooms []string) {
	if p.cfg.OnShed != nil {
		for _, r := range rooms {
			p.cfg.OnShed(r)
		}
	}
}

// evictOldestLocked (p.mu held, pipeline not closed) returns the
// evicted task's room, or "" when the queue was empty. The ok guard is
// defense in depth: eviction never legitimately races close(sh.jobs)
// because Close flips p.closed under the same mutex first.
func (p *Pipeline) evictOldestLocked(sh *shard) string {
	select {
	case old, ok := <-sh.jobs:
		if !ok {
			return ""
		}
		p.finishTask(sh, old)
		p.shedOldestLocked()
		return old.room
	default:
		return ""
	}
}

// Drain blocks until every accepted task has completed or been evicted.
// Tasks submitted concurrently with Drain may or may not be waited for.
func (p *Pipeline) Drain() {
	p.waiters.Add(1)
	defer p.waiters.Add(-1)
	p.mu.Lock()
	for p.completed.Load() < p.submitted-p.shedOldest {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// Close stops accepting tasks, runs everything already queued to
// completion and joins the workers. Blocked submitters are released
// with ErrClosed. Close is idempotent.
func (p *Pipeline) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	close(p.closing)
	// A blocked submitter may still win its racing send; wait until all
	// of them have resolved before closing the queues.
	for p.inflight > 0 {
		p.cond.Wait()
	}
	p.mu.Unlock()

	for _, sh := range p.shards {
		close(sh.jobs)
	}
	p.wg.Wait()
}

func (p *Pipeline) queueDepth() int {
	depth := 0
	for _, sh := range p.shards {
		depth += len(sh.jobs)
	}
	return depth
}

// RoomDepth reports one room's tasks in flight (its watermark subject).
func (p *Pipeline) RoomDepth(room string) int {
	return p.shardFor(room).depthOf(room)
}

// Stats returns a snapshot of the counters.
func (p *Pipeline) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Workers:       len(p.shards),
		Submitted:     p.submitted,
		Completed:     p.completed.Load(),
		Rejected:      p.rejected,
		Blocked:       p.blocked,
		Shed:          p.shedNew + p.shedOldest,
		ShedNew:       p.shedNew,
		ShedOldest:    p.shedOldest,
		QueueDepth:    p.queueDepth(),
		MaxQueueDepth: p.maxDepth,
	}
}
