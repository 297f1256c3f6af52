package simulate

import (
	"fmt"
	"math/rand"
	"time"

	"semagent/internal/ontology"
	"semagent/internal/pipeline"
	"semagent/internal/workload"
)

// StepKind enumerates the scripted event types a scenario replays.
type StepKind int

// Step kinds.
const (
	// StepJoin connects a participant to a room.
	StepJoin StepKind = iota
	// StepSay sends one chat line and settles the whole stack.
	StepSay
	// StepBurst sends N lines back to back WITHOUT settling between
	// them — the rapid-fire / overload shape. With Scenario.GateBursts
	// the supervisor is held shut for the duration, so admission
	// control's shed decisions depend only on queue depths (which the
	// burst fills deterministically), not on worker timing. Without
	// admission control an async burst is paced (runner.pacedBurst):
	// the reader still blocks on the full shard, but which line blocks
	// and where each response lands among the echoes is fixed.
	StepBurst
	// StepLeave sends a protocol leave.
	StepLeave
	// StepDrop kills the connection abruptly — no leave message; with
	// Partial set, a torn half-written frame is left on the wire first
	// (the client-drop-mid-message fault injector).
	StepDrop
	// StepAdvance moves the virtual clock without any traffic (e.g. to
	// expire the corpora generator's QA-pairing window).
	StepAdvance
	// StepCrash simulates a process crash and recovery mid-session:
	// the server dies with the journal unsealed, every client is cut
	// off, and a fresh supervisor is rebuilt from the journal replay
	// (requires Scenario.Journal).
	StepCrash
	// StepKillNode crashes one cluster node (Step.Node names the
	// lineage, e.g. "n0"): its chat server dies and its journal is
	// abandoned unsealed, the virtual clock advances past the ownership
	// lease, and the fabric promotes the node's warm standby. Client
	// connections ride through the gateway — nobody re-dials (requires
	// Scenario.Cluster).
	StepKillNode
	// StepPartition severs every gateway→node connection to one node
	// (Step.Node) without killing it — a network partition. Links
	// reconnect to the same owner with Resume joins (requires
	// Scenario.Cluster).
	StepPartition
	// StepCutShip severs one lineage's WAL ship stream (Step.Node)
	// while its client edge stays up — the asymmetric partition. The
	// node keeps serving and fsync'ing; every ship attempt to its
	// standby fails (counted and surfaced) until StepHealShip (requires
	// Scenario.Cluster).
	StepCutShip
	// StepHealShip reconnects a severed ship stream (and clears any
	// injected sink fault); everything that accumulated while cut ships
	// immediately, re-shipped through the incarnation's OnSync hook.
	StepHealShip
	// StepSinkFault wedges one lineage's standby: every ship attempt
	// fails with a persistent apply error, visibly (failure counter,
	// Health report), until healed — or until a StepKillNode makes the
	// lag a lossy promotion.
	StepSinkFault
	// StepSkewRace gives one lineage (Step.Node) a clock skew
	// (Step.Skew) and has it race lease acquisition against every other
	// live lineage's rooms; the epoch fence must hold whatever the
	// skewed clock believes (requires Scenario.Cluster).
	StepSkewRace
)

// Step is one scripted event.
type Step struct {
	Kind StepKind
	User string
	Room string
	// Texts carries the chat line for StepSay (length 1) or the burst
	// lines for StepBurst; Expect carries the matching ground truth.
	Texts  []string
	Expect []workload.Kind
	// Advance is the virtual-clock movement for StepAdvance.
	Advance time.Duration
	// Partial marks a StepDrop that first writes a torn frame.
	Partial bool
	// Node names the target lineage for StepKillNode / StepPartition /
	// StepCutShip / StepHealShip / StepSinkFault / StepSkewRace
	// (e.g. "n1" — the base name, not an incarnation like "n1+2").
	Node string
	// Stage arms a deterministic crash point inside the failover that a
	// StepKillNode triggers (0 = clean failover; 1-4 are
	// cluster.StageFenced..StageMidPromote). The step then drives BOTH
	// failover calls: the interrupted one and the resume.
	Stage int
	// Skew is the challenger's clock offset for StepSkewRace.
	Skew time.Duration
}

// ClusterConfig runs a scenario on a room-partitioned multi-node
// fabric behind a gateway instead of a single in-process server
// (DESIGN.md D15). Requires Journal: failover replays the shipped WAL.
type ClusterConfig struct {
	// Nodes is the number of node lineages (default 2).
	Nodes int
	// Lease is the room-ownership lease (default 10s of virtual time).
	Lease time.Duration
}

// Scenario is a reproducible classroom session: a fixed seed, a server
// configuration and a fully materialized script. Scripts are generated
// at build time (from the seed), so a Scenario is pure data by the time
// it runs — the same Scenario always replays the same bytes.
type Scenario struct {
	Name        string
	Description string
	Seed        int64

	// Server shape.
	Async          bool
	Workers        int
	SuperviseQueue int
	HistorySize    int
	ShedPolicy     pipeline.ShedPolicy
	RoomHighWater  int
	// Journal runs the session over a write-ahead journal (required by
	// StepCrash). The journal syncs every record so the crash point is
	// deterministic.
	Journal bool
	// GateBursts holds supervision shut while a StepBurst floods, so
	// shedding is a pure function of queue depth. Async only.
	GateBursts bool
	// Cluster, when set, runs the session on a multi-node fabric
	// behind a gateway (enables StepKillNode / StepPartition; implies
	// Journal).
	Cluster *ClusterConfig

	// StepInterval is the virtual time between consecutive steps
	// (default 2s).
	StepInterval time.Duration

	// Personas maps each participant to their archetype.
	Personas map[string]PersonaKind

	Steps []Step
}

// scriptBuilder accumulates a scenario script with a deterministic
// workload generator and rng.
type scriptBuilder struct {
	sc  *Scenario
	g   *workload.Generator
	rng *rand.Rand
}

func newScript(sc *Scenario) *scriptBuilder {
	if sc.StepInterval <= 0 {
		sc.StepInterval = 2 * time.Second
	}
	if sc.Personas == nil {
		sc.Personas = make(map[string]PersonaKind)
	}
	return &scriptBuilder{
		sc: sc,
		// Two independent streams: the generator consumes its own seed
		// so persona rng draws cannot perturb sentence generation.
		g:   workload.NewGenerator(sc.Seed, ontology.BuildCourseOntology()),
		rng: rand.New(rand.NewSource(sc.Seed + 1)),
	}
}

func (b *scriptBuilder) join(user, room string, p PersonaKind) {
	b.sc.Personas[user] = p
	b.sc.Steps = append(b.sc.Steps, Step{Kind: StepJoin, User: user, Room: room})
}

// say scripts one in-persona utterance.
func (b *scriptBuilder) say(user, room string) {
	text, kind := b.sc.Personas[user].Utter(b.g, b.rng)
	b.sayText(user, room, text, kind)
}

func (b *scriptBuilder) sayText(user, room, text string, kind workload.Kind) {
	b.sc.Steps = append(b.sc.Steps, Step{
		Kind: StepSay, User: user, Room: room,
		Texts: []string{text}, Expect: []workload.Kind{kind},
	})
}

// ask scripts a question followed by a topical peer answer — the
// adjacency pair the corpora generator mines into the FAQ.
func (b *scriptBuilder) ask(asker, answerer, room string) {
	q := b.g.Question(false)
	b.sayText(asker, room, q.Text, workload.KindQuestion)
	if len(q.Topics) == 0 {
		return
	}
	answer := fmt.Sprintf("the %s is a useful structure", q.Topics[0])
	b.sayText(answerer, room, answer, workload.KindCorrect)
}

// burst scripts n rapid-fire lines from one (spammer) participant.
func (b *scriptBuilder) burst(user, room string, n int) {
	st := Step{Kind: StepBurst, User: user, Room: room}
	for i := 0; i < n; i++ {
		text, kind := b.sc.Personas[user].Utter(b.g, b.rng)
		st.Texts = append(st.Texts, text)
		st.Expect = append(st.Expect, kind)
	}
	b.sc.Steps = append(b.sc.Steps, st)
}

func (b *scriptBuilder) leave(user, room string) {
	b.sc.Steps = append(b.sc.Steps, Step{Kind: StepLeave, User: user, Room: room})
}

func (b *scriptBuilder) drop(user, room string, partial bool) {
	b.sc.Steps = append(b.sc.Steps, Step{Kind: StepDrop, User: user, Room: room, Partial: partial})
}

func (b *scriptBuilder) advance(d time.Duration) {
	b.sc.Steps = append(b.sc.Steps, Step{Kind: StepAdvance, Advance: d})
}

func (b *scriptBuilder) crash() {
	b.sc.Steps = append(b.sc.Steps, Step{Kind: StepCrash})
}

func (b *scriptBuilder) killNode(node string) {
	b.sc.Steps = append(b.sc.Steps, Step{Kind: StepKillNode, Node: node})
}

func (b *scriptBuilder) partition(node string) {
	b.sc.Steps = append(b.sc.Steps, Step{Kind: StepPartition, Node: node})
}

func (b *scriptBuilder) cutShip(node string) {
	b.sc.Steps = append(b.sc.Steps, Step{Kind: StepCutShip, Node: node})
}

func (b *scriptBuilder) healShip(node string) {
	b.sc.Steps = append(b.sc.Steps, Step{Kind: StepHealShip, Node: node})
}

func (b *scriptBuilder) sinkFault(node string) {
	b.sc.Steps = append(b.sc.Steps, Step{Kind: StepSinkFault, Node: node})
}

func (b *scriptBuilder) killNodeStaged(node string, stage int) {
	b.sc.Steps = append(b.sc.Steps, Step{Kind: StepKillNode, Node: node, Stage: stage})
}

func (b *scriptBuilder) skewRace(node string, skew time.Duration) {
	b.sc.Steps = append(b.sc.Steps, Step{Kind: StepSkewRace, Node: node, Skew: skew})
}
