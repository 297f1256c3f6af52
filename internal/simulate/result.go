package simulate

import (
	"sort"

	"semagent/internal/chat"
	"semagent/internal/cluster"
	"semagent/internal/core"
	"semagent/internal/corpus"
	"semagent/internal/journal"
	"semagent/internal/pipeline"
	"semagent/internal/workload"
)

// PersonaStats scores one persona's session: how much it spoke, how
// much of that was supervised (vs shed), and how the stack's verdicts
// compare to the scripted ground truth. "Flagging" means a syntax- or
// semantic-error verdict — the interventions E13 scores.
type PersonaStats struct {
	Persona    PersonaKind `json:"persona"`
	Sent       int         `json:"sent"`
	Supervised int         `json:"supervised"`
	Shed       int         `json:"shed"`

	// Detection confusion over supervised messages.
	TruePos  int `json:"true_pos"`
	FalsePos int `json:"false_pos"`
	FalseNeg int `json:"false_neg"`
	TrueNeg  int `json:"true_neg"`

	// Question routing.
	Questions int `json:"questions"`
	Answered  int `json:"answered"`
}

// Precision is TP/(TP+FP); 1 when nothing was flagged.
func (s *PersonaStats) Precision() float64 {
	if s.TruePos+s.FalsePos == 0 {
		return 1
	}
	return float64(s.TruePos) / float64(s.TruePos+s.FalsePos)
}

// Recall is TP/(TP+FN); 1 when nothing was there to find.
func (s *PersonaStats) Recall() float64 {
	if s.TruePos+s.FalseNeg == 0 {
		return 1
	}
	return float64(s.TruePos) / float64(s.TruePos+s.FalseNeg)
}

// RecoveryStats reports a StepCrash outcome. The LSN watermarks are
// what the durability invariant audits: everything fsync'd before the
// crash (PreCrashSyncedLSN) must be covered by the replay
// (ReplayLastLSN) with zero apply errors — a lost fsync'd mutation is
// exactly a replay that ends below the pre-crash synced watermark.
type RecoveryStats struct {
	ReplayedRecords int `json:"replayed_records"`
	CorpusBefore    int `json:"corpus_before"`
	CorpusAfter     int `json:"corpus_after"`
	FAQBefore       int `json:"faq_before"`
	FAQAfter        int `json:"faq_after"`

	// PreCrashLSN / PreCrashSyncedLSN are the journal's last assigned
	// and last durably fsync'd LSNs at the moment of the crash.
	PreCrashLSN       uint64 `json:"pre_crash_lsn"`
	PreCrashSyncedLSN uint64 `json:"pre_crash_synced_lsn"`
	// ReplayLastLSN is the highest LSN recovery saw; ReplayErrors counts
	// records that failed to apply.
	ReplayLastLSN uint64 `json:"replay_last_lsn"`
	ReplayErrors  int    `json:"replay_errors"`
}

// FailoverStats reports one StepKillNode outcome: the fabric promotion
// record plus the step at which the kill landed. The failover invariant
// audits it the way the durability invariant audits RecoveryStats: the
// standby's shipped watermark (SinkLastLSN) must cover everything the
// dead node had fsync'd (DeadSyncedLSN) and the promotion replay must
// apply cleanly.
type FailoverStats struct {
	// Step is the 0-based scripted step of the StepKillNode.
	Step int `json:"step"`
	cluster.Promotion
}

// LeaseRaceStats reports one StepSkewRace acquisition attempt: the
// fabric's race record plus the step at which it ran. The
// single-writer invariant audits it: a seizure must bump the epoch and
// fence the deposed owner; a refusal must carry the refusing error.
type LeaseRaceStats struct {
	// Step is the 0-based scripted step of the StepSkewRace.
	Step int `json:"step"`
	LeaseRace
}

// Delivery is one message observed at a client, in arrival order — the
// structured counterpart of a transcript line. The chaos invariant
// checkers consume these instead of parsing transcript text: per-room
// FIFO is asserted over the Delivery sequence of each client.
type Delivery struct {
	// Step is the 0-based scripted step during which the message was
	// drained (len(Steps) for the final settle).
	Step   int          `json:"step"`
	Client string       `json:"client"`
	Type   chat.MsgType `json:"type"`
	Room   string       `json:"room"`
	From   string       `json:"from,omitempty"`
	Agent  string       `json:"agent,omitempty"`
	Text   string       `json:"text"`
}

// Result is everything a scenario run produced: the byte-exact
// transcript and the aggregate statistics E13 and the golden tests
// consume.
type Result struct {
	Scenario   *Scenario
	Transcript []byte

	// Sent counts scripted chat lines; Supervised the ones that reached
	// the supervisor; Unsupervised the remainder (shed or cut off).
	Sent, Supervised, Unsupervised int

	// Verdicts histograms the supervisor's outcomes.
	Verdicts map[corpus.Verdict]int
	// Interventions counts agent responses by responder name.
	Interventions map[string]int
	// PerPersona scores each persona present in the scenario.
	PerPersona map[PersonaKind]*PersonaStats

	// VerdictLog is the session-wide per-message supervision log in
	// processing order (it survives crash/recovery — the recorder does).
	VerdictLog []VerdictEntry
	// Deliveries is every message every client received, in drain order.
	Deliveries []Delivery
	// UnsupervisedByUser counts, per sender, the scripted messages whose
	// supervision never ran (shed by admission control).
	UnsupervisedByUser map[string]int
	// ShedByRoom counts supervision sheds per room, observed through the
	// chat server's OnShed seam as admission control drops them.
	ShedByRoom map[string]int

	// MinedPairs and FAQLen report the corpora generator's QA mining.
	MinedPairs int
	FAQLen     int

	Pipeline    pipeline.Stats
	HasPipeline bool
	// PipelineTotal accumulates pipeline counters across the whole
	// session, including pipelines torn down by crash/recovery cycles
	// (Pipeline alone covers only the final incarnation).
	PipelineTotal pipeline.Stats
	Journal       *journal.Stats
	// Recovery reports the last crash/recovery cycle; Recoveries all of
	// them in order.
	Recovery   *RecoveryStats
	Recoveries []RecoveryStats
	// Failovers reports every StepKillNode promotion, in step order
	// (cluster mode only).
	Failovers []FailoverStats
	// LeaseRaces reports every StepSkewRace acquisition attempt, in
	// step order (cluster mode only).
	LeaseRaces []LeaseRaceStats
	// ShipHealth is the fabric's final replication-health snapshot,
	// taken after the last settle and before teardown. A healthy run
	// ends with zero lag and no impairment flags on every live node;
	// the ship-resumes-or-surfaces invariant audits exactly that.
	ShipHealth []cluster.NodeHealth

	// report is the instructor-facing analyzer summary (post-recovery
	// only, when the scenario crashed: the analyzer is not journaled).
	report string
}

// Report returns the instructor-facing learning-statistics summary.
func (r *Result) Report() string { return r.report }

// Personas returns the per-persona stats in stable (name) order.
func (r *Result) Personas() []*PersonaStats {
	out := make([]*PersonaStats, 0, len(r.PerPersona))
	for _, s := range r.PerPersona {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Persona < out[j].Persona })
	return out
}

func buildResult(r *runner, pst pipeline.Stats, hasPipe bool, jstats *journal.Stats) *Result {
	res := &Result{
		Scenario:      r.sc,
		Verdicts:      make(map[corpus.Verdict]int),
		Interventions: make(map[string]int),
		PerPersona:    make(map[PersonaKind]*PersonaStats),
		VerdictLog:    r.rec.entries(),
		Deliveries:    r.deliveries,
		ShedByRoom:    r.copyShedByRoom(),
		MinedPairs:    r.minedPairs(),
		FAQLen:        r.faqLen(),
		Pipeline:      pst,
		HasPipeline:   hasPipe,
		PipelineTotal: r.pipeTotal.Merge(pst),
		Journal:       jstats,
		Recovery:      r.recovery,
		Recoveries:    r.recoveries,
		Failovers:     r.failovers,
		LeaseRaces:    r.leaseRaces,
		report:        r.analyzerReport(),
	}
	if r.cluster != nil {
		res.ShipHealth = r.cluster.fab.Health()
	}
	persona := func(user string) *PersonaStats {
		kind := r.sc.Personas[user]
		s := res.PerPersona[kind]
		if s == nil {
			s = &PersonaStats{Persona: kind}
			res.PerPersona[kind] = s
		}
		return s
	}
	// Every participant appears, even all-quiet lurkers.
	for user := range r.sc.Personas {
		persona(user)
	}
	for user, n := range r.sentByUser {
		res.Sent += n
		persona(user).Sent += n
	}
	for _, e := range res.VerdictLog {
		res.Supervised++
		res.Verdicts[e.Verdict]++
		s := persona(e.User)
		s.Supervised++
		for _, agent := range e.Agents {
			res.Interventions[agent]++
		}
		flagged := e.Verdict == corpus.VerdictSyntaxError || e.Verdict == corpus.VerdictSemanticError
		should := ShouldFlag(e.Expect)
		switch {
		case flagged && should:
			s.TruePos++
		case flagged && !should:
			s.FalsePos++
		case !flagged && should:
			s.FalseNeg++
		default:
			s.TrueNeg++
		}
		if e.Expect == workload.KindQuestion {
			s.Questions++
			for _, agent := range e.Agents {
				if agent == core.AgentQA {
					s.Answered++
					break
				}
			}
		}
	}
	res.UnsupervisedByUser = make(map[string]int)
	for user, kinds := range r.rec.unsupervised() {
		res.Unsupervised += len(kinds)
		res.UnsupervisedByUser[user] = len(kinds)
		persona(user).Shed += len(kinds)
	}
	return res
}
