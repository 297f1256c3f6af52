package gen

import (
	"fmt"
	"sort"

	"semagent/internal/chat"
	"semagent/internal/simulate"
)

// Invariant names, the property vocabulary E14 reports against.
const (
	// InvDurability: no fsync'd journal mutation is lost across a crash
	// — every recovery replays at least up to the pre-crash durable
	// watermark, with zero apply errors, and no knowledge store shrinks.
	InvDurability = "durability"
	// InvFIFO: per-room FIFO — every client observes each sender's
	// messages in send order, and any two clients that both observe two
	// distinguishable messages observe them in the same order.
	InvFIFO = "room-fifo"
	// InvShedExact: shed accounting is exact — unconsumed ground-truth
	// expectations, the chat server's per-room shed attributions and
	// the pipeline's shed counters all agree.
	InvShedExact = "shed-exact"
	// InvPhantom: no verdict exists for a message the script never sent
	// (matched as a (room, user, text) multiset).
	InvPhantom = "no-phantom-verdict"
	// InvConservation: every scripted message is accounted for — it was
	// either supervised (has a verdict) or shed (left an unconsumed
	// expectation), and pipeline intake/outcome counters balance.
	InvConservation = "conservation"
	// InvFailover: a room's supervision survives its owner's death
	// exactly once per kill — every scripted node kill yields exactly
	// one promotion, the standby's shipped watermark covers everything
	// the dead owner fsync'd (unless the script deliberately impaired
	// the ship stream — then no-silent-loss takes over), the promotion
	// replay applies cleanly, and each moved room's fencing epoch
	// advances by exactly one.
	InvFailover = "failover-exactly-once"
	// InvShipResume: a ship stream either works or says so — at session
	// end no live node may combine nonzero replication lag with a clean
	// bill of health (no cut flag, no failure count, no error), and a
	// stream whose scripted faults were all healed must have caught up
	// completely.
	InvShipResume = "ship-resumes-or-surfaces"
	// InvPromoteOnce: every kill produces exactly one completed
	// promotion — interrupted failovers resume (exactly one resume per
	// scripted crash point) rather than redo or wedge, and no dead
	// incarnation is promoted twice.
	InvPromoteOnce = "promotion-completes-exactly-once"
	// InvNoSilentLoss: the failover audit tells the truth — Lossy is
	// set iff the standby's watermark trails the dead owner's fsync'd
	// watermark, and a kill whose ship stream was never impaired must
	// not lose anything.
	InvNoSilentLoss = "no-silent-loss"
	// InvSingleWriter: under clock skew the epoch fence holds — every
	// seized lease bumps the epoch by exactly one and fences the
	// deposed owner; every refused race leaves the epoch untouched and
	// carries the refusing error.
	InvSingleWriter = "single-writer-under-skew"
)

// InvariantNames lists every invariant in report order.
func InvariantNames() []string {
	return []string{
		InvDurability, InvFIFO, InvShedExact, InvPhantom, InvConservation, InvFailover,
		InvShipResume, InvPromoteOnce, InvNoSilentLoss, InvSingleWriter,
	}
}

// ClusterOnly reports whether an invariant can only be audited on a
// clustered run — single-node sweeps (E14) have no ship streams,
// promotions, or lease races to check, so these belong to E16/E17.
func ClusterOnly(name string) bool {
	switch name {
	case InvFailover, InvShipResume, InvPromoteOnce, InvNoSilentLoss, InvSingleWriter:
		return true
	}
	return false
}

// Violation is one invariant breach with enough detail to debug from
// the reproducing seed.
type Violation struct {
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

// Report is the outcome of checking one run: which invariants were
// applicable (a crash-free run cannot check durability; an inline run
// has no pipeline counters to cross-check) and every breach found.
type Report struct {
	Checked    []string    `json:"checked"`
	Violations []Violation `json:"violations,omitempty"`
}

// Check audits a completed run against every applicable invariant. It
// reads only exported Scenario/Result data, so tests can tamper with a
// copy of the observations to prove each checker actually fires.
func Check(sc *simulate.Scenario, res *simulate.Result) Report {
	rep := Report{Checked: []string{InvFIFO, InvPhantom, InvConservation}}
	rep.Violations = append(rep.Violations, checkFIFO(sc, res)...)
	rep.Violations = append(rep.Violations, checkPhantom(sc, res)...)
	rep.Violations = append(rep.Violations, checkConservation(res)...)
	if res.HasPipeline {
		rep.Checked = append(rep.Checked, InvShedExact)
		rep.Violations = append(rep.Violations, checkShedExact(sc, res)...)
	}
	if len(res.Recoveries) > 0 {
		rep.Checked = append(rep.Checked, InvDurability)
		rep.Violations = append(rep.Violations, checkDurability(res)...)
	}
	if sc.Cluster != nil {
		if scriptedKills(sc) > 0 {
			rep.Checked = append(rep.Checked, InvFailover, InvPromoteOnce, InvNoSilentLoss)
			rep.Violations = append(rep.Violations, checkFailover(sc, res)...)
			rep.Violations = append(rep.Violations, checkPromoteOnce(sc, res)...)
			rep.Violations = append(rep.Violations, checkNoSilentLoss(sc, res)...)
		}
		if len(res.ShipHealth) > 0 {
			rep.Checked = append(rep.Checked, InvShipResume)
			rep.Violations = append(rep.Violations, checkShipResume(sc, res)...)
		}
		if scriptedSkewRaces(sc) > 0 {
			rep.Checked = append(rep.Checked, InvSingleWriter)
			rep.Violations = append(rep.Violations, checkSingleWriter(res)...)
		}
	}
	sort.Strings(rep.Checked)
	return rep
}

// scriptedKills counts the StepKillNode steps in the script.
func scriptedKills(sc *simulate.Scenario) int {
	kills := 0
	for _, st := range sc.Steps {
		if st.Kind == simulate.StepKillNode {
			kills++
		}
	}
	return kills
}

// scriptedSkewRaces counts the StepSkewRace steps in the script.
func scriptedSkewRaces(sc *simulate.Scenario) int {
	races := 0
	for _, st := range sc.Steps {
		if st.Kind == simulate.StepSkewRace {
			races++
		}
	}
	return races
}

// lossyKills walks the script tracking each lineage's ship-stream
// impairment (cuts and sink faults set it, heals clear it, a kill
// consumes it — the successor starts a fresh stream) and returns the
// step indices of kills where standby loss is *permitted*. Permitted,
// not expected: an impaired stream with nothing left to ship still
// loses nothing.
func lossyKills(sc *simulate.Scenario) map[int]bool {
	impaired := make(map[string]bool)
	out := make(map[int]bool)
	for i, st := range sc.Steps {
		switch st.Kind {
		case simulate.StepCutShip, simulate.StepSinkFault:
			impaired[st.Node] = true
		case simulate.StepHealShip:
			impaired[st.Node] = false
		case simulate.StepKillNode:
			out[i] = impaired[st.Node]
			impaired[st.Node] = false
		}
	}
	return out
}

// stagedKills maps kill step index -> armed failover crash stage.
func stagedKills(sc *simulate.Scenario) map[int]int {
	out := make(map[int]int)
	for i, st := range sc.Steps {
		if st.Kind == simulate.StepKillNode && st.Stage > 0 {
			out[i] = st.Stage
		}
	}
	return out
}

// checkFailover audits every node-kill promotion: exactly one
// promotion per scripted kill, no fsync'd record beyond the standby's
// watermark, a clean replay, and monotone single-step epoch fencing —
// the same room never survives one death twice.
func checkFailover(sc *simulate.Scenario, res *simulate.Result) []Violation {
	var out []Violation
	if kills := scriptedKills(sc); len(res.Failovers) != kills {
		out = append(out, Violation{InvFailover, fmt.Sprintf(
			"%d node kills scripted but %d promotions recorded", kills, len(res.Failovers))})
	}
	// (room, pre-move epoch) pairs must be globally unique: a second
	// promotion of the same room at the same epoch would mean its
	// supervision "survived" one death twice.
	seen := make(map[string]bool)
	lossy := lossyKills(sc)
	for i, fo := range res.Failovers {
		if fo.ReplayErrors > 0 {
			out = append(out, Violation{InvFailover, fmt.Sprintf(
				"failover %d (%s -> %s): %d journal records failed to apply on promotion replay",
				i, fo.Dead, fo.Promoted, fo.ReplayErrors)})
		}
		if lossy[fo.Step] {
			// The script impaired this stream on purpose: the watermark
			// may trail, but replay must still cover everything the sink
			// DID receive (no-silent-loss audits the truthfulness).
			if fo.ReplayLastLSN < fo.SinkLastLSN {
				out = append(out, Violation{InvFailover, fmt.Sprintf(
					"failover %d (%s -> %s): promotion replay stopped at LSN %d below the standby's own watermark %d",
					i, fo.Dead, fo.Promoted, fo.ReplayLastLSN, fo.SinkLastLSN)})
			}
		} else {
			if fo.SinkLastLSN < fo.DeadSyncedLSN {
				out = append(out, Violation{InvFailover, fmt.Sprintf(
					"failover %d (%s -> %s): standby watermark %d below the dead owner's fsync'd %d — durable mutations lost",
					i, fo.Dead, fo.Promoted, fo.SinkLastLSN, fo.DeadSyncedLSN)})
			}
			if fo.ReplayLastLSN < fo.DeadSyncedLSN {
				out = append(out, Violation{InvFailover, fmt.Sprintf(
					"failover %d (%s -> %s): promotion replay stopped at LSN %d but LSN %d was fsync'd before the kill",
					i, fo.Dead, fo.Promoted, fo.ReplayLastLSN, fo.DeadSyncedLSN)})
			}
		}
		inMove := make(map[string]bool)
		for _, mv := range fo.Moves {
			if mv.EpochAfter != mv.EpochBefore+1 {
				out = append(out, Violation{InvFailover, fmt.Sprintf(
					"failover %d: room %s fencing epoch jumped %d -> %d, want exactly +1",
					i, mv.Room, mv.EpochBefore, mv.EpochAfter)})
			}
			if inMove[mv.Room] {
				out = append(out, Violation{InvFailover, fmt.Sprintf(
					"failover %d: room %s moved twice in one promotion", i, mv.Room)})
			}
			inMove[mv.Room] = true
			key := fmt.Sprintf("%s@%d", mv.Room, mv.EpochBefore)
			if seen[key] {
				out = append(out, Violation{InvFailover, fmt.Sprintf(
					"room %s at epoch %d survived two separate owner deaths", mv.Room, mv.EpochBefore)})
			}
			seen[key] = true
		}
	}
	return out
}

// checkPromoteOnce audits promotion multiplicity: one completed
// promotion per dead incarnation, and the resume counter must match
// the script — exactly one resume for a kill with an armed crash
// point, zero otherwise. A resume on a clean kill means the failover
// restarted work it had completed; a missing resume on a staged kill
// means the crash point never fired (or the promotion wedged and a
// fresh one was minted instead).
func checkPromoteOnce(sc *simulate.Scenario, res *simulate.Result) []Violation {
	var out []Violation
	staged := stagedKills(sc)
	seenDead := make(map[string]bool)
	for i, fo := range res.Failovers {
		dead := string(fo.Dead)
		if seenDead[dead] {
			out = append(out, Violation{InvPromoteOnce, fmt.Sprintf(
				"failover %d: dead incarnation %s promoted more than once", i, fo.Dead)})
		}
		seenDead[dead] = true
		wantResumes := 0
		if staged[fo.Step] > 0 {
			wantResumes = 1
		}
		if fo.Resumes != wantResumes {
			out = append(out, Violation{InvPromoteOnce, fmt.Sprintf(
				"failover %d (%s -> %s): %d promotion resumes recorded, want %d (crash stage %d scripted at step %d)",
				i, fo.Dead, fo.Promoted, fo.Resumes, wantResumes, staged[fo.Step], fo.Step)})
		}
	}
	return out
}

// checkNoSilentLoss audits the failover audit itself: the Lossy flag
// must equal the watermark comparison it claims to summarize, and a
// kill whose ship stream the script never impaired must not have lost
// anything — loss is only ever permitted where a fault was injected,
// and even there it must be declared.
func checkNoSilentLoss(sc *simulate.Scenario, res *simulate.Result) []Violation {
	var out []Violation
	lossy := lossyKills(sc)
	for i, fo := range res.Failovers {
		actualLoss := fo.SinkLastLSN < fo.DeadSyncedLSN
		if fo.Lossy != actualLoss {
			out = append(out, Violation{InvNoSilentLoss, fmt.Sprintf(
				"failover %d (%s -> %s): audit says lossy=%v but sink watermark %d vs dead fsync'd %d says %v",
				i, fo.Dead, fo.Promoted, fo.Lossy, fo.SinkLastLSN, fo.DeadSyncedLSN, actualLoss)})
		}
		if !lossy[fo.Step] && actualLoss {
			out = append(out, Violation{InvNoSilentLoss, fmt.Sprintf(
				"failover %d (%s -> %s): standby lost records (%d < %d) with no scripted ship impairment",
				i, fo.Dead, fo.Promoted, fo.SinkLastLSN, fo.DeadSyncedLSN)})
		}
	}
	return out
}

// checkShipResume audits the final replication-health snapshot: a live
// node with nonzero lag must be flagged as impaired (failed attempts
// or an outstanding error; a cut stream fails its ship attempts) — the
// silent stall this invariant is named for — and a
// lineage whose scripted faults were all healed must have caught up
// completely by the final settle.
func checkShipResume(sc *simulate.Scenario, res *simulate.Result) []Violation {
	var out []Violation
	// Re-walk the script to find lineages still impaired at session end.
	impaired := make(map[string]bool)
	for _, st := range sc.Steps {
		switch st.Kind {
		case simulate.StepCutShip, simulate.StepSinkFault:
			impaired[st.Node] = true
		case simulate.StepHealShip:
			impaired[st.Node] = false
		case simulate.StepKillNode:
			impaired[st.Node] = false
		}
	}
	for _, h := range res.ShipHealth {
		if !h.Live {
			continue // dead-awaiting-failover: audited by the promotion
		}
		surfaced := h.ShipFailures > 0 || h.ShipErr != ""
		if h.Lag > 0 && !surfaced {
			out = append(out, Violation{InvShipResume, fmt.Sprintf(
				"node %s: standby lags %d records (synced %d, sink %d) with a clean health report — silent ship stall",
				h.Node, h.Lag, h.SyncedLSN, h.SinkLSN)})
		}
		if !impaired[h.Base] && (h.Lag > 0 || h.ShipErr != "") {
			out = append(out, Violation{InvShipResume, fmt.Sprintf(
				"node %s: ship stream was healed (or never impaired) but ended lag=%d err=%q — stream did not resume",
				h.Node, h.Lag, h.ShipErr)})
		}
	}
	return out
}

// checkSingleWriter audits every clock-skewed lease race: a seizure
// must bump the fencing epoch by exactly one AND verifiably fence the
// deposed owner; a refusal must leave the epoch untouched and name the
// refusing error. Whichever clock the challenger believed, at most one
// node may hold a writable claim.
func checkSingleWriter(res *simulate.Result) []Violation {
	var out []Violation
	for i, lr := range res.LeaseRaces {
		if lr.Seized {
			if lr.EpochAfter != lr.EpochBefore+1 {
				out = append(out, Violation{InvSingleWriter, fmt.Sprintf(
					"race %d: %s seized %s with epoch %d -> %d, want exactly +1",
					i, lr.Challenger, lr.Room, lr.EpochBefore, lr.EpochAfter)})
			}
			if !lr.OldOwnerFenced {
				out = append(out, Violation{InvSingleWriter, fmt.Sprintf(
					"race %d: %s seized %s from %s but the deposed owner was NOT fenced — two writable claims",
					i, lr.Challenger, lr.Room, lr.Owner)})
			}
		} else {
			if lr.EpochAfter != lr.EpochBefore {
				out = append(out, Violation{InvSingleWriter, fmt.Sprintf(
					"race %d: refused race on %s moved the epoch %d -> %d",
					i, lr.Room, lr.EpochBefore, lr.EpochAfter)})
			}
			if lr.Refused == "" {
				out = append(out, Violation{InvSingleWriter, fmt.Sprintf(
					"race %d: race on %s neither seized nor carries a refusal error", i, lr.Room)})
			}
		}
	}
	return out
}

// scriptedSends walks the script and returns, per room, each sender's
// chat lines in send order (bursts expand in burst order).
func scriptedSends(sc *simulate.Scenario) map[string]map[string][]string {
	sends := make(map[string]map[string][]string)
	for _, st := range sc.Steps {
		if st.Kind != simulate.StepSay && st.Kind != simulate.StepBurst {
			continue
		}
		room := sends[st.Room]
		if room == nil {
			room = make(map[string][]string)
			sends[st.Room] = room
		}
		room[st.User] = append(room[st.User], st.Texts...)
	}
	return sends
}

// userRoom maps each participant to the room their script joins (the
// generator keeps every user in one room for the whole session).
func userRoom(sc *simulate.Scenario) map[string]string {
	rooms := make(map[string]string)
	for _, st := range sc.Steps {
		if st.Kind == simulate.StepJoin {
			if _, ok := rooms[st.User]; !ok {
				rooms[st.User] = st.Room
			}
		}
	}
	return rooms
}

// checkDurability audits every crash/recovery cycle: replay must cover
// the pre-crash durable (fsync'd) watermark with zero apply errors, and
// the rebuilt knowledge stores must not shrink.
func checkDurability(res *simulate.Result) []Violation {
	var out []Violation
	for i, rec := range res.Recoveries {
		if rec.ReplayErrors > 0 {
			out = append(out, Violation{InvDurability, fmt.Sprintf(
				"recovery %d: %d journal records failed to apply on replay", i, rec.ReplayErrors)})
		}
		if rec.ReplayLastLSN < rec.PreCrashSyncedLSN {
			out = append(out, Violation{InvDurability, fmt.Sprintf(
				"recovery %d: replay stopped at LSN %d but LSN %d was fsync'd before the crash — durable mutations lost",
				i, rec.ReplayLastLSN, rec.PreCrashSyncedLSN)})
		}
		if rec.CorpusAfter < rec.CorpusBefore {
			out = append(out, Violation{InvDurability, fmt.Sprintf(
				"recovery %d: corpus shrank across recovery (%d -> %d)", i, rec.CorpusBefore, rec.CorpusAfter)})
		}
		if rec.FAQAfter < rec.FAQBefore {
			out = append(out, Violation{InvDurability, fmt.Sprintf(
				"recovery %d: FAQ shrank across recovery (%d -> %d)", i, rec.FAQBefore, rec.FAQAfter)})
		}
	}
	return out
}

// checkFIFO audits per-room message ordering over the delivery log.
//
// Core check (always sound): for every client, the chat messages it
// received from one sender in one room must form a subsequence of that
// sender's scripted send sequence — same order, no duplicates, no
// inventions. Clients may legitimately miss a prefix (joined late,
// bounded history replay) or a suffix (dropped), but never reorder.
//
// Cross-receiver check: two clients must agree on the relative order of
// any two messages they both received. Restricted to senders whose
// scripted lines are pairwise distinct — repeated texts (spam floods)
// make message identity ambiguous under history truncation, so a
// repeated line cannot be attributed to a unique send.
func checkFIFO(sc *simulate.Scenario, res *simulate.Result) []Violation {
	var out []Violation
	sends := scriptedSends(sc)

	// Senders with pairwise-distinct texts, per room: eligible for the
	// cross-receiver order check under unambiguous identity.
	distinct := make(map[string]map[string]bool)
	for room, bySender := range sends {
		distinct[room] = make(map[string]bool)
		for sender, texts := range bySender {
			seen := make(map[string]bool, len(texts))
			ok := true
			for _, t := range texts {
				if seen[t] {
					ok = false
					break
				}
				seen[t] = true
			}
			distinct[room][sender] = ok
		}
	}

	type msgID struct {
		sender string
		idx    int
	}
	// Per (client, room): cursor per sender for the subsequence check,
	// and the identified message sequence for the cross-receiver check.
	type key struct{ client, room string }
	cursors := make(map[key]map[string]int)
	idSeqs := make(map[key][]msgID)
	for _, d := range res.Deliveries {
		if d.Type != chat.TypeChat || d.From == "" {
			continue
		}
		k := key{d.Client, d.Room}
		cur := cursors[k]
		if cur == nil {
			cur = make(map[string]int)
			cursors[k] = cur
		}
		seq := sends[d.Room][d.From]
		// Greedy subsequence match: find this text at or after the
		// sender cursor. Failure means a reorder, a duplicate delivery
		// or an invented message.
		pos := cur[d.From]
		found := -1
		for i := pos; i < len(seq); i++ {
			if seq[i] == d.Text {
				found = i
				break
			}
		}
		if found < 0 {
			out = append(out, Violation{InvFIFO, fmt.Sprintf(
				"client %s in %s: message %q from %s out of order (or not a pending send) after %d matched",
				d.Client, d.Room, d.Text, d.From, pos)})
			continue
		}
		cur[d.From] = found + 1
		if distinct[d.Room][d.From] {
			idSeqs[k] = append(idSeqs[k], msgID{d.From, found})
		}
	}

	// Cross-receiver order consistency, per room.
	byRoom := make(map[string][]key)
	for k := range idSeqs {
		byRoom[k.room] = append(byRoom[k.room], k)
	}
	for room, keys := range byRoom {
		sort.Slice(keys, func(i, j int) bool { return keys[i].client < keys[j].client })
		for i := 0; i < len(keys); i++ {
			for j := i + 1; j < len(keys); j++ {
				a, b := idSeqs[keys[i]], idSeqs[keys[j]]
				posA := make(map[msgID]int, len(a))
				for p, id := range a {
					posA[id] = p
				}
				last := -1
				for _, id := range b {
					p, ok := posA[id]
					if !ok {
						continue
					}
					if p < last {
						out = append(out, Violation{InvFIFO, fmt.Sprintf(
							"room %s: clients %s and %s disagree on the order of %s's message %d",
							room, keys[i].client, keys[j].client, id.sender, id.idx)})
					} else {
						last = p
					}
				}
			}
		}
	}
	return out
}

// checkPhantom audits the verdict log against the script: every verdict
// must correspond to a scripted (room, user, text) send, and no send
// may draw more verdicts than the script issued it.
func checkPhantom(sc *simulate.Scenario, res *simulate.Result) []Violation {
	var out []Violation
	budget := make(map[string]int)
	mk := func(room, user, text string) string { return room + "\x00" + user + "\x00" + text }
	for _, st := range sc.Steps {
		if st.Kind != simulate.StepSay && st.Kind != simulate.StepBurst {
			continue
		}
		for _, t := range st.Texts {
			budget[mk(st.Room, st.User, t)]++
		}
	}
	for _, e := range res.VerdictLog {
		k := mk(e.Room, e.User, e.Text)
		if budget[k] == 0 {
			out = append(out, Violation{InvPhantom, fmt.Sprintf(
				"verdict %q for message %q from %s in %s exceeds the scripted sends of that message",
				e.Verdict, e.Text, e.User, e.Room)})
			continue
		}
		budget[k]--
	}
	return out
}

// checkShedExact cross-checks the three independent shed observers: the
// recorder's unconsumed expectations (ground truth), the chat server's
// per-room OnShed attributions, and the pipeline's admission counters.
// Scenario crashes settle in-flight work first, so the equalities are
// exact, not bounds.
func checkShedExact(sc *simulate.Scenario, res *simulate.Result) []Violation {
	var out []Violation
	pt := res.PipelineTotal
	roomOf := userRoom(sc)

	var roomSum int64
	for _, n := range res.ShedByRoom {
		roomSum += int64(n)
	}
	if roomSum != pt.Shed {
		out = append(out, Violation{InvShedExact, fmt.Sprintf(
			"per-room shed attributions sum to %d but the pipeline shed %d", roomSum, pt.Shed)})
	}
	if int64(res.Unsupervised) != pt.Shed {
		out = append(out, Violation{InvShedExact, fmt.Sprintf(
			"%d scripted messages went unsupervised but the pipeline shed %d", res.Unsupervised, pt.Shed)})
	}
	// Per-room: unconsumed expectations, attributed to rooms via the
	// script's user->room mapping, must match OnShed's attribution.
	wantByRoom := make(map[string]int)
	for user, n := range res.UnsupervisedByUser {
		wantByRoom[roomOf[user]] += n
	}
	rooms := make(map[string]bool)
	for r := range wantByRoom {
		rooms[r] = true
	}
	for r := range res.ShedByRoom {
		rooms[r] = true
	}
	sorted := make([]string, 0, len(rooms))
	for r := range rooms {
		sorted = append(sorted, r)
	}
	sort.Strings(sorted)
	for _, r := range sorted {
		if wantByRoom[r] != res.ShedByRoom[r] {
			out = append(out, Violation{InvShedExact, fmt.Sprintf(
				"room %s: %d unconsumed expectations vs %d shed attributions",
				r, wantByRoom[r], res.ShedByRoom[r])})
		}
	}
	return out
}

// checkConservation audits that every scripted message is accounted
// for: supervised exactly once, or shed and counted as such — nothing
// vanishes, nothing is double-counted.
func checkConservation(res *simulate.Result) []Violation {
	var out []Violation
	if res.Sent != len(res.VerdictLog)+res.Unsupervised {
		out = append(out, Violation{InvConservation, fmt.Sprintf(
			"%d messages sent but %d supervised + %d unsupervised",
			res.Sent, len(res.VerdictLog), res.Unsupervised)})
	}
	if res.HasPipeline {
		pt := res.PipelineTotal
		if int64(res.Sent) != pt.Submitted+pt.ShedNew {
			out = append(out, Violation{InvConservation, fmt.Sprintf(
				"%d messages sent but pipeline accepted %d + refused %d at admission",
				res.Sent, pt.Submitted, pt.ShedNew)})
		}
		if pt.Submitted != pt.Completed+pt.ShedOldest {
			out = append(out, Violation{InvConservation, fmt.Sprintf(
				"pipeline accepted %d tasks but completed %d + evicted %d",
				pt.Submitted, pt.Completed, pt.ShedOldest)})
		}
	}
	return out
}
