package gen

import (
	"testing"

	"semagent/internal/chat"
	"semagent/internal/cluster"
	"semagent/internal/corpus"
	"semagent/internal/simulate"
)

// The meta-tests: every invariant checker is itself tested by injecting
// the violation class it exists to catch into a copy of a real run's
// observations and asserting the checker fires. A checker that passes
// HEAD but would also pass a broken system is worthless — this is the
// proof each one has teeth.

// tamperBase runs one kitchen-sink population (storms + drops + crash)
// and asserts it is clean, so any violation found after tampering was
// introduced by the tamper.
func tamperBase(t *testing.T) (*simulate.Scenario, *simulate.Result) {
	t.Helper()
	sc, res, _ := runProfile(t, Config{
		Seed: 63, Rooms: 5, Arrival: ArrivalBursty,
		DropFraction: 0.6, TornFraction: 0.5, StormFraction: 0.6,
		Crashes: 1,
	})
	if t.Failed() {
		t.Fatalf("baseline run must be violation-free before tampering")
	}
	return sc, res
}

// hasViolation reports whether rep contains a violation of the named
// invariant.
func hasViolation(rep Report, invariant string) bool {
	for _, v := range rep.Violations {
		if v.Invariant == invariant {
			return true
		}
	}
	return false
}

// shallowCopy clones the Result fields the checkers read, deep enough
// that tampering the copy cannot leak into sibling subtests.
func shallowCopy(res *simulate.Result) *simulate.Result {
	cp := *res
	cp.VerdictLog = append([]simulate.VerdictEntry(nil), res.VerdictLog...)
	cp.Deliveries = append([]simulate.Delivery(nil), res.Deliveries...)
	cp.Recoveries = append([]simulate.RecoveryStats(nil), res.Recoveries...)
	cp.ShedByRoom = make(map[string]int, len(res.ShedByRoom))
	for k, v := range res.ShedByRoom {
		cp.ShedByRoom[k] = v
	}
	cp.UnsupervisedByUser = make(map[string]int, len(res.UnsupervisedByUser))
	for k, v := range res.UnsupervisedByUser {
		cp.UnsupervisedByUser[k] = v
	}
	cp.Failovers = make([]simulate.FailoverStats, len(res.Failovers))
	for i, fo := range res.Failovers {
		cp.Failovers[i] = fo
		cp.Failovers[i].Moves = append([]cluster.RoomMove(nil), fo.Moves...)
	}
	cp.LeaseRaces = append([]simulate.LeaseRaceStats(nil), res.LeaseRaces...)
	cp.ShipHealth = append([]cluster.NodeHealth(nil), res.ShipHealth...)
	return &cp
}

func TestCheckersFire(t *testing.T) {
	sc, res := tamperBase(t)

	t.Run("durability/lost-fsync-record", func(t *testing.T) {
		cp := shallowCopy(res)
		// Recovery claims to have replayed short of the durable
		// watermark: an fsync'd mutation vanished.
		cp.Recoveries[0].ReplayLastLSN = cp.Recoveries[0].PreCrashSyncedLSN - 1
		if !hasViolation(Check(sc, cp), InvDurability) {
			t.Fatalf("durability checker ignored a replay below the fsync watermark")
		}
	})

	t.Run("durability/replay-errors", func(t *testing.T) {
		cp := shallowCopy(res)
		cp.Recoveries[0].ReplayErrors = 3
		if !hasViolation(Check(sc, cp), InvDurability) {
			t.Fatalf("durability checker ignored replay apply errors")
		}
	})

	t.Run("durability/store-shrank", func(t *testing.T) {
		cp := shallowCopy(res)
		cp.Recoveries[0].CorpusAfter = cp.Recoveries[0].CorpusBefore - 1
		if !hasViolation(Check(sc, cp), InvDurability) {
			t.Fatalf("durability checker ignored a corpus that shrank across recovery")
		}
	})

	t.Run("room-fifo/reordered-messages", func(t *testing.T) {
		cp := shallowCopy(res)
		i, j := findReorderableDeliveries(t, sc, cp)
		cp.Deliveries[i], cp.Deliveries[j] = cp.Deliveries[j], cp.Deliveries[i]
		if !hasViolation(Check(sc, cp), InvFIFO) {
			t.Fatalf("FIFO checker ignored two same-sender messages delivered out of order")
		}
	})

	t.Run("room-fifo/duplicate-delivery", func(t *testing.T) {
		cp := shallowCopy(res)
		i, _ := findReorderableDeliveries(t, sc, cp)
		cp.Deliveries = append(cp.Deliveries, cp.Deliveries[i])
		if !hasViolation(Check(sc, cp), InvFIFO) {
			t.Fatalf("FIFO checker ignored a duplicated delivery")
		}
	})

	t.Run("shed-exact/undercounted-room", func(t *testing.T) {
		cp := shallowCopy(res)
		room := someShedRoom(t, cp)
		cp.ShedByRoom[room]--
		if !hasViolation(Check(sc, cp), InvShedExact) {
			t.Fatalf("shed checker ignored an undercounted room attribution")
		}
	})

	t.Run("shed-exact/pipeline-mismatch", func(t *testing.T) {
		cp := shallowCopy(res)
		cp.PipelineTotal.Shed++
		cp.PipelineTotal.ShedNew++
		if !hasViolation(Check(sc, cp), InvShedExact) {
			t.Fatalf("shed checker ignored pipeline counters disagreeing with ground truth")
		}
	})

	t.Run("no-phantom-verdict/never-sent", func(t *testing.T) {
		cp := shallowCopy(res)
		cp.VerdictLog = append(cp.VerdictLog, simulate.VerdictEntry{
			Room: "room-00000", User: "r00000-con0",
			Text:    "this message was never scripted",
			Verdict: corpus.VerdictCorrect,
		})
		if !hasViolation(Check(sc, cp), InvPhantom) {
			t.Fatalf("phantom checker ignored a verdict for a never-sent message")
		}
	})

	t.Run("no-phantom-verdict/double-verdict", func(t *testing.T) {
		cp := shallowCopy(res)
		if len(cp.VerdictLog) == 0 {
			t.Fatalf("baseline has no verdicts to duplicate")
		}
		cp.VerdictLog = append(cp.VerdictLog, cp.VerdictLog[0])
		if !hasViolation(Check(sc, cp), InvPhantom) {
			t.Fatalf("phantom checker ignored the same send drawing two verdicts")
		}
	})

	t.Run("conservation/vanished-message", func(t *testing.T) {
		cp := shallowCopy(res)
		cp.Sent++
		if !hasViolation(Check(sc, cp), InvConservation) {
			t.Fatalf("conservation checker ignored a sent message with no outcome")
		}
	})

	t.Run("conservation/pipeline-leak", func(t *testing.T) {
		cp := shallowCopy(res)
		cp.PipelineTotal.Completed--
		if !hasViolation(Check(sc, cp), InvConservation) {
			t.Fatalf("conservation checker ignored an accepted task that never completed")
		}
	})
}

// TestFailoverCheckerFires: the failover invariant's meta-tests run on
// a cluster-shaped baseline (node kills are incompatible with
// StepCrash, so they cannot share tamperBase).
func TestFailoverCheckerFires(t *testing.T) {
	sc, res, _ := runProfile(t, Config{
		Seed: 59, Rooms: 6, Arrival: ArrivalPoisson,
		NodeKills: 2, Partitions: 1, ClusterNodes: 3,
	})
	if t.Failed() {
		t.Fatalf("baseline cluster run must be violation-free before tampering")
	}
	if len(res.Failovers) == 0 {
		t.Fatalf("baseline run recorded no failovers")
	}
	firstWithMoves := -1
	for i, fo := range res.Failovers {
		if len(fo.Moves) > 0 {
			firstWithMoves = i
			break
		}
	}

	t.Run("lost-promotion", func(t *testing.T) {
		cp := shallowCopy(res)
		cp.Failovers = cp.Failovers[:len(cp.Failovers)-1]
		if !hasViolation(Check(sc, cp), InvFailover) {
			t.Fatalf("failover checker ignored a scripted kill with no promotion")
		}
	})

	t.Run("standby-behind-fsync", func(t *testing.T) {
		cp := shallowCopy(res)
		cp.Failovers[0].SinkLastLSN = cp.Failovers[0].DeadSyncedLSN - 1
		if !hasViolation(Check(sc, cp), InvFailover) {
			t.Fatalf("failover checker ignored a standby watermark below the dead owner's fsync")
		}
	})

	t.Run("replay-errors", func(t *testing.T) {
		cp := shallowCopy(res)
		cp.Failovers[0].ReplayErrors = 2
		if !hasViolation(Check(sc, cp), InvFailover) {
			t.Fatalf("failover checker ignored promotion replay errors")
		}
	})

	t.Run("short-replay", func(t *testing.T) {
		cp := shallowCopy(res)
		cp.Failovers[0].ReplayLastLSN = cp.Failovers[0].DeadSyncedLSN - 1
		if !hasViolation(Check(sc, cp), InvFailover) {
			t.Fatalf("failover checker ignored a promotion replay below the fsync watermark")
		}
	})

	t.Run("epoch-jump", func(t *testing.T) {
		if firstWithMoves < 0 {
			t.Skip("no failover moved a room on this seed")
		}
		cp := shallowCopy(res)
		cp.Failovers[firstWithMoves].Moves[0].EpochAfter += 1
		if !hasViolation(Check(sc, cp), InvFailover) {
			t.Fatalf("failover checker ignored a fencing epoch that jumped by more than one")
		}
	})

	t.Run("double-survival", func(t *testing.T) {
		if firstWithMoves < 0 {
			t.Skip("no failover moved a room on this seed")
		}
		cp := shallowCopy(res)
		fo := &cp.Failovers[firstWithMoves]
		fo.Moves = append(fo.Moves, fo.Moves[0])
		if !hasViolation(Check(sc, cp), InvFailover) {
			t.Fatalf("failover checker ignored one room surviving the same death twice")
		}
	})
}

// TestAdversarialCheckersFire: meta-tests for the four adversarial
// invariants (ship-resume, promote-once, no-silent-loss,
// single-writer). The baseline schedules every adversarial fault class
// at once so each checker is applicable, then each subtest injects the
// exact lie its checker exists to catch.
func TestAdversarialCheckersFire(t *testing.T) {
	sc, res, plan := runProfile(t, Config{
		Seed: 63, Rooms: 4, Arrival: ArrivalPoisson,
		NodeKills: 2, PromotionCrashes: 1, LaggedKills: 1,
		ShipCuts: 1, SkewRaces: 2, ClusterNodes: 3,
	})
	if t.Failed() {
		t.Fatalf("baseline adversarial run must be violation-free before tampering")
	}
	if plan.PromotionCrashes != 1 || plan.LaggedKills != 1 || plan.ShipCuts != 1 || plan.SkewRaces != 2 {
		t.Fatalf("adversarial chaos not fully scheduled: %+v", plan)
	}
	if len(res.Failovers) == 0 || len(res.ShipHealth) == 0 {
		t.Fatalf("baseline recorded %d failovers and %d health entries — nothing to tamper",
			len(res.Failovers), len(res.ShipHealth))
	}
	liveAt := -1
	for i, h := range res.ShipHealth {
		if h.Live {
			liveAt = i
			break
		}
	}
	if liveAt < 0 {
		t.Fatalf("no live node in the final health snapshot")
	}

	t.Run("ship-resume/silent-stall", func(t *testing.T) {
		cp := shallowCopy(res)
		// A lagging standby whose health report claims nothing is wrong:
		// the exact silent death the invariant exists for.
		h := &cp.ShipHealth[liveAt]
		h.Lag, h.ShipFailures, h.ShipErr = 7, 0, ""
		h.SinkLSN = h.SyncedLSN - 7
		if !hasViolation(Check(sc, cp), InvShipResume) {
			t.Fatalf("ship-resume checker ignored a lagging standby with a clean health report")
		}
	})

	t.Run("ship-resume/healed-stream-still-cut", func(t *testing.T) {
		cp := shallowCopy(res)
		// The script healed every cut, yet a node ends the session with
		// its stream still severed: a cut stream fails every ship attempt,
		// so its health carries the failure.
		h := &cp.ShipHealth[liveAt]
		h.ShipFailures, h.ShipErr = 1, "ship stream severed (chaos)"
		if !hasViolation(Check(sc, cp), InvShipResume) {
			t.Fatalf("ship-resume checker ignored a healed stream that stayed cut")
		}
	})

	t.Run("promote-once/phantom-resume", func(t *testing.T) {
		cp := shallowCopy(res)
		cp.Failovers[0].Resumes++
		if !hasViolation(Check(sc, cp), InvPromoteOnce) {
			t.Fatalf("promote-once checker ignored a resume count disagreeing with the script")
		}
	})

	t.Run("promote-once/double-promotion", func(t *testing.T) {
		cp := shallowCopy(res)
		cp.Failovers = append(cp.Failovers, cp.Failovers[0])
		if !hasViolation(Check(sc, cp), InvPromoteOnce) {
			t.Fatalf("promote-once checker ignored the same dead incarnation promoted twice")
		}
	})

	t.Run("no-silent-loss/lying-audit", func(t *testing.T) {
		cp := shallowCopy(res)
		cp.Failovers[0].Lossy = !cp.Failovers[0].Lossy
		if !hasViolation(Check(sc, cp), InvNoSilentLoss) {
			t.Fatalf("no-silent-loss checker ignored a Lossy flag contradicting the watermarks")
		}
	})

	t.Run("no-silent-loss/unimpaired-loss", func(t *testing.T) {
		// Find a kill the script never impaired and make it lose data —
		// truthfully flagged, but loss without an injected fault.
		lossy := lossyKills(sc)
		clean := -1
		for i, fo := range res.Failovers {
			if !lossy[fo.Step] {
				clean = i
				break
			}
		}
		if clean < 0 {
			t.Skip("every kill on this seed was impaired")
		}
		cp := shallowCopy(res)
		cp.Failovers[clean].SinkLastLSN = cp.Failovers[clean].DeadSyncedLSN - 1
		cp.Failovers[clean].Lossy = true
		if !hasViolation(Check(sc, cp), InvNoSilentLoss) {
			t.Fatalf("no-silent-loss checker ignored data loss on an unimpaired kill")
		}
	})

	t.Run("single-writer/unfenced-seizure", func(t *testing.T) {
		cp := shallowCopy(res)
		cp.LeaseRaces = append(cp.LeaseRaces, simulate.LeaseRaceStats{
			Step: 0,
			LeaseRace: simulate.LeaseRace{
				Room: "room-00000", Challenger: "n1", Owner: "n0",
				Seized: true, EpochBefore: 3, EpochAfter: 4,
				OldOwnerFenced: false,
			},
		})
		if !hasViolation(Check(sc, cp), InvSingleWriter) {
			t.Fatalf("single-writer checker ignored a seizure that left the old owner unfenced")
		}
	})

	t.Run("single-writer/epoch-jump", func(t *testing.T) {
		cp := shallowCopy(res)
		cp.LeaseRaces = append(cp.LeaseRaces, simulate.LeaseRaceStats{
			Step: 0,
			LeaseRace: simulate.LeaseRace{
				Room: "room-00000", Challenger: "n1", Owner: "n0",
				Seized: true, EpochBefore: 3, EpochAfter: 6,
				OldOwnerFenced: true,
			},
		})
		if !hasViolation(Check(sc, cp), InvSingleWriter) {
			t.Fatalf("single-writer checker ignored a seizure whose epoch jumped by more than one")
		}
	})

	t.Run("single-writer/silent-refusal", func(t *testing.T) {
		cp := shallowCopy(res)
		cp.LeaseRaces = append(cp.LeaseRaces, simulate.LeaseRaceStats{
			Step: 0,
			LeaseRace: simulate.LeaseRace{
				Room: "room-00000", Challenger: "n1", Owner: "n0",
				Seized: false, EpochBefore: 3, EpochAfter: 3,
			},
		})
		if !hasViolation(Check(sc, cp), InvSingleWriter) {
			t.Fatalf("single-writer checker ignored a race that neither seized nor explains why not")
		}
	})
}

// findReorderableDeliveries picks two chat deliveries to the same
// client, in the same room, from the same sender, with different texts,
// where the sender's scripted lines are pairwise distinct — a pair
// whose swap is unambiguously a FIFO violation.
func findReorderableDeliveries(t *testing.T, sc *simulate.Scenario, res *simulate.Result) (int, int) {
	t.Helper()
	sends := scriptedSends(sc)
	distinctSender := func(room, sender string) bool {
		seen := make(map[string]bool)
		for _, txt := range sends[room][sender] {
			if seen[txt] {
				return false
			}
			seen[txt] = true
		}
		return true
	}
	type key struct{ client, room, from string }
	first := make(map[key]int)
	for i, d := range res.Deliveries {
		if d.Type != chat.TypeChat || d.From == "" {
			continue
		}
		k := key{d.Client, d.Room, d.From}
		if j, ok := first[k]; ok {
			if res.Deliveries[j].Text != d.Text && distinctSender(d.Room, d.From) {
				return j, i
			}
			continue
		}
		first[k] = i
	}
	t.Fatalf("no reorderable delivery pair in baseline run — grow the scenario")
	return 0, 0
}

// someShedRoom returns a room with a nonzero shed attribution.
func someShedRoom(t *testing.T, res *simulate.Result) string {
	t.Helper()
	for room, n := range res.ShedByRoom {
		if n > 0 {
			return room
		}
	}
	t.Fatalf("baseline run shed nothing — storms did not fire")
	return ""
}
