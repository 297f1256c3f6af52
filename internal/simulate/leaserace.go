package simulate

import (
	"errors"
	"fmt"
	"time"

	"semagent/internal/cluster"
)

// LeaseRace records one clock-skewed acquisition attempt against
// another lineage's room. Safety under skew is NOT "the seizure was
// refused" — a skewed clock may legitimately see an expired lease —
// it is the fence: a seizure bumps the epoch and the deposed owner's
// next epoch-checked write is refused.
type LeaseRace struct {
	Room       string         `json:"room"`
	Challenger cluster.NodeID `json:"challenger"`
	Owner      cluster.NodeID `json:"owner"`
	// LeaseLive reports whether the owner's lease was still live on the
	// UNSKEWED clock at race time.
	LeaseLive bool  `json:"lease_live"`
	SkewMS    int64 `json:"skew_ms"`
	Seized    bool  `json:"seized"`
	// Refused carries the refusal error when the race lost.
	Refused     string `json:"refused,omitempty"`
	EpochBefore uint64 `json:"epoch_before"`
	EpochAfter  uint64 `json:"epoch_after"`
	// OldOwnerFenced: after a seizure, the deposed owner renewing with
	// its old epoch on the unskewed clock got ErrFenced. This is the
	// single-writer guarantee; it must be true for every seizure.
	OldOwnerFenced bool `json:"old_owner_fenced,omitempty"`
}

// raceLeases has the challenger attempt an Acquire at now+skew — a
// node whose clock runs fast sees leases expire early — on the first
// room of every other live node (live in id order), records whether the
// epoch fence held, and, because the challenger holds no replica of a
// seized room's state, hands every seized room straight back via
// Handoff (bumping the epoch again). The room's service never moves;
// what the race probes is the ownership map's safety under disagreeing
// clocks. Callers must re-route any links for seized rooms (their
// routed epoch is now stale twice over).
func raceLeases(owners *cluster.OwnerMap, now time.Time, challenger cluster.NodeID, live []cluster.NodeID, skew time.Duration) ([]LeaseRace, error) {
	var races []LeaseRace
	for _, owner := range live {
		if owner == challenger {
			continue
		}
		rooms := owners.Rooms(owner)
		if len(rooms) == 0 {
			continue
		}
		room := rooms[0]
		before, _ := owners.Lookup(room)
		race := LeaseRace{
			Room: room, Challenger: challenger, Owner: owner,
			LeaseLive:   now.Before(before.Expires),
			SkewMS:      skew.Milliseconds(),
			EpochBefore: before.Epoch,
			EpochAfter:  before.Epoch,
		}
		after, err := owners.AcquireAt(now.Add(skew), room, challenger)
		if err != nil {
			race.Refused = err.Error()
		} else {
			race.Seized = true
			race.EpochAfter = after.Epoch
			_, rerr := owners.RenewAt(now, room, owner, before.Epoch)
			race.OldOwnerFenced = errors.Is(rerr, cluster.ErrFenced)
			if _, err := owners.Handoff(room, challenger, owner, after.Epoch); err != nil {
				return races, fmt.Errorf("hand back %s after race: %w", room, err)
			}
		}
		races = append(races, race)
	}
	return races, nil
}
