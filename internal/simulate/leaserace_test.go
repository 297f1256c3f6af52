package simulate

import (
	"testing"
	"time"

	"semagent/internal/clock"
	"semagent/internal/cluster"
)

// TestRaceLeasesFencing: a challenger on a fast clock may seize a
// still-live lease — that is legitimate under skew — but the epoch
// fence must hold: the seizure bumps the epoch, the deposed owner's
// stale-epoch renewal is refused, and the room is handed straight back
// (epoch +2 total, owner unchanged).
func TestRaceLeasesFencing(t *testing.T) {
	vc := clock.NewVirtual(time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC))
	owners := cluster.NewOwnerMap(10*time.Second, vc)
	if _, err := owners.Acquire("room-a", "n1"); err != nil {
		t.Fatal(err)
	}
	before, _ := owners.Lookup("room-a")
	live := []cluster.NodeID{"n0", "n1"}

	// Fast clock: two lease spans ahead — the lease looks long expired.
	races, err := raceLeases(owners, vc.Now(), "n0", live, 2*owners.Lease())
	if err != nil {
		t.Fatalf("raceLeases: %v", err)
	}
	if len(races) != 1 {
		t.Fatalf("%d races, want 1 (n1's first room)", len(races))
	}
	r := races[0]
	if !r.Seized || !r.LeaseLive {
		t.Fatalf("skewed challenger should seize a live lease: %+v", r)
	}
	if r.EpochAfter != r.EpochBefore+1 {
		t.Fatalf("seizure epoch %d -> %d, want +1", r.EpochBefore, r.EpochAfter)
	}
	if !r.OldOwnerFenced {
		t.Fatalf("deposed owner was not fenced: %+v", r)
	}
	after, _ := owners.Lookup("room-a")
	if after.Node != "n1" || after.Epoch != before.Epoch+2 {
		t.Fatalf("hand-back left room at %s@%d, want n1@%d", after.Node, after.Epoch, before.Epoch+2)
	}

	// Mild skew inside the fresh lease: the race must lose, loudly.
	races, err = raceLeases(owners, vc.Now(), "n0", live, time.Second)
	if err != nil {
		t.Fatalf("raceLeases: %v", err)
	}
	if len(races) != 1 || races[0].Seized {
		t.Fatalf("mild skew should be refused: %+v", races)
	}
	if races[0].Refused == "" || races[0].EpochAfter != races[0].EpochBefore {
		t.Fatalf("refusal must carry the error and hold the epoch: %+v", races[0])
	}
	final, _ := owners.Lookup("room-a")
	if final.Node != "n1" || final.Epoch != after.Epoch {
		t.Fatalf("refused race moved the room: %+v", final)
	}
}
