package eval

import (
	"strings"
	"testing"

	"semagent/internal/simulate/gen"
)

// TestE14SmallSweep: a bounded sweep must cover every chaos profile,
// audit every invariant class, and hold them all at HEAD.
func TestE14SmallSweep(t *testing.T) {
	res, err := RunE14(E14Config{Rooms: 12, Seed: 3})
	if err != nil {
		t.Fatalf("RunE14: %v", err)
	}
	if res.Waves < 4 {
		t.Fatalf("swept %d waves, want >= 4 (one per chaos profile)", res.Waves)
	}
	if res.Rooms != 12 {
		t.Fatalf("swept %d rooms, want 12", res.Rooms)
	}
	if res.Messages == 0 || res.Students == 0 {
		t.Fatalf("empty sweep: %+v", res)
	}
	if res.Faults.Drops == 0 || res.Faults.Storms == 0 || res.Faults.Crashes == 0 {
		t.Fatalf("profile rotation missed a fault class: %+v", res.Faults)
	}
	for _, name := range gen.InvariantNames() {
		if gen.ClusterOnly(name) {
			// Only clustered scenarios can audit failover, shipping,
			// promotion, and lease invariants; E14's sweep is single-node
			// by design — E16/E17's sweeps own those.
			continue
		}
		if res.InvariantChecks[name] == 0 {
			t.Errorf("invariant %s was never audited: %v", name, res.InvariantChecks)
		}
	}
	if len(res.Violations) != 0 {
		t.Fatalf("invariant violations at HEAD: %+v", res.Violations)
	}
	if err := res.Failed(); err != nil {
		t.Fatalf("Failed() = %v on a clean sweep", err)
	}
}

// TestE14FailedReportsSeed: a violated sweep must fail with the
// reproducing seed in the message.
func TestE14FailedReportsSeed(t *testing.T) {
	res := &E14Result{
		Config: E14Config{Rooms: 40, Seed: 17},
		Violations: []E14Violation{
			{Wave: 3, Seed: 99, Invariant: gen.InvFIFO, Detail: "x"},
		},
	}
	err := res.Failed()
	if err == nil {
		t.Fatalf("Failed() = nil with violations present")
	}
	for _, want := range []string{"seed 99", "-seed 17", "-rooms 40", gen.InvFIFO} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Failed() = %q, missing %q", err, want)
		}
	}
}
