package eval

import (
	"encoding/json"
	"testing"
	"time"
)

func TestConfusionMetrics(t *testing.T) {
	var c Confusion
	// 8 true positives, 2 false positives, 9 true negatives, 1 false negative.
	for i := 0; i < 8; i++ {
		c.Observe(true, true)
	}
	for i := 0; i < 2; i++ {
		c.Observe(true, false)
	}
	for i := 0; i < 9; i++ {
		c.Observe(false, false)
	}
	c.Observe(false, true)

	if got := c.Precision(); got != 0.8 {
		t.Errorf("precision = %v", got)
	}
	if got := c.Recall(); got < 0.888 || got > 0.889 {
		t.Errorf("recall = %v", got)
	}
	if got := c.Accuracy(); got != 0.85 {
		t.Errorf("accuracy = %v", got)
	}
	if c.F1() <= 0 || c.F1() > 1 {
		t.Errorf("f1 = %v", c.F1())
	}
	var zero Confusion
	if zero.Precision() != 0 || zero.Recall() != 0 || zero.F1() != 0 || zero.Accuracy() != 0 {
		t.Error("zero matrix should report zeros, not NaN")
	}
}

func TestLatencies(t *testing.T) {
	var l Latencies
	for i := 1; i <= 100; i++ {
		l.Record(time.Duration(i) * time.Millisecond)
	}
	if got := l.Quantile(0.5); got < 45*time.Millisecond || got > 55*time.Millisecond {
		t.Errorf("p50 = %v", got)
	}
	if got := l.Quantile(0.99); got < 95*time.Millisecond {
		t.Errorf("p99 = %v", got)
	}
	if got := l.Mean(); got != 50500*time.Microsecond {
		t.Errorf("mean = %v", got)
	}
	var empty Latencies
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Error("empty latencies should report zero")
	}
}

func TestRunE1ParserQuality(t *testing.T) {
	res, err := RunE1(150, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 150 {
		t.Errorf("total = %d", res.Total)
	}
	// Generated sentences are grammatical by construction; the parser
	// must accept nearly all of them (E1's headline number).
	if rate := res.ParseRate(); rate < 0.95 {
		t.Errorf("parse rate = %.3f, want >= 0.95", rate)
	}
	if res.MetaViolations != 0 {
		t.Errorf("meta-rule violations = %d, want 0", res.MetaViolations)
	}
}

func TestRunE2SyntaxDetection(t *testing.T) {
	res, err := RunE2(200, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Confusion.Total() != 200 {
		t.Errorf("total = %d", res.Confusion.Total())
	}
	// The detector must beat chance decisively on both axes.
	if res.Confusion.Precision() < 0.8 {
		t.Errorf("precision = %.3f: %s", res.Confusion.Precision(), res.Confusion)
	}
	if res.Confusion.Recall() < 0.6 {
		t.Errorf("recall = %.3f: %s", res.Confusion.Recall(), res.Confusion)
	}
	if res.SuggestionRate <= 0 {
		t.Error("suggestion rate is zero despite corpus warm-up")
	}
}

func TestRunE2NullBudgetAblation(t *testing.T) {
	// D1: a zero null budget (stock link grammar) must not beat the
	// fault-tolerant configuration on F1 by a large margin — the
	// enhanced parser exists to locate errors, not to change detection.
	strict, err := RunE2(120, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	tolerant, err := RunE2(120, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tolerant.Confusion.Accuracy() < strict.Confusion.Accuracy()-0.15 {
		t.Errorf("tolerant parser collapsed: strict=%.3f tolerant=%.3f",
			strict.Confusion.Accuracy(), tolerant.Confusion.Accuracy())
	}
}

func TestRunE3SemanticAccuracy(t *testing.T) {
	res, err := RunE3(300, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Confusion.Total() == 0 {
		t.Fatal("no judged samples")
	}
	// The ontology-distance checker should be near-perfect on the
	// synthetic truth table built from its own ontology.
	if acc := res.Confusion.Accuracy(); acc < 0.9 {
		t.Errorf("accuracy = %.3f: %s", acc, res.Confusion)
	}
	// All four truth-table cells must be exercised.
	for _, cell := range []string{"affirm-related", "affirm-unrelated", "negate-related", "negate-unrelated"} {
		if res.Cells[cell] == nil || res.Cells[cell].Total() == 0 {
			t.Errorf("cell %s not exercised", cell)
		}
	}
}

func TestRunE4QAAnswering(t *testing.T) {
	res, err := RunE4(200, 5, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if rate := res.AnswerRate(); rate < 0.9 {
		t.Errorf("in-ontology answer rate = %.3f", rate)
	}
	if res.OutOfOntologyAsked == 0 {
		t.Error("no out-of-ontology probes")
	}
	if res.OutOfOntologyAnswered > res.OutOfOntologyAsked/5 {
		t.Errorf("answered %d/%d out-of-ontology questions",
			res.OutOfOntologyAnswered, res.OutOfOntologyAsked)
	}
	// Yes/no questions must be answered correctly, not just answered.
	for _, row := range res.Rows {
		if row.Checkable > 0 {
			correctRate := float64(row.Correct) / float64(row.Checkable)
			if correctRate < 0.85 {
				t.Errorf("template %s: correct rate %.3f (%d/%d)",
					row.Template, correctRate, row.Correct, row.Checkable)
			}
		}
	}
}

func TestRunE5FAQGrowth(t *testing.T) {
	rows, err := RunE5([]int{50, 200}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].FAQEntries < rows[0].FAQEntries {
		t.Errorf("FAQ shrank with more dialogue: %+v", rows)
	}
	if rows[1].FAQEntries == 0 {
		t.Error("no FAQ entries after 200 messages")
	}
}

func TestRunE6EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("network experiment")
	}
	for _, mode := range []E6Mode{E6Off, E6Inline, E6Async} {
		res, err := RunE6(E6Config{Rooms: 1, ClientsPerRoom: 3, MessagesEach: 4, Mode: mode, Seed: 7})
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		if res.Messages != 12 {
			t.Errorf("mode %s: messages = %d", mode, res.Messages)
		}
		if res.Throughput <= 0 || res.P50 <= 0 {
			t.Errorf("mode %s: degenerate result %+v", mode, res)
		}
	}
}

func TestRunE7Ablation(t *testing.T) {
	res, err := RunE7(200, 8)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's stated reason for choosing the ontology method is
	// maintenance cost: the lexicalized baseline must be strictly
	// larger to maintain.
	if res.SLG.MaintenanceSize <= res.Onto.MaintenanceSize {
		t.Errorf("maintenance: slg=%d onto=%d", res.SLG.MaintenanceSize, res.Onto.MaintenanceSize)
	}
	// And the ontology method must not lose accuracy for it.
	if res.Onto.Confusion.Accuracy() < res.SLG.Confusion.Accuracy()-0.05 {
		t.Errorf("accuracy: onto=%.3f slg=%.3f",
			res.Onto.Confusion.Accuracy(), res.SLG.Confusion.Accuracy())
	}
}

func TestRunE8SuggestionsImproveWithCorpus(t *testing.T) {
	rows, err := RunE8([]int{0, 200}, 60, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].HitRate > 0 {
		t.Errorf("empty corpus produced suggestions: %+v", rows[0])
	}
	if rows[1].HitRate <= rows[0].HitRate {
		t.Errorf("suggestions did not improve with corpus: %+v", rows)
	}
}

func TestRunE10SnapshotReadPath(t *testing.T) {
	res, err := RunE10(E10Config{Workers: []int{1, 2}, QueriesPerWorker: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Arms) != 2 {
		t.Fatalf("arms = %d, want 2 (one per width)", len(res.Arms))
	}
	for _, arm := range res.Arms {
		if arm.Queries != arm.Workers*500 {
			t.Errorf("%dw queries = %d", arm.Workers, arm.Queries)
		}
		if arm.QueriesPerSec <= 0 {
			t.Errorf("%dw throughput not positive", arm.Workers)
		}
	}
	if res.Snapshot.Items == 0 || res.Snapshot.TableEntries == 0 {
		t.Errorf("snapshot stats empty: %+v", res.Snapshot)
	}
	// The result must be JSON-marshalable: the harness emits it for the
	// perf trajectory (-json).
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back E10Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Snapshot.Items != res.Snapshot.Items || len(back.Arms) != len(res.Arms) {
		t.Errorf("JSON round trip lost data")
	}
}

func TestRunE11JournalOverheadAndRecovery(t *testing.T) {
	res, err := RunE11(E11Config{Rooms: 2, MessagesPerRoom: 8, Seed: 11, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Arms) != 3 {
		t.Fatalf("arms = %d, want 3", len(res.Arms))
	}
	total := res.Config.Rooms * res.Config.MessagesPerRoom
	for _, arm := range res.Arms {
		if arm.Messages != total {
			t.Errorf("%s: messages = %d, want %d", arm.Name, arm.Messages, total)
		}
		if arm.Throughput <= 0 {
			t.Errorf("%s: throughput = %f", arm.Name, arm.Throughput)
		}
	}
	for _, arm := range res.Arms[1:] {
		if arm.Records == 0 {
			t.Errorf("%s: no WAL records appended", arm.Name)
		}
		// The crash-recovery proof: the corpus survives in full.
		if arm.RecoveredCorpus != total {
			t.Errorf("%s: recovered corpus = %d, want %d", arm.Name, arm.RecoveredCorpus, total)
		}
	}
	if res.Arms[2].Fsyncs < res.Arms[2].Records {
		t.Errorf("fsync-per-record arm: %d fsyncs for %d records", res.Arms[2].Fsyncs, res.Arms[2].Records)
	}
}
