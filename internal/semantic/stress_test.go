package semantic

import (
	"fmt"
	"sync"
	"testing"

	"semagent/internal/ontology"
	"semagent/internal/pipeline"
	"semagent/internal/sentence"
)

// TestAnalyzeConsistentUnderConcurrentMutation hammers snapshot
// publication from a writer goroutine while pipeline workers analyze
// sentences, under -race. The sentence mentions the same keyword pair
// twice, so the agent evaluates it as several pairs; because Analyze
// pins one snapshot per sentence, every pair inside one Analysis must
// report the identical distance even while a writer toggles the very
// edge being judged (a torn read across two snapshots would disagree).
func TestAnalyzeConsistentUnderConcurrentMutation(t *testing.T) {
	o := ontology.New("stress")
	mustAdd := func(name string, kind ontology.ItemKind) {
		t.Helper()
		if _, err := o.AddItem(name, kind); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd("alpha", ontology.KindConcept)
	mustAdd("beta", ontology.KindOperation)
	mustAdd("gamma", ontology.KindConcept)
	if err := o.Relate("gamma", "alpha", ontology.RelRelatedTo); err != nil {
		t.Fatal(err)
	}

	agent := New(o, 0)
	// "alpha ... beta ... alpha ... beta": four alpha-beta pairs per
	// analysis, all of which must agree.
	cls := sentence.ClassifyText("the alpha runs beta while alpha repeats beta")

	const messages = 400
	var mu sync.Mutex
	var inconsistent []string
	analyses := 0

	pipe := pipeline.New(pipeline.Config{Workers: 4})
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		related := false
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			if related {
				err = o.Unrelate("alpha", "beta")
			} else {
				err = o.Relate("alpha", "beta", ontology.RelHasOperation)
			}
			if err != nil {
				t.Errorf("toggle %d: %v", i, err)
				return
			}
			related = !related
			// Churn the item set too, so rebuilds change shape.
			name := fmt.Sprintf("churn-%d", i)
			if _, err := o.AddItem(name, ontology.KindProperty); err != nil {
				t.Errorf("churn add: %v", err)
				return
			}
			if err := o.RemoveItem(name); err != nil {
				t.Errorf("churn remove: %v", err)
				return
			}
		}
	}()

	for m := 0; m < messages; m++ {
		room := fmt.Sprintf("room-%d", m%8)
		if err := pipe.Submit(room, func() {
			a := agent.Analyze(cls)
			seen := -1
			for _, p := range a.Pairs {
				if !(p.A.Name == "alpha" && p.B.Name == "beta") {
					continue
				}
				if seen == -1 {
					seen = p.Distance
				} else if p.Distance != seen {
					mu.Lock()
					inconsistent = append(inconsistent,
						fmt.Sprintf("distances %d and %d in one analysis", seen, p.Distance))
					mu.Unlock()
				}
			}
			mu.Lock()
			analyses++
			mu.Unlock()
		}); err != nil {
			t.Fatalf("submit %d: %v", m, err)
		}
	}
	pipe.Close()
	close(stop)
	writer.Wait()

	if analyses != messages {
		t.Fatalf("completed %d analyses, want %d", analyses, messages)
	}
	if len(inconsistent) > 0 {
		t.Fatalf("%d torn analyses, e.g. %s", len(inconsistent), inconsistent[0])
	}
}

// TestSuggestPropertyRole covers the fixed suggestion wording: a
// violated property pair must be explained as a property, not as an
// operation.
func TestSuggestPropertyRole(t *testing.T) {
	o := ontology.BuildCourseOntology()
	agent := New(o, 0)

	// "the tree is lifo" — lifo is a property of stack, not of tree.
	a := agent.AnalyzeText("the tree keeps the lifo order forever")
	if a.Verdict != VerdictInterrogative {
		t.Fatalf("verdict = %v, want interrogative", a.Verdict)
	}
	if want := "lifo is a property of stack"; a.Suggestion != want {
		t.Fatalf("suggestion = %q, want %q", a.Suggestion, want)
	}

	// An operation keeps the operation wording.
	a = agent.AnalyzeText("the tree supports the pop operation")
	if a.Verdict != VerdictInterrogative {
		t.Fatalf("verdict = %v, want interrogative", a.Verdict)
	}
	if want := "pop is an operation of stack"; a.Suggestion != want {
		t.Fatalf("suggestion = %q, want %q", a.Suggestion, want)
	}
}

// TestSuggestPropertyFallbackListsProperties covers the ownerless
// branch: a property known to no concept falls back to listing the
// concept's own properties instead of its operations.
func TestSuggestPropertyFallbackListsProperties(t *testing.T) {
	o := ontology.New("t")
	for name, kind := range map[string]ontology.ItemKind{
		"widget":   ontology.KindConcept,
		"sturdy":   ontology.KindProperty,
		"floating": ontology.KindProperty,
		"spin":     ontology.KindOperation,
	} {
		if _, err := o.AddItem(name, kind); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.Relate("widget", "sturdy", ontology.RelHasProperty); err != nil {
		t.Fatal(err)
	}
	if err := o.Relate("widget", "spin", ontology.RelHasOperation); err != nil {
		t.Fatal(err)
	}

	agent := New(o, 0)
	snap := o.Snapshot()
	ka, _ := snap.Lookup("widget")
	kb, _ := snap.Lookup("floating") // no concept has it
	if got, want := agent.suggest(snap, ka, kb), "widget has the properties: sturdy"; got != want {
		t.Fatalf("suggest = %q, want %q", got, want)
	}
}
