package linkgrammar

import (
	"fmt"
	"strings"
	"testing"

	"semagent/internal/ontology"
	"semagent/internal/workload"
)

// raceEnabled is set by race_test.go: the race detector makes sync.Pool
// drop items at random, so pooled scratch cannot show zero allocations.
var raceEnabled bool

// repairCandidates lists the single edits the Learning_Angel's repair
// search probes: toggle a trailing "s", drop a word, swap neighbours.
func repairCandidates(tokens []string) [][]string {
	var out [][]string
	for i, tok := range tokens {
		toggled := append([]string(nil), tokens...)
		if alt, ok := strings.CutSuffix(tok, "s"); ok {
			toggled[i] = alt
		} else {
			toggled[i] = tok + "s"
		}
		out = append(out, toggled)
		out = append(out, append(append([]string(nil), tokens[:i]...), tokens[i+1:]...))
		if i+1 < len(tokens) {
			swapped := append([]string(nil), tokens...)
			swapped[i], swapped[i+1] = swapped[i+1], swapped[i]
			out = append(out, swapped)
		}
	}
	return out
}

// TestValidAgreesWithParseTokens is the differential test of the repair
// probe: on seeded workload lines, every repair candidate of their
// syntax-error lines, and the edge inputs (unknown words, empty and
// over-long token lists), Valid answers exactly what a full parse on an
// uncached parser reports. The course vocabulary is taught halfway
// through, so a Define generation bump falls between calls, and the
// probing parser runs with the cache off and on. On the cached arm each
// line is parsed before its probes, as the Learning_Angel does, so a
// cached Result answers some of them.
func TestValidAgreesWithParseTokens(t *testing.T) {
	onto := ontology.BuildCourseOntology()
	mix := workload.Mix{Correct: 0.2, SyntaxError: 0.6, SemanticError: 0.1, Question: 0.1, OutOfOntology: 0.2}
	over := make([]string, DefaultOptions().MaxTokens+1)
	for i := range over {
		over[i] = "the"
	}
	edges := [][]string{nil, {}, over, {"zzqx"}, {"the", "zzqx", "has", "a", "qqvv"}, {"42"}, {"."}}
	for _, cacheSize := range []int{0, 64} {
		t.Run(fmt.Sprintf("cache-%d", cacheSize), func(t *testing.T) {
			dict, err := NewEnglishDictionary()
			if err != nil {
				t.Fatal(err)
			}
			ref := NewParser(dict, Options{})
			probe := NewParser(dict, Options{CacheSize: cacheSize})
			checked := 0
			check := func(tokens []string) {
				t.Helper()
				res, err := ref.ParseTokens(tokens)
				want := err == nil && res.Valid()
				if got := probe.Valid(tokens); got != want {
					t.Fatalf("Valid(%q) = %v, ParseTokens says %v (err %v)", tokens, got, want, err)
				}
				checked++
			}
			for _, seed := range []int64{11, 12} {
				lines := workload.NewGenerator(seed, onto).Generate(120, mix)
				for i, s := range lines {
					if seed == 12 && i == 0 {
						teachCourseVocabulary(t, dict, onto)
					}
					tokens := Tokenize(s.Text)
					check(tokens)
					res, err := probe.ParseTokens(tokens)
					check(tokens)
					if err != nil || res.Valid() {
						continue
					}
					for _, cand := range repairCandidates(tokens) {
						check(cand)
					}
				}
			}
			for _, tokens := range edges {
				check(tokens)
			}
			if checked < 1000 {
				t.Fatalf("only %d inputs checked", checked)
			}
		})
	}
}

// teachCourseVocabulary defines the ontology's content words as domain
// nouns, bumping the dictionary generation once per word.
func teachCourseVocabulary(t *testing.T, dict *Dictionary, onto *ontology.Ontology) {
	t.Helper()
	before := dict.Generation()
	for _, it := range onto.Items() {
		for _, word := range Tokenize(it.Name) {
			if len(word) >= 4 && !dict.Has(word) {
				if err := dict.Define(word, "<domain-term>"); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if dict.Generation() == before {
		t.Fatal("teaching the course vocabulary defined nothing")
	}
}

// TestValidNeverInserts checks that probes consult the cache without
// filling it: the cache's size is unchanged after probing fresh token
// streams, and a cached Result still answers a probe.
func TestValidNeverInserts(t *testing.T) {
	p := cachedParser(t, 64)
	clean := Tokenize("the student learns the lesson")
	if _, err := p.ParseTokens(clean); err != nil {
		t.Fatal(err)
	}
	size := p.CacheStats().Size
	hits := p.CacheStats().Hits
	if !p.Valid(clean) {
		t.Fatal("cached clean sentence probed invalid")
	}
	if got := p.CacheStats().Hits; got != hits+1 {
		t.Errorf("hits = %d after probing a cached sentence, want %d", got, hits+1)
	}
	for _, cand := range repairCandidates(Tokenize("the students learns the the lesson")) {
		p.Valid(cand)
	}
	if got := p.CacheStats().Size; got != size {
		t.Errorf("cache size = %d after probes, want %d", got, size)
	}
}

// TestValidFailingProbeAllocatesNothing pins DESIGN.md D13 for the
// repair search: a short probe that does not parse runs entirely on
// pooled scratch.
func TestValidFailingProbeAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	p := cachedParser(t, 64)
	probe := Tokenize("the students learns the lesson")
	if p.Valid(probe) {
		t.Fatal("probe should fail")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if p.Valid(probe) {
			t.Fatal("probe should fail")
		}
	})
	if allocs != 0 {
		t.Fatalf("failing probe allocated %.1f times per run, want 0", allocs)
	}
}

// TestValidPassingProbeAllocatesNothing: a probe that parses runs the
// bounded extraction on pooled scratch and stops at the first linkage
// the exclusion filter keeps, building none, so it allocates nothing
// either.
func TestValidPassingProbeAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	p := cachedParser(t, 64)
	probe := Tokenize("the student learns the lesson about the stack")
	if !p.Valid(probe) {
		t.Fatal("probe should pass")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if !p.Valid(probe) {
			t.Fatal("probe should pass")
		}
	})
	if allocs != 0 {
		t.Fatalf("passing probe allocated %.1f times per run, want 0", allocs)
	}
}

// TestMatchNodesEqualsMatch checks the interned connector match against
// the reference Match for every ordered pair of interned cells of the
// English dictionary, and again after a Define brings new connector
// types and subscripts into the interner.
func TestMatchNodesEqualsMatch(t *testing.T) {
	dict, err := NewEnglishDictionary()
	if err != nil {
		t.Fatal(err)
	}
	checkAll := func() {
		t.Helper()
		for _, w := range dict.Words() {
			if _, err := dict.Disjuncts(w); err != nil {
				t.Fatal(err)
			}
		}
		cells := make([]*connNode, 0, len(dict.interner.cells))
		for _, c := range dict.interner.cells {
			cells = append(cells, c)
		}
		matches := 0
		for _, r := range cells {
			for _, l := range cells {
				want := Match(r.conn, l.conn)
				if got := matchNodes(r, l); got != want {
					t.Fatalf("matchNodes(%v, %v) = %v, Match = %v", r.conn, l.conn, got, want)
				}
				if want {
					matches++
				}
			}
		}
		if matches == 0 {
			t.Fatalf("no matching pair among %d cells", len(cells))
		}
	}
	checkAll()
	if err := dict.Define("zork", "ZQ+ or ZQa- or @Sz*+ or (Ds- & ZQ*b+)"); err != nil {
		t.Fatal(err)
	}
	checkAll()
}

// TestValidAppliesExclusionFilter covers a sentence whose only linkage
// at nulls = 0 joins one word pair twice (c–a, through c's @Y+ and
// Y+): the count is non-zero, yet ParseTokens rejects it, so Valid must
// run the same extraction to reject it too.
func TestValidAppliesExclusionFilter(t *testing.T) {
	dict := NewDictionary()
	if err := dict.LoadString(doubleLinkDict); err != nil {
		t.Fatal(err)
	}
	p := NewParser(dict, Options{})
	tokens := []string{"c", "b", "a"}
	sc := p.scratch.Get().(*parseScratch)
	if _, _, err := p.prepare(sc, tokens, false); err != nil {
		t.Fatal(err)
	}
	count := sc.st.countTotal(0)
	p.releaseScratch(sc)
	if count == 0 {
		t.Fatal("the double link should be counted at nulls = 0")
	}
	res, err := p.ParseTokens(tokens)
	if err != nil {
		t.Fatal(err)
	}
	if res.Valid() {
		t.Fatal("ParseTokens accepted a linkage that violates exclusion")
	}
	if p.Valid(tokens) {
		t.Error("Valid accepted a linkage that violates exclusion")
	}
}

// resultAllocs counts the allocations an uncached ParseTokens makes for
// the Result it returns: the words (Tokens aliases them), the Result,
// its UnknownWords and, when it has linkages, the *Linkage slice, the
// Linkages, their links, their null words, and every label that is not
// a prefix of one of its connector names (LinkLabel shares those).
func resultAllocs(res *Result) int {
	n := 2
	if len(res.UnknownWords) > 0 {
		n++
	}
	if len(res.Linkages) == 0 {
		return n
	}
	n += 2
	links, nulls := 0, 0
	for _, lk := range res.Linkages {
		links += len(lk.Links)
		nulls += len(lk.NullWords)
		for _, l := range lk.Links {
			if !strings.HasPrefix(l.LConn.Name, l.Label) && !strings.HasPrefix(l.RConn.Name, l.Label) {
				n++
			}
		}
	}
	if links > 0 {
		n++
	}
	if nulls > 0 {
		n++
	}
	return n
}

// TestParseTokensAllocatesOnlyTheResult pins the parse-cache miss path:
// an uncached ParseTokens allocates what its Result keeps and nothing
// else, on a syntax-error line (null-word linkages) and a correct one.
func TestParseTokensAllocatesOnlyTheResult(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	dict, err := NewEnglishDictionary()
	if err != nil {
		t.Fatal(err)
	}
	p := NewParser(dict, Options{})
	for _, line := range []string{
		"the the student learns the lesson about the stack",
		"the student learns the lesson about the stack",
	} {
		tokens := Tokenize(line)
		res, err := p.ParseTokens(tokens)
		if err != nil || len(res.Linkages) == 0 {
			t.Fatalf("%q: %v, %d linkages", line, err, len(res.Linkages))
		}
		want := resultAllocs(res)
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := p.ParseTokens(tokens); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%q: %d nulls, %d linkages, %.1f allocations", line, res.NullCount, len(res.Linkages), allocs)
		if allocs != float64(want) {
			t.Errorf("%q (%d nulls, %d linkages): %.1f allocations per parse, want %d", line, res.NullCount, len(res.Linkages), allocs, want)
		}
	}
}
