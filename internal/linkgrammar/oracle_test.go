package linkgrammar

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"semagent/internal/ontology"
	"semagent/internal/workload"
)

// This file keeps the extractor the package shipped before shared link
// trees as the parity oracle of ParseTokens: per-region slices of
// partials whose links and null words are copied at every join, a
// label built for every candidate link, a count memo keyed on
// connector pointers, and a stable sort of the linkages by cost. It
// shares only prepare (limits, disjunct table, pruning), the connector
// match and the saturating arithmetic with the production parser.

// oracleParse parses tokens the old way, bypassing any cache, and
// returns the Result the old ParseTokens returned.
func oracleParse(dict *Dictionary, opts Options, tokens []string) (*Result, error) {
	opts.CacheSize = 0
	p := NewParser(dict, opts)
	sc := p.scratch.Get().(*parseScratch)
	defer p.releaseScratch(sc)
	if _, _, err := p.prepare(sc, tokens, true); err != nil {
		return nil, err
	}
	st := &oracleState{
		words:     sc.st.words,
		disjuncts: append([][]*Disjunct(nil), sc.st.disjuncts...),
		counts:    make(map[oracleKey]int64),
	}
	words := st.words
	res := &Result{Tokens: words[1:]}
	for i, w := range tokens {
		if !dict.Has(w) {
			res.UnknownWords = append(res.UnknownWords, i)
		}
	}
	maxNulls := p.opts.MaxNulls
	if maxNulls > len(tokens)-1 {
		maxNulls = len(tokens) - 1
	}
	if maxNulls < 0 {
		maxNulls = 0
	}
	for nulls := 0; nulls <= maxNulls; nulls++ {
		if st.countTotal(nulls) == 0 {
			continue
		}
		linkages := st.extractTotal(nulls, p.opts.MaxLinkages)
		if len(linkages) == 0 {
			continue
		}
		for _, lk := range linkages {
			lk.Words = words
		}
		sort.SliceStable(linkages, func(i, j int) bool {
			return linkages[i].Cost < linkages[j].Cost
		})
		res.Linkages = linkages
		res.NullCount = nulls
		break
	}
	return res, nil
}

// checkOracle parses tokens with p and with the oracle over p's
// dictionary and options, and fails unless the two Results are deeply
// equal (every linkage's links, labels, connectors, null words, cost
// and order) and Valid agrees with the oracle's verdict. It reports
// whether the oracle found the sentence valid.
func checkOracle(t testing.TB, p *Parser, tokens []string) bool {
	t.Helper()
	want, wantErr := oracleParse(p.dict, p.opts, tokens)
	got, err := p.ParseTokens(tokens)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("ParseTokens(%q) error %v, oracle %v", tokens, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseTokens(%q) differs from the oracle:\n got %s\nwant %s", tokens, describeResult(got), describeResult(want))
	}
	valid := wantErr == nil && want.Valid()
	if p.Valid(tokens) != valid {
		t.Fatalf("Valid(%q) = %v, oracle says %v", tokens, !valid, valid)
	}
	return valid
}

func describeResult(r *Result) string {
	if r == nil {
		return "<nil>"
	}
	s := fmt.Sprintf("tokens %q nulls %d unknown %v", r.Tokens, r.NullCount, r.UnknownWords)
	for _, lk := range r.Linkages {
		s += fmt.Sprintf("\n  cost %d null words %v links %+v", lk.Cost, lk.NullWords, lk.Links)
	}
	return s
}

// TestParseMatchesOracle is the differential test of the extractor:
// on seeded lines of every workload kind, every repair candidate of
// their syntax-error lines and edge inputs, ParseTokens returns exactly
// the oracle's Result. The course vocabulary is taught halfway through,
// so a Define (which grows the connector interner and with it the memo
// key's id field) falls between calls. The parser runs with the cache
// off and on (on the cached arm each line is parsed twice, so a cached
// Result is compared too), and with a linkage budget of 2 and a null
// budget of 3, under which the per-region budgets bind.
func TestParseMatchesOracle(t *testing.T) {
	onto := ontology.BuildCourseOntology()
	mix := workload.Mix{Correct: 0.3, SyntaxError: 0.4, SemanticError: 0.15, Question: 0.15, OutOfOntology: 0.3}
	over := make([]string, DefaultOptions().MaxTokens+1)
	for i := range over {
		over[i] = "the"
	}
	edges := [][]string{nil, {}, over, {"zzqx"}, {"the", "zzqx", "has", "a", "qqvv"}, {"42"}, {"."}}
	for _, arm := range []struct {
		name string
		opts Options
	}{
		{"uncached", Options{}},
		{"cached", Options{CacheSize: 64}},
		{"tight-budgets", Options{MaxLinkages: 2, MaxNulls: 3}},
	} {
		t.Run(arm.name, func(t *testing.T) {
			dict, err := NewEnglishDictionary()
			if err != nil {
				t.Fatal(err)
			}
			p := NewParser(dict, arm.opts)
			checked := 0
			for _, seed := range []int64{31, 32} {
				lines := workload.NewGenerator(seed, onto).Generate(100, mix)
				for i, s := range lines {
					if seed == 32 && i == 0 {
						teachCourseVocabulary(t, dict, onto)
					}
					tokens := Tokenize(s.Text)
					valid := checkOracle(t, p, tokens)
					checked++
					if arm.opts.CacheSize > 0 {
						checkOracle(t, p, tokens)
					}
					if valid {
						continue
					}
					for _, cand := range repairCandidates(tokens) {
						checkOracle(t, p, cand)
						checked++
					}
				}
			}
			for _, tokens := range edges {
				checkOracle(t, p, tokens)
			}
			if checked < 1000 {
				t.Fatalf("only %d inputs checked", checked)
			}
		})
	}
}

// doubleLinkDict is a hand-built dictionary in which c can join a
// twice, through @Y+ and Y+, so some counted linkages break the
// exclusion rule.
const doubleLinkDict = "LEFT-WALL: W+; a: {W-} & @Y-; b: {W-} & @X-; c: {W-} & X+ & @Y+ & Y+;"

// TestParseMatchesOracleUnderExclusion compares every sentence of up to
// five words over the double-link dictionary's words and an unknown
// word, where the exclusion filter drops linkages the count admits.
func TestParseMatchesOracleUnderExclusion(t *testing.T) {
	dict := NewDictionary()
	if err := dict.LoadString(doubleLinkDict); err != nil {
		t.Fatal(err)
	}
	vocab := []string{"a", "b", "c", "zz"}
	for _, opts := range []Options{{}, {MaxLinkages: 1, MaxNulls: 4}} {
		p := NewParser(dict, opts)
		var walk func(tokens []string)
		walk = func(tokens []string) {
			if len(tokens) > 0 {
				checkOracle(t, p, tokens)
			}
			if len(tokens) == 5 {
				return
			}
			for _, w := range vocab {
				walk(append(tokens[:len(tokens):len(tokens)], w))
			}
		}
		walk(nil)
	}
}

// TestLinkLabelMatchesOracle checks LinkLabel against the old
// implementation on every ordered pair of interned connectors of the
// English dictionary plus a word whose subscripts make a '*' take the
// other connector's letter, matching pairs or not.
func TestLinkLabelMatchesOracle(t *testing.T) {
	dict, err := NewEnglishDictionary()
	if err != nil {
		t.Fatal(err)
	}
	if err := dict.Define("zork", "ZQ+ or ZQa- or ZQ*b+ or ZQ*- or @Sz*+ or (Ds- & ZQ**c+)"); err != nil {
		t.Fatal(err)
	}
	for _, w := range dict.Words() {
		if _, err := dict.Disjuncts(w); err != nil {
			t.Fatal(err)
		}
	}
	var conns []Connector
	for _, c := range dict.interner.cells {
		conns = append(conns, c.conn)
	}
	fresh := 0
	for _, r := range conns {
		for _, l := range conns {
			got, want := LinkLabel(r, l), oracleLinkLabel(r, l)
			if got != want {
				t.Fatalf("LinkLabel(%v, %v) = %q, oracle %q", r, l, got, want)
			}
			if !strings.HasPrefix(r.Name, got) && !strings.HasPrefix(l.Name, got) {
				fresh++
			}
		}
	}
	if fresh == 0 {
		t.Fatal("no label took a letter for a '*'")
	}
}

type oracleState struct {
	words     []string
	disjuncts [][]*Disjunct
	counts    map[oracleKey]int64
}

type oracleKey struct {
	a, b   int16
	la, lb *connNode
	nulls  int8
}

// oracleLinkLabel is LinkLabel as it was before labels shared their
// connector names' bytes.
func oracleLinkLabel(r, l Connector) string {
	ru := upperLen(r.Name)
	base := r.Name[:ru]
	rs, ls := r.Name[ru:], l.Name[upperLen(l.Name):]
	long, short := rs, ls
	if len(ls) > len(rs) {
		long, short = ls, rs
	}
	sub := make([]byte, 0, len(long))
	for i := 0; i < len(long); i++ {
		ch := long[i]
		if ch == '*' && i < len(short) {
			ch = short[i]
		}
		if ch == '*' {
			break
		}
		sub = append(sub, ch)
	}
	return base + string(sub)
}

// countTotal counts complete linkages of the whole sentence with exactly
// `nulls` skipped words. LEFT-WALL is never skipped.
func (st *oracleState) countTotal(nulls int) int64 {
	var total int64
	n := len(st.words)
	for _, d0 := range st.disjuncts[0] {
		if d0.leftList != nil {
			continue
		}
		total = satAdd(total, st.count(0, n, d0.rightList, nil, nulls))
	}
	return total
}

// count returns the number of linkages of the region strictly between
// words a and b, where la is the remaining right-going connector list of
// a and lb the remaining left-going list of b (both far-to-near), with
// exactly `nulls` inner words skipped.
//
// Decomposition: if la is non-empty its head (a's farthest rightward
// link) attaches either to some inner word w — splitting the region at w
// by planarity — or directly to b's farthest left connector. If la is
// empty, lb's head attaches to the farthest inner word it can reach.
// Ordering of each disjunct's connector lists is preserved because lists
// are consumed far-to-near from both ends. Connectivity holds because a
// region whose two boundary lists are empty admits no links at all, so
// its inner words can only be nulls.
func (st *oracleState) count(a, b int, la, lb *connNode, nulls int) int64 {
	if b == a+1 {
		if la == nil && lb == nil && nulls == 0 {
			return 1
		}
		return 0
	}
	if la == nil && lb == nil {
		if nulls == b-a-1 {
			return 1
		}
		return 0
	}
	inner := b - a - 1
	if nulls > inner {
		return 0
	}
	key := oracleKey{a: int16(a), b: int16(b), la: la, lb: lb, nulls: int8(nulls)}
	if v, ok := st.counts[key]; ok {
		return v
	}
	st.counts[key] = 0 // cycle guard; real value set below

	var total int64
	if la != nil {
		for w := a + 1; w < b; w++ {
			for _, d := range st.disjuncts[w] {
				dl := d.leftList
				if dl == nil || !matchNodes(la, dl) {
					continue
				}
				for _, v := range matchVariants(la, dl) {
					for k1 := 0; k1 <= nulls; k1++ {
						left := st.count(a, w, v.x, v.y, k1)
						if left == 0 {
							continue
						}
						right := st.count(w, b, d.rightList, lb, nulls-k1)
						total = satAdd(total, satMul(left, right))
					}
				}
			}
		}
		if lb != nil && matchNodes(la, lb) {
			// Direct link a–b: both heads are the farthest connectors of
			// their words within this region.
			for _, v := range matchVariants(la, lb) {
				total = satAdd(total, st.count(a, b, v.x, v.y, nulls))
			}
		}
	} else { // la == nil, lb != nil
		for w := a + 1; w < b; w++ {
			for _, d := range st.disjuncts[w] {
				dr := d.rightList
				if dr == nil || !matchNodes(dr, lb) {
					continue
				}
				for _, v := range matchVariants(dr, lb) {
					for k1 := 0; k1 <= nulls; k1++ {
						left := st.count(a, w, nil, d.leftList, k1)
						if left == 0 {
							continue
						}
						right := st.count(w, b, v.x, v.y, nulls-k1)
						total = satAdd(total, satMul(left, right))
					}
				}
			}
		}
	}
	st.counts[key] = total
	return total
}

// oraclePartial is an intermediate extraction result for a region.
type oraclePartial struct {
	links []Link
	nulls []int // word indices skipped (internal indexing, wall = 0)
	cost  int
}

func oracleCross(ls, rs []oraclePartial, budget int) []oraclePartial {
	out := make([]oraclePartial, 0, min(budget, len(ls)*len(rs)))
	for _, l := range ls {
		for _, r := range rs {
			if len(out) >= budget {
				return out
			}
			p := oraclePartial{
				links: make([]Link, 0, len(l.links)+len(r.links)),
				nulls: append(append([]int{}, l.nulls...), r.nulls...),
				cost:  l.cost + r.cost,
			}
			p.links = append(append(p.links, l.links...), r.links...)
			out = append(out, p)
		}
	}
	return out
}

// extractTotal enumerates up to `budget` full-sentence linkages with
// exactly `nulls` skipped words, filtering any that violate the
// exclusion meta-rule (possible only via multi-connectors).
func (st *oracleState) extractTotal(nulls, budget int) []*Linkage {
	n := len(st.words)
	var out []*Linkage
	for _, d0 := range st.disjuncts[0] {
		if d0.leftList != nil {
			continue
		}
		if st.count(0, n, d0.rightList, nil, nulls) == 0 {
			continue
		}
		for _, p := range st.extract(0, n, d0.rightList, nil, nulls, budget-len(out)) {
			lk := &Linkage{
				Links: p.links,
				Cost:  p.cost + d0.Cost,
			}
			lk.NullWords = append(lk.NullWords, p.nulls...)
			sort.Ints(lk.NullWords)
			sort.Slice(lk.Links, func(i, j int) bool {
				if lk.Links[i].Left != lk.Links[j].Left {
					return lk.Links[i].Left < lk.Links[j].Left
				}
				return lk.Links[i].Right < lk.Links[j].Right
			})
			if lk.violatesExclusion() {
				continue
			}
			out = append(out, lk)
			if len(out) >= budget {
				return out
			}
		}
	}
	return out
}

// extract mirrors count but materializes the linkages.
func (st *oracleState) extract(a, b int, la, lb *connNode, nulls, budget int) []oraclePartial {
	if budget <= 0 {
		return nil
	}
	if b == a+1 {
		if la == nil && lb == nil && nulls == 0 {
			return []oraclePartial{{}}
		}
		return nil
	}
	if la == nil && lb == nil {
		if nulls != b-a-1 {
			return nil
		}
		p := oraclePartial{nulls: make([]int, 0, nulls)}
		for w := a + 1; w < b; w++ {
			p.nulls = append(p.nulls, w)
		}
		return []oraclePartial{p}
	}
	if st.count(a, b, la, lb, nulls) == 0 {
		return nil
	}

	var out []oraclePartial
	emit := func(link Link, ls, rs []oraclePartial) {
		for _, p := range oracleCross(ls, rs, budget-len(out)) {
			p.links = append(p.links, link)
			out = append(out, p)
			if len(out) >= budget {
				return
			}
		}
	}

	if la != nil {
		for w := a + 1; w < b && len(out) < budget; w++ {
			for _, d := range st.disjuncts[w] {
				dl := d.leftList
				if dl == nil || !matchNodes(la, dl) {
					continue
				}
				link := Link{
					Left: a, Right: w,
					Label: oracleLinkLabel(la.conn, dl.conn),
					LConn: la.conn, RConn: dl.conn,
				}
				for _, v := range matchVariants(la, dl) {
					for k1 := 0; k1 <= nulls && len(out) < budget; k1++ {
						if st.count(a, w, v.x, v.y, k1) == 0 ||
							st.count(w, b, d.rightList, lb, nulls-k1) == 0 {
							continue
						}
						ls := st.extract(a, w, v.x, v.y, k1, budget-len(out))
						rs := st.extract(w, b, d.rightList, lb, nulls-k1, budget-len(out))
						withCost := make([]oraclePartial, len(rs))
						for i, r := range rs {
							r.cost += d.Cost
							withCost[i] = r
						}
						emit(link, ls, withCost)
					}
				}
			}
		}
		if lb != nil && matchNodes(la, lb) && len(out) < budget {
			link := Link{
				Left: a, Right: b,
				Label: oracleLinkLabel(la.conn, lb.conn),
				LConn: la.conn, RConn: lb.conn,
			}
			for _, v := range matchVariants(la, lb) {
				if st.count(a, b, v.x, v.y, nulls) == 0 {
					continue
				}
				for _, p := range st.extract(a, b, v.x, v.y, nulls, budget-len(out)) {
					p.links = append(p.links, link)
					out = append(out, p)
					if len(out) >= budget {
						return out
					}
				}
			}
		}
	} else {
		for w := a + 1; w < b && len(out) < budget; w++ {
			for _, d := range st.disjuncts[w] {
				dr := d.rightList
				if dr == nil || !matchNodes(dr, lb) {
					continue
				}
				link := Link{
					Left: w, Right: b,
					Label: oracleLinkLabel(dr.conn, lb.conn),
					LConn: dr.conn, RConn: lb.conn,
				}
				for _, v := range matchVariants(dr, lb) {
					for k1 := 0; k1 <= nulls && len(out) < budget; k1++ {
						if st.count(a, w, nil, d.leftList, k1) == 0 ||
							st.count(w, b, v.x, v.y, nulls-k1) == 0 {
							continue
						}
						ls := st.extract(a, w, nil, d.leftList, k1, budget-len(out))
						rs := st.extract(w, b, v.x, v.y, nulls-k1, budget-len(out))
						withCost := make([]oraclePartial, len(ls))
						for i, l := range ls {
							l.cost += d.Cost
							withCost[i] = l
						}
						emit(link, withCost, rs)
					}
				}
			}
		}
	}
	return out
}
