package linkgrammar

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Options configures a Parser.
type Options struct {
	// MaxNulls is the largest number of words the fault-tolerant parser
	// may skip ("null words") before giving up. 0 selects the default
	// budget; a negative value reproduces stock link grammar behaviour
	// (no skipping at all).
	MaxNulls int
	// MaxLinkages caps the number of alternative linkages returned.
	MaxLinkages int
	// MaxTokens rejects absurdly long inputs before the O(n³) parse.
	MaxTokens int
	// DisablePruning turns off the pre-parse disjunct pruning pass
	// (kept only for the pruning ablation benchmark).
	DisablePruning bool
	// CacheSize, when positive, bounds an LRU cache of parse results
	// keyed on the normalized token stream. 0 leaves caching off at
	// this layer (package core turns it on for the supervisor — design
	// decision D6). Cached *Results are shared across callers and must
	// be treated as read-only; the cache is flushed automatically when
	// the dictionary's generation changes.
	CacheSize int
}

// DefaultOptions returns the options used by the e-learning supervisor:
// tolerate up to two broken words and keep the eight cheapest linkages.
func DefaultOptions() Options {
	return Options{MaxNulls: 2, MaxLinkages: 8, MaxTokens: 40}
}

// Parser parses sentences against a dictionary. A Parser is safe for
// concurrent use: each parse builds its own state, the dictionary
// guards its lazy disjunct expansion, and the optional result cache
// locks internally.
type Parser struct {
	dict  *Dictionary
	opts  Options
	cache *parseCache // nil when Options.CacheSize <= 0

	// scratch pools per-parse working state (cache-key buffer, Valid's
	// words, disjunct table, memoization map) so the steady-state parse
	// path — the same workload the cache stats describe — reuses its
	// large containers instead of reallocating them per sentence. Pooled
	// scratch never escapes: everything a Result or Linkage retains
	// (words, tokens, links) is freshly allocated.
	scratch   sync.Pool
	countHint atomic.Int64 // running average of memo-map size, sizes fresh maps
}

// parseScratch is the pooled working state of one ParseTokens or
// Valid call.
type parseScratch struct {
	key   []byte
	words []string // Valid's words; ParseTokens allocates what it retains
	st    parseState
}

// NewParser returns a parser over dict with the given options. Zero
// option fields fall back to DefaultOptions values.
func NewParser(dict *Dictionary, opts Options) *Parser {
	def := DefaultOptions()
	if opts.MaxLinkages <= 0 {
		opts.MaxLinkages = def.MaxLinkages
	}
	if opts.MaxTokens <= 0 {
		opts.MaxTokens = def.MaxTokens
	}
	switch {
	case opts.MaxNulls == 0:
		opts.MaxNulls = def.MaxNulls
	case opts.MaxNulls < 0:
		opts.MaxNulls = 0
	}
	p := &Parser{dict: dict, opts: opts}
	p.scratch.New = func() any { return new(parseScratch) }
	if opts.CacheSize > 0 {
		p.cache = newParseCache(opts.CacheSize)
	}
	return p
}

// releaseScratch clears the references pooled scratch holds (dictionary
// disjuncts, interned connector nodes) and returns it to the pool,
// folding the observed memo size into the sizing hint for fresh maps.
func (p *Parser) releaseScratch(sc *parseScratch) {
	if sc.st.counts != nil {
		hint := p.countHint.Load()
		p.countHint.Store((3*hint + int64(len(sc.st.counts))) / 4)
		clear(sc.st.counts)
	}
	for i := range sc.st.disjuncts {
		sc.st.disjuncts[i] = nil
	}
	clear(sc.words)
	sc.st.dict, sc.st.words = nil, nil
	p.scratch.Put(sc)
}

// CacheStats reports the parse-cache counters (zero value when caching
// is disabled).
func (p *Parser) CacheStats() CacheStats {
	if p.cache == nil {
		return CacheStats{}
	}
	return p.cache.stats()
}

// Dictionary returns the dictionary the parser reads.
func (p *Parser) Dictionary() *Dictionary { return p.dict }

// Result is the outcome of parsing one sentence.
type Result struct {
	// Tokens are the words as parsed, LEFT-WALL excluded.
	Tokens []string
	// Linkages holds the valid linkages found, cheapest first. Empty
	// when the sentence does not parse within the null budget.
	Linkages []*Linkage
	// NullCount is the number of words that had to be skipped for the
	// best linkages (0 = fully grammatical).
	NullCount int
	// UnknownWords indexes Tokens that were absent from the dictionary.
	UnknownWords []int
}

// Valid reports whether the sentence parsed without skipping any word.
func (r *Result) Valid() bool { return len(r.Linkages) > 0 && r.NullCount == 0 }

// Best returns the cheapest linkage, or nil if none.
func (r *Result) Best() *Linkage {
	if len(r.Linkages) == 0 {
		return nil
	}
	return r.Linkages[0]
}

// Parse tokenizes and parses a raw sentence.
func (p *Parser) Parse(sentence string) (*Result, error) {
	return p.ParseTokens(Tokenize(sentence))
}

// ParseTokens parses an already-tokenized sentence. The tokens should not
// include LEFT-WALL; it is added internally.
func (p *Parser) ParseTokens(tokens []string) (*Result, error) {
	sc := p.scratch.Get().(*parseScratch)
	defer p.releaseScratch(sc)
	res, gen, err := p.prepare(sc, tokens, true)
	if res != nil || err != nil {
		return res, err
	}
	st := &sc.st
	words := st.words
	res = &Result{Tokens: words[1:]}
	for i, w := range tokens {
		if !p.dict.Has(w) {
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
	if p.cache != nil {
		p.cache.put(string(sc.key), res, gen)
	}
	return res, nil
}

// Valid reports whether tokens parse with no null word. It always
// equals ParseTokens(tokens) returning a nil error and a Result whose
// Valid is true, but does only what that answer needs, for the
// Learning_Angel's repair probes (DESIGN.md D18). A cached Result
// answers it; it never inserts into the cache. It counts at nulls = 0
// only, and runs ParseTokens' bounded extraction only when that count
// is non-zero, so the exclusion filter decides alike. A probe that
// fails allocates nothing.
func (p *Parser) Valid(tokens []string) bool {
	sc := p.scratch.Get().(*parseScratch)
	defer p.releaseScratch(sc)
	res, _, err := p.prepare(sc, tokens, false)
	if err != nil {
		return false
	}
	if res != nil {
		return res.Valid()
	}
	st := &sc.st
	return st.countTotal(0) != 0 && len(st.extractTotal(0, p.opts.MaxLinkages)) > 0
}

// prepare is the prelude ParseTokens and Valid share. It rejects empty
// and over-long inputs and returns the cached Result when the cache
// holds tokens (with the key left in sc.key and the dictionary
// generation it was read under). Otherwise it loads LEFT-WALL plus
// tokens into sc.st.words with their pruned disjuncts, ready to count.
// fresh allocates the words slice, which a Result retains (and
// res.Tokens aliases); otherwise sc's pooled buffer holds it. Either
// way the caller's tokens are copied and never retained, which keeps
// pooled token slices safe to reuse.
func (p *Parser) prepare(sc *parseScratch, tokens []string, fresh bool) (res *Result, gen uint64, err error) {
	if len(tokens) == 0 {
		return nil, 0, fmt.Errorf("empty sentence")
	}
	if len(tokens) > p.opts.MaxTokens {
		return nil, 0, fmt.Errorf("sentence has %d tokens, limit is %d", len(tokens), p.opts.MaxTokens)
	}
	if p.cache != nil {
		sc.key = appendCacheKey(sc.key[:0], tokens)
		gen = p.dict.Generation()
		if cached, ok := p.cache.getBytes(sc.key, gen); ok {
			return cached, gen, nil
		}
	}

	var words []string
	if fresh {
		words = make([]string, len(tokens)+1)
	} else {
		words = slices.Grow(sc.words[:0], len(tokens)+1)[:len(tokens)+1]
		sc.words = words
	}
	words[0] = LeftWall
	copy(words[1:], tokens)

	if cap(sc.st.disjuncts) < len(words) {
		sc.st.disjuncts = make([][]*Disjunct, len(words))
	}
	if sc.st.counts == nil {
		sc.st.counts = make(map[countKey]int64, p.countHint.Load())
	}
	st := &sc.st
	st.dict = p.dict
	st.words = words
	st.disjuncts = st.disjuncts[:len(words)]
	for i, w := range words {
		ds, err := p.dict.Disjuncts(w)
		if err != nil {
			return nil, gen, err
		}
		st.disjuncts[i] = ds
	}
	if !p.opts.DisablePruning {
		st.disjuncts = pruneDisjuncts(st.disjuncts)
	}
	return nil, gen, nil
}

// parseState holds the memoized dynamic program for one sentence.
// Internally word 0 is LEFT-WALL and a virtual word len(words) with no
// connectors closes the region on the right.
type parseState struct {
	dict      *Dictionary
	words     []string
	disjuncts [][]*Disjunct
	counts    map[countKey]int64
}

type countKey struct {
	a, b   int16
	la, lb *connNode
	nulls  int8
}

const countCap = int64(1) << 40

func satAdd(a, b int64) int64 {
	s := a + b
	if s > countCap {
		return countCap
	}
	return s
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > countCap/b {
		return countCap
	}
	return a * b
}

// countTotal counts complete linkages of the whole sentence with exactly
// `nulls` skipped words. LEFT-WALL is never skipped.
func (st *parseState) countTotal(nulls int) int64 {
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
func (st *parseState) count(a, b int, la, lb *connNode, nulls int) int64 {
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
	key := countKey{a: int16(a), b: int16(b), la: la, lb: lb, nulls: int8(nulls)}
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

// matchVariant is one way of consuming the two matched head connectors:
// multi-connectors may stay in their list for further links.
type matchVariant struct{ x, y *connNode }

func matchVariants(x, y *connNode) []matchVariant {
	vs := make([]matchVariant, 0, 4)
	vs = append(vs, matchVariant{x.next, y.next})
	if x.conn.Multi {
		vs = append(vs, matchVariant{x, y.next})
	}
	if y.conn.Multi {
		vs = append(vs, matchVariant{x.next, y})
	}
	if x.conn.Multi && y.conn.Multi {
		vs = append(vs, matchVariant{x, y})
	}
	return vs
}

// partial is an intermediate extraction result for a region.
type partial struct {
	links []Link
	nulls []int // word indices skipped (internal indexing, wall = 0)
	cost  int
}

func crossPartials(ls, rs []partial, budget int) []partial {
	out := make([]partial, 0, min(budget, len(ls)*len(rs)))
	for _, l := range ls {
		for _, r := range rs {
			if len(out) >= budget {
				return out
			}
			p := partial{
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

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// extractTotal enumerates up to `budget` full-sentence linkages with
// exactly `nulls` skipped words, filtering any that violate the
// exclusion meta-rule (possible only via multi-connectors).
func (st *parseState) extractTotal(nulls, budget int) []*Linkage {
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
func (st *parseState) extract(a, b int, la, lb *connNode, nulls, budget int) []partial {
	if budget <= 0 {
		return nil
	}
	if b == a+1 {
		if la == nil && lb == nil && nulls == 0 {
			return []partial{{}}
		}
		return nil
	}
	if la == nil && lb == nil {
		if nulls != b-a-1 {
			return nil
		}
		p := partial{nulls: make([]int, 0, nulls)}
		for w := a + 1; w < b; w++ {
			p.nulls = append(p.nulls, w)
		}
		return []partial{p}
	}
	if st.count(a, b, la, lb, nulls) == 0 {
		return nil
	}

	var out []partial
	emit := func(link Link, ls, rs []partial) {
		for _, p := range crossPartials(ls, rs, budget-len(out)) {
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
					Label: LinkLabel(la.conn, dl.conn),
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
						withCost := make([]partial, len(rs))
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
				Label: LinkLabel(la.conn, lb.conn),
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
					Label: LinkLabel(dr.conn, lb.conn),
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
						withCost := make([]partial, len(ls))
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
