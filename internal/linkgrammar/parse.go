package linkgrammar

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
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
	// words, disjunct table, memoization map, extraction arena) so the
	// steady-state parse path — the same workload the cache stats
	// describe — reuses its large containers instead of reallocating
	// them per sentence. Pooled scratch never escapes: everything a
	// Result or Linkage retains (words, tokens, links) is freshly
	// allocated.
	scratch   sync.Pool
	countHint atomic.Int64 // running average of memo-map size, sizes fresh maps
}

// parseScratch is the pooled working state of one ParseTokens or
// Valid call.
type parseScratch struct {
	key     []byte
	words   []string // Valid's words; ParseTokens allocates what it retains
	unknown []int    // ParseTokens' unknown-word indices, copied out exactly
	st      parseState
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
	st := &sc.st
	if st.counts != nil {
		hint := p.countHint.Load()
		p.countHint.Store((3*hint + int64(len(st.counts))) / 4)
		clear(st.counts)
	}
	clear(st.disjuncts)
	clear(st.arena)
	st.arena, st.stack, st.links, st.nulls, st.found = st.arena[:0], st.stack[:0], st.links[:0], st.nulls[:0], st.found[:0]
	clear(sc.words)
	st.dict, st.words = nil, nil
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
	sc.unknown = sc.unknown[:0]
	for i, w := range tokens {
		if !p.dict.Has(w) {
			sc.unknown = append(sc.unknown, i)
		}
	}
	if len(sc.unknown) > 0 {
		res.UnknownWords = slices.Clone(sc.unknown)
	}

	budget, maxNulls := p.opts.MaxLinkages, p.maxNulls(len(tokens))
	for nulls := 0; nulls <= maxNulls; nulls++ {
		if st.countTotal(nulls) == 0 || st.extractTotal(nulls, budget, budget) == 0 {
			continue
		}
		res.Linkages = st.linkages(words)
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
// is non-zero, so the exclusion filter decides alike, and stops at the
// first linkage the filter keeps, building none. A probe of an input
// prepare accepts allocates nothing.
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
	return st.countTotal(0) != 0 && st.extractTotal(0, p.opts.MaxLinkages, 1) > 0
}

// maxNulls is the null budget for a sentence of n tokens: at most
// Options.MaxNulls, and never every token.
func (p *Parser) maxNulls(n int) int {
	return max(0, min(p.opts.MaxNulls, n-1))
}

// prepare is the prelude ParseTokens and Valid share. It rejects empty
// and over-long inputs and returns the cached Result when the cache
// holds tokens (with the key left in sc.key and the dictionary
// generation it was read under). Otherwise it loads LEFT-WALL plus
// tokens into sc.st.words with their pruned disjuncts and lays out the
// count memo's key, ready to count; it rejects a sentence whose key
// would not fit 64 bits. fresh allocates the words slice, which a
// Result retains (and res.Tokens aliases); otherwise sc's pooled
// buffer holds it. Either way the caller's tokens are copied and never
// retained, which keeps pooled token slices safe to reuse.
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
		sc.st.counts = make(map[uint64]int64, p.countHint.Load())
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
	// Every cell of this parse's lists was interned by now, so its id
	// is at most the interner's size.
	var ok bool
	if st.keys, ok = newKeyLayout(len(words), p.dict.connCells(), p.maxNulls(len(tokens))); !ok {
		return nil, gen, fmt.Errorf("sentence has %d tokens, too many for the parser's 64-bit memo key", len(tokens))
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
	counts    map[uint64]int64 // count's memo, keyed by keys.key
	keys      keyLayout

	// Extraction scratch. arena holds the partial-linkage trees; stack
	// holds the partials (arena indices) of the regions being
	// enumerated; links (arena indices of link nodes) and nulls hold
	// the flattened linkages in found.
	arena []pnode
	stack []int32
	links []int32
	nulls []int
	found []foundLinkage
}

// keyLayout packs count's arguments into one uint64 memo key. From the
// top the fields are a and b (word indices), la and lb (connNode ids,
// 0 for an empty list) and nulls. Each field is as wide as its largest
// value in this parse needs, so distinct arguments give distinct keys.
type keyLayout struct {
	aShift, bShift, laShift, lbShift uint8
}

// newKeyLayout sizes the fields for word indices up to words, connector
// ids up to cells and null counts up to nulls. It reports false when
// the fields need more than 64 bits.
func newKeyLayout(words, cells, nulls int) (keyLayout, bool) {
	wb, cb, nb := bits.Len(uint(words)), bits.Len(uint(cells)), bits.Len(uint(nulls))
	if 2*wb+2*cb+nb > 64 {
		return keyLayout{}, false
	}
	return keyLayout{
		aShift:  uint8(nb + 2*cb + wb),
		bShift:  uint8(nb + 2*cb),
		laShift: uint8(nb + cb),
		lbShift: uint8(nb),
	}, true
}

func (k keyLayout) key(a, b int, la, lb *connNode, nulls int) uint64 {
	return uint64(a)<<k.aShift | uint64(b)<<k.bShift |
		uint64(la.memoID())<<k.laShift | uint64(lb.memoID())<<k.lbShift | uint64(nulls)
}

// memoID is the cell's id, or 0 for the empty list.
func (c *connNode) memoID() uint32 {
	if c == nil {
		return 0
	}
	return c.id
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
	key := st.keys.key(a, b, la, lb, nulls)
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

// pnode is one node of a partial-linkage tree in parseState.arena: the
// link from word lo to word hi through connectors lc and rc, or, when
// lc is nil, the run of null words lo..hi-1. kids are the partials the
// node extends (arena indices, or noPartial) and cost is the summed
// disjunct cost of the whole tree. Extending partials costs one node;
// the trees below it are shared, not copied.
type pnode struct {
	kids   [2]int32
	lo, hi int32
	cost   int
	lc, rc *connNode
}

// noPartial is the empty partial: no links, no null words, cost 0.
const noPartial int32 = -1

// grow adds node n, extending partials l and r, to the arena.
func (st *parseState) grow(n pnode, l, r int32) int32 {
	n.kids = [2]int32{l, r}
	for _, k := range n.kids {
		if k != noPartial {
			n.cost += st.arena[k].cost
		}
	}
	st.arena = append(st.arena, n)
	return int32(len(st.arena) - 1)
}

// foundLinkage is a linkage extractTotal kept: its links are
// st.links[links[0]:links[1]] and its null words st.nulls[nulls[0]:nulls[1]],
// both sorted.
type foundLinkage struct {
	links, nulls [2]int
	cost         int
}

// extractTotal enumerates up to `budget` full-sentence linkages with
// exactly `nulls` skipped words, filtering any that violate the
// exclusion meta-rule (possible only via multi-connectors). It keeps
// them in st.found, stops once it has kept want, and returns how many
// it kept; linkages materializes them.
func (st *parseState) extractTotal(nulls, budget, want int) int {
	n := len(st.words)
	for _, d0 := range st.disjuncts[0] {
		if d0.leftList != nil {
			continue
		}
		if st.count(0, n, d0.rightList, nil, nulls) == 0 {
			continue
		}
		ps := st.extract(0, n, d0.rightList, nil, nulls, budget-len(st.found))
		for _, p := range st.stack[ps:] {
			if st.keep(p, d0.Cost) && len(st.found) >= want {
				break
			}
		}
		st.stack = st.stack[:ps]
		if len(st.found) >= want {
			break
		}
	}
	return len(st.found)
}

// keep flattens the full-sentence partial p, whose LEFT-WALL disjunct
// costs cost, sorts its links by (Left, Right) and its null words, and
// keeps it in st.found unless two of its links join the same words.
func (st *parseState) keep(p int32, cost int) bool {
	f := foundLinkage{links: [2]int{len(st.links)}, nulls: [2]int{len(st.nulls)}, cost: cost}
	if p != noPartial {
		f.cost += st.arena[p].cost
	}
	st.flatten(p)
	f.links[1], f.nulls[1] = len(st.links), len(st.nulls)
	links := st.links[f.links[0]:]
	slices.SortFunc(links, func(x, y int32) int {
		a, b := &st.arena[x], &st.arena[y]
		if a.lo != b.lo {
			return cmp.Compare(a.lo, b.lo)
		}
		return cmp.Compare(a.hi, b.hi)
	})
	for i := 1; i < len(links); i++ {
		a, b := &st.arena[links[i-1]], &st.arena[links[i]]
		if a.lo == b.lo && a.hi == b.hi {
			st.links, st.nulls = st.links[:f.links[0]], st.nulls[:f.nulls[0]]
			return false
		}
	}
	slices.Sort(st.nulls[f.nulls[0]:])
	st.found = append(st.found, f)
	return true
}

// flatten appends the link nodes of partial p to st.links and its null
// words to st.nulls.
func (st *parseState) flatten(p int32) {
	for p != noPartial {
		n := &st.arena[p]
		if n.lc == nil {
			for w := n.lo; w < n.hi; w++ {
				st.nulls = append(st.nulls, int(w))
			}
		} else {
			st.links = append(st.links, p)
		}
		st.flatten(n.kids[0])
		p = n.kids[1]
	}
}

// linkages materializes st.found over words, cheapest first (stable
// on cost), into slices of exact size: one allocation each for the
// *Linkage slice, the Linkages, their links and their null words, plus
// a string for each link label that is not a prefix of one of its
// connector names (LinkLabel). Labels are made here, for returned
// links only.
func (st *parseState) linkages(words []string) []*Linkage {
	slices.SortStableFunc(st.found, func(x, y foundLinkage) int { return cmp.Compare(x.cost, y.cost) })
	out := make([]*Linkage, len(st.found))
	lks := make([]Linkage, len(st.found))
	links := make([]Link, len(st.links))
	nulls := make([]int, len(st.nulls))
	for i, f := range st.found {
		lk := &lks[i]
		lk.Words, lk.Cost = words, f.cost
		if k := f.links[1] - f.links[0]; k > 0 {
			lk.Links, links = links[:k:k], links[k:]
			for j, id := range st.links[f.links[0]:f.links[1]] {
				n := &st.arena[id]
				lk.Links[j] = Link{
					Left: int(n.lo), Right: int(n.hi),
					Label: LinkLabel(n.lc.conn, n.rc.conn),
					LConn: n.lc.conn, RConn: n.rc.conn,
				}
			}
		}
		if k := f.nulls[1] - f.nulls[0]; k > 0 {
			lk.NullWords, nulls = nulls[:k:k], nulls[k:]
			copy(lk.NullWords, st.nulls[f.nulls[0]:f.nulls[1]])
		}
		out[i] = lk
	}
	return out
}

// extract mirrors count but enumerates up to budget partials of the
// region, in count's order, pushing their arena indices onto st.stack.
// It returns where on the stack they start; the caller pops them.
func (st *parseState) extract(a, b int, la, lb *connNode, nulls, budget int) int {
	start := len(st.stack)
	if budget <= 0 {
		return start
	}
	if b == a+1 {
		if la == nil && lb == nil && nulls == 0 {
			st.stack = append(st.stack, noPartial)
		}
		return start
	}
	if la == nil && lb == nil {
		if nulls == b-a-1 {
			st.stack = append(st.stack, st.grow(pnode{lo: int32(a + 1), hi: int32(b)}, noPartial, noPartial))
		}
		return start
	}
	if st.count(a, b, la, lb, nulls) == 0 {
		return start
	}

	if la != nil {
		for w := a + 1; w < b && len(st.stack)-start < budget; w++ {
			for _, d := range st.disjuncts[w] {
				dl := d.leftList
				if dl == nil || !matchNodes(la, dl) {
					continue
				}
				link := pnode{lo: int32(a), hi: int32(w), cost: d.Cost, lc: la, rc: dl}
				for _, v := range matchVariants(la, dl) {
					for k1 := 0; k1 <= nulls && len(st.stack)-start < budget; k1++ {
						if st.count(a, w, v.x, v.y, k1) == 0 ||
							st.count(w, b, d.rightList, lb, nulls-k1) == 0 {
							continue
						}
						room := budget - (len(st.stack) - start)
						ls := st.extract(a, w, v.x, v.y, k1, room)
						rs := st.extract(w, b, d.rightList, lb, nulls-k1, room)
						st.join(link, ls, rs, room)
					}
				}
			}
		}
		if lb != nil && matchNodes(la, lb) && len(st.stack)-start < budget {
			// Direct link a–b: both heads are the farthest connectors of
			// their words within this region.
			link := pnode{lo: int32(a), hi: int32(b), lc: la, rc: lb}
			for _, v := range matchVariants(la, lb) {
				if st.count(a, b, v.x, v.y, nulls) == 0 {
					continue
				}
				ps := st.extract(a, b, v.x, v.y, nulls, budget-(len(st.stack)-start))
				for i := ps; i < len(st.stack); i++ {
					st.stack[i] = st.grow(link, st.stack[i], noPartial)
				}
				if len(st.stack)-start >= budget {
					break
				}
			}
		}
	} else {
		for w := a + 1; w < b && len(st.stack)-start < budget; w++ {
			for _, d := range st.disjuncts[w] {
				dr := d.rightList
				if dr == nil || !matchNodes(dr, lb) {
					continue
				}
				link := pnode{lo: int32(w), hi: int32(b), cost: d.Cost, lc: dr, rc: lb}
				for _, v := range matchVariants(dr, lb) {
					for k1 := 0; k1 <= nulls && len(st.stack)-start < budget; k1++ {
						if st.count(a, w, nil, d.leftList, k1) == 0 ||
							st.count(w, b, v.x, v.y, nulls-k1) == 0 {
							continue
						}
						room := budget - (len(st.stack) - start)
						ls := st.extract(a, w, nil, d.leftList, k1, room)
						rs := st.extract(w, b, v.x, v.y, nulls-k1, room)
						st.join(link, ls, rs, room)
					}
				}
			}
		}
	}
	return start
}

// join extends each pair of the left partials stack[ls:rs] and the
// right partials stack[rs:], left-major, with the node link, up to room
// of them, and leaves them on the stack in place of ls and rs.
func (st *parseState) join(link pnode, ls, rs, room int) {
	end := len(st.stack)
	for i := ls; i < rs; i++ {
		for j := rs; j < end && len(st.stack)-end < room; j++ {
			st.stack = append(st.stack, st.grow(link, st.stack[i], st.stack[j]))
		}
	}
	made := copy(st.stack[ls:], st.stack[end:])
	st.stack = st.stack[:ls+made]
}
