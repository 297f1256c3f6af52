package linkgrammar

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Dictionary maps words to their linking requirements. The text format
// follows the CMU dictionary style:
//
//	% comment until end of line
//	the a: D+;
//	cat dog: {@A-} & {D-} & (Wd- & S+ or O- or J-);
//	<trans-verb>: S- & {O+};
//	push pop: <trans-verb> or (I- & {O+});
//
// An entry lists one or more words (or one "<macro>" name), a colon, a
// formula and a terminating semicolon. Macros may be referenced from any
// formula and are resolved when disjuncts are built.
type Dictionary struct {
	// mu guards every field: the chat server parses from many
	// connection goroutines while disjunct caches fill lazily.
	mu      sync.RWMutex
	entries map[string]*Expr // word -> formula
	macros  map[string]*Expr // macro name -> formula

	// disjuncts caches the expanded, interned disjunct list per word.
	disjuncts map[string][]*Disjunct
	interner  *connInterner

	// unknownWord, when non-empty, names the macro whose formula is
	// assigned to words missing from the dictionary (the paper's system
	// must keep working when learners type unknown words).
	unknownWord string

	// gen counts definition changes; parse caches compare it to flush
	// entries parsed under an older vocabulary.
	gen uint64
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{
		entries:   make(map[string]*Expr),
		macros:    make(map[string]*Expr),
		disjuncts: make(map[string][]*Disjunct),
		interner:  newConnInterner(),
	}
}

// LoadString parses dictionary source text into the dictionary, merging
// with existing entries. Later definitions of a word extend earlier ones
// as alternatives (joined with "or").
func (d *Dictionary) LoadString(src string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.gen++
	stripped := stripComments(src)
	statements := splitStatements(stripped)
	for i, stmt := range statements {
		stmt = strings.TrimSpace(stmt)
		if stmt == "" {
			continue
		}
		colon := strings.Index(stmt, ":")
		if colon < 0 {
			return fmt.Errorf("dictionary statement %d (%q): missing ':'", i+1, clip(stmt))
		}
		heads := strings.Fields(stmt[:colon])
		if len(heads) == 0 {
			return fmt.Errorf("dictionary statement %d: no words before ':'", i+1)
		}
		formula, err := ParseFormula(stmt[colon+1:])
		if err != nil {
			return fmt.Errorf("dictionary statement %d: %w", i+1, err)
		}
		for _, head := range heads {
			if strings.HasPrefix(head, "<") && strings.HasSuffix(head, ">") {
				name := head[1 : len(head)-1]
				d.macros[name] = mergeOr(d.macros[name], formula)
				continue
			}
			word := normalizeWord(head)
			d.entries[word] = mergeOr(d.entries[word], formula)
			delete(d.disjuncts, word)
		}
	}
	return nil
}

// SetUnknownWordMacro designates a macro whose formula is used for words
// absent from the dictionary. Pass "" to disable the fallback.
func (d *Dictionary) SetUnknownWordMacro(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if name != "" {
		if _, ok := d.macros[name]; !ok {
			return fmt.Errorf("unknown-word macro <%s> is not defined", name)
		}
	}
	d.unknownWord = name
	d.gen++
	return nil
}

// Generation returns a counter incremented by every definition change
// (LoadString, Define, SetUnknownWordMacro). Parse caches key their
// validity on it.
func (d *Dictionary) Generation() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.gen
}

// Define adds a single word with the given formula source, merging with
// any existing definition. The ontology loader uses this to teach the
// parser new domain terms at runtime.
func (d *Dictionary) Define(word, formulaSrc string) error {
	formula, err := ParseFormula(formulaSrc)
	if err != nil {
		return fmt.Errorf("define %q: %w", word, err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.gen++
	word = normalizeWord(word)
	d.entries[word] = mergeOr(d.entries[word], formula)
	delete(d.disjuncts, word)
	return nil
}

// Has reports whether the word has an explicit dictionary entry.
func (d *Dictionary) Has(word string) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, ok := d.entries[normalizeWord(word)]
	return ok
}

// Len returns the number of defined word forms.
func (d *Dictionary) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.entries)
}

// Words returns the sorted list of defined word forms.
func (d *Dictionary) Words() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.entries))
	for w := range d.entries {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// Disjuncts returns the expanded disjunct list for a word. Unknown words
// receive the unknown-word macro's disjuncts when configured, otherwise
// nil, which the parser reports as an unknown word.
func (d *Dictionary) Disjuncts(word string) ([]*Disjunct, error) {
	word = normalizeWord(word)
	d.mu.RLock()
	if ds, ok := d.disjuncts[word]; ok {
		d.mu.RUnlock()
		return ds, nil
	}
	d.mu.RUnlock()

	d.mu.Lock()
	defer d.mu.Unlock()
	if ds, ok := d.disjuncts[word]; ok {
		return ds, nil
	}
	formula, ok := d.entries[word]
	if !ok {
		if isNumeric(word) {
			if numFormula, hasNum := d.macros["number"]; hasNum {
				formula = numFormula
			}
		}
		if formula == nil {
			if d.unknownWord == "" {
				return nil, nil
			}
			formula = d.macros[d.unknownWord]
		}
	}
	ds, err := buildDisjuncts(formula, d.resolveMacro)
	if err != nil {
		return nil, fmt.Errorf("word %q: %w", word, err)
	}
	for _, dj := range ds {
		dj.finalize(d.interner)
	}
	d.disjuncts[word] = ds
	return ds, nil
}

// connCells returns the number of interned connector cells, the
// largest connNode id handed out so far.
func (d *Dictionary) connCells() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.interner.cells)
}

func (d *Dictionary) resolveMacro(name string) (*Expr, error) {
	e, ok := d.macros[name]
	if !ok {
		return nil, fmt.Errorf("undefined macro <%s>", name)
	}
	return e, nil
}

// mergeOr combines an existing formula with an additional alternative.
func mergeOr(existing, extra *Expr) *Expr {
	if existing == nil {
		return extra
	}
	return &Expr{kind: exprOr, subs: []*Expr{existing, extra}}
}

// stripComments removes '%' line comments.
func stripComments(src string) string {
	var b strings.Builder
	b.Grow(len(src))
	inComment := false
	for i := 0; i < len(src); i++ {
		switch {
		case inComment:
			if src[i] == '\n' {
				inComment = false
				b.WriteByte('\n')
			}
		case src[i] == '%':
			inComment = true
		default:
			b.WriteByte(src[i])
		}
	}
	return b.String()
}

func splitStatements(src string) []string {
	return strings.Split(src, ";")
}

func clip(s string) string {
	if len(s) > 40 {
		return s[:40] + "…"
	}
	return s
}

// normalizeWord lower-cases a word for dictionary lookup. The pronoun "I"
// is stored lower-cased too; tokenization handles case folding.
func normalizeWord(w string) string {
	return strings.ToLower(w)
}

// isNumeric reports whether the token is a plain number like "42".
func isNumeric(w string) bool {
	if w == "" {
		return false
	}
	for i := 0; i < len(w); i++ {
		if w[i] < '0' || w[i] > '9' {
			return false
		}
	}
	return true
}
