package linkgrammar

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func newTestParser(t *testing.T) *Parser {
	t.Helper()
	p, err := NewEnglishParser()
	if err != nil {
		t.Fatalf("NewEnglishParser: %v", err)
	}
	return p
}

func mustParse(t *testing.T, p *Parser, sentence string) *Result {
	t.Helper()
	res, err := p.Parse(sentence)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sentence, err)
	}
	return res
}

func TestPaperExampleSentence(t *testing.T) {
	// Figure 2 of the paper: "The cat chased a mouse."
	p := newTestParser(t)
	res := mustParse(t, p, "The cat chased a mouse.")
	if !res.Valid() {
		t.Fatalf("sentence should parse with no null words, got nulls=%d linkages=%d",
			res.NullCount, len(res.Linkages))
	}
	best := res.Best()
	if err := best.Validate(); err != nil {
		t.Fatalf("best linkage invalid: %v\n%s", err, best)
	}
	// Expected links of Fig. 2: D(the,cat) S(cat,chased) O(chased,mouse) D(a,mouse).
	for _, want := range [][2]int{{1, 2}, {2, 3}, {3, 5}, {4, 5}} {
		if !best.HasLinkBetween(want[0], want[1]) {
			t.Errorf("missing link between words %d and %d\n%s", want[0], want[1], best)
		}
	}
}

func TestGrammaticalSentencesParse(t *testing.T) {
	p := newTestParser(t)
	sentences := []string{
		"The cat chased a mouse.",
		"A stack is a lifo structure.",
		"The stack has a push operation.",
		"I push the data into the stack.",
		"The teacher explains the lesson.",
		"Students understand the course.",
		"Does a stack have a pop method?",
		"What is a stack?",
		"Which structure has the method push?",
		"The tree doesn't have a pop method.",
		"A queue supports the enqueue operation.",
		"You can insert a value into the tree.",
		"The algorithm sorts the elements.",
		"Is the stack empty?",
		"How does a queue work?",
		"Push the data into the stack.",
		"A binary tree has a root node.",
		"The data is stored in the heap.",
		"I want to learn the algorithm.",
		"The list doesn't contain the value.",
		"We discuss the homework.",
		"It is very useful.",
		"The relations of the stack and the queue are important.",
		"A heap is a complete binary tree.",
		"Trees have nodes.",
	}
	for _, s := range sentences {
		res := mustParse(t, p, s)
		if !res.Valid() {
			t.Errorf("%q: expected a full parse, got nulls=%d linkages=%d unknown=%v",
				s, res.NullCount, len(res.Linkages), res.UnknownWords)
			continue
		}
		for _, lk := range res.Linkages {
			if err := lk.Validate(); err != nil {
				t.Errorf("%q: invalid linkage: %v\n%s", s, err, lk)
			}
		}
	}
}

func TestUngrammaticalSentencesNeedNulls(t *testing.T) {
	p := newTestParser(t)
	sentences := []string{
		"The cat chased chased a mouse.",
		"Cat the chased a mouse.",
		"The the cat chased a mouse.",
		"The cats chases a mouse.", // agreement error
		"I pushes the data.",       // agreement error
	}
	for _, s := range sentences {
		res := mustParse(t, p, s)
		if res.Valid() {
			t.Errorf("%q: expected syntax trouble, but parsed cleanly:\n%s", s, res.Best())
		}
	}
}

func TestNullWordsLocateError(t *testing.T) {
	p := newTestParser(t)
	res := mustParse(t, p, "The the cat chased a mouse.")
	if len(res.Linkages) == 0 {
		t.Fatal("expected a fault-tolerant parse")
	}
	if res.NullCount != 1 {
		t.Fatalf("want 1 null word, got %d", res.NullCount)
	}
	best := res.Best()
	nulls := best.NullTokens()
	if len(nulls) != 1 || (nulls[0] != 0 && nulls[0] != 1) {
		t.Errorf("null word should be one of the duplicated determiners, got %v", nulls)
	}
	if err := best.Validate(); err != nil {
		t.Errorf("linkage with nulls should still validate: %v", err)
	}
}

func TestQuestionLinkagesCarryWqLabel(t *testing.T) {
	p := newTestParser(t)
	for _, s := range []string{
		"What is a stack?",
		"Does a stack have a pop method?",
		"Which structure has the method push?",
		"How does a queue work?",
	} {
		res := mustParse(t, p, s)
		if !res.Valid() {
			t.Errorf("%q should parse", s)
			continue
		}
		if !res.Best().HasLabel("Wq") {
			t.Errorf("%q: expected a Wq wall link\n%s", s, res.Best())
		}
	}
}

func TestImperativeLinkagesCarryWiLabel(t *testing.T) {
	p := newTestParser(t)
	res := mustParse(t, p, "Push the data into the stack.")
	if !res.Valid() {
		t.Fatal("imperative should parse")
	}
	if !res.Best().HasLabel("Wi") {
		t.Errorf("expected a Wi wall link\n%s", res.Best())
	}
}

func TestUnknownWordsReported(t *testing.T) {
	p := newTestParser(t)
	res := mustParse(t, p, "The gizmo frobnicates the data.")
	if len(res.UnknownWords) == 0 {
		t.Error("expected unknown words to be reported")
	}
}

func TestDiagramRendering(t *testing.T) {
	p := newTestParser(t)
	res := mustParse(t, p, "The cat chased a mouse.")
	diagram := res.Best().String()
	for _, want := range []string{"left-wall", "cat", "chased", "mouse", "+"} {
		if !strings.Contains(diagram, want) {
			t.Errorf("diagram missing %q:\n%s", want, diagram)
		}
	}
}

func TestConnectorMatching(t *testing.T) {
	cases := []struct {
		r, l string
		want bool
	}{
		{"S+", "S-", true},
		{"Ss+", "S-", true},
		{"S+", "Ss-", true},
		{"Ss+", "Ss-", true},
		{"Ss+", "Sp-", false},
		{"S*b+", "Ssb-", true}, // '*' is a wildcard subscript
		{"Sab+", "Ssb-", false},
		{"S*b+", "Spb-", true},
		{"D+", "S-", false},
		{"SI+", "S-", false},
		{"Wd+", "Wd-", true},
		{"Wd+", "Wq-", false},
	}
	for _, tc := range cases {
		r, err := parseConnectorToken(tc.r)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.r, err)
		}
		l, err := parseConnectorToken(tc.l)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.l, err)
		}
		if got := Match(r, l); got != tc.want {
			t.Errorf("Match(%s,%s) = %v, want %v", tc.r, tc.l, got, tc.want)
		}
	}
}

func TestDirectionsMustOppose(t *testing.T) {
	a := Connector{Name: "S", Dir: DirRight}
	b := Connector{Name: "S", Dir: DirRight}
	if Match(a, b) {
		t.Error("two right-pointing connectors must not match")
	}
}

// TestMemoKeyLayoutEdge drives the count memo's packed key to its
// 64-bit budget. At exactly 64 bits the largest value of every field
// fills the key, every combination of extreme field values gives a
// distinct key, and one more bit in any field is refused.
func TestMemoKeyLayoutEdge(t *testing.T) {
	const words, cells, nulls = 1<<16 - 1, 1<<12 - 1, 1<<8 - 1 // 2×16 + 2×12 + 8 bits
	k, ok := newKeyLayout(words, cells, nulls)
	if !ok {
		t.Fatal("a 64-bit layout was refused")
	}
	for _, over := range [][3]int{{words + 1, cells, nulls}, {words, cells + 1, nulls}, {words, cells, nulls + 1}} {
		if _, ok := newKeyLayout(over[0], over[1], over[2]); ok {
			t.Errorf("newKeyLayout%v accepted a 65-bit layout", over)
		}
	}
	cell := func(id int) *connNode {
		if id == 0 {
			return nil
		}
		return &connNode{id: uint32(id)}
	}
	if got := k.key(words, words, cell(cells), cell(cells), nulls); got != math.MaxUint64 {
		t.Fatalf("largest key = %#x, want all 64 bits set", got)
	}
	seen := make(map[uint64][5]int)
	wordVals, cellVals, nullVals := []int{0, 1, words / 2, words - 1, words}, []int{0, 1, cells/2 + 1, cells}, []int{0, 1, nulls}
	for _, a := range wordVals {
		for _, b := range wordVals {
			for _, la := range cellVals {
				for _, lb := range cellVals {
					for _, n := range nullVals {
						args := [5]int{a, b, la, lb, n}
						key := k.key(a, b, cell(la), cell(lb), n)
						if prev, dup := seen[key]; dup {
							t.Fatalf("key %#x shared by %v and %v", key, prev, args)
						}
						seen[key] = args
					}
				}
			}
		}
	}
}

// TestParseRefusesSentencesPastTheMemoKey gives a parser limits that
// admit a sentence too long for the 64-bit memo key: ParseTokens
// refuses it with an error and Valid says false, rather than parsing
// with colliding keys.
func TestParseRefusesSentencesPastTheMemoKey(t *testing.T) {
	dict, err := NewEnglishDictionary()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range dict.Words() {
		if _, err := dict.Disjuncts(w); err != nil {
			t.Fatal(err)
		}
	}
	if cells := dict.connCells(); cells < 128 {
		t.Fatalf("the English dictionary interned %d connector cells, want 8 bits of id", cells)
	}
	p := NewParser(dict, Options{MaxTokens: 1 << 20, MaxNulls: 1 << 20})
	tokens := make([]string, 1<<16)
	for i := range tokens {
		tokens[i] = "the"
	}
	// 2×17 bits of word index, 16 of null count and 2×8 of connector id.
	if _, err := p.ParseTokens(tokens); err == nil || !strings.Contains(err.Error(), "memo key") {
		t.Fatalf("ParseTokens of %d tokens: err = %v, want the memo-key limit", len(tokens), err)
	}
	if p.Valid(tokens) {
		t.Fatal("Valid accepted a sentence past the memo key")
	}
}

// TestMemoKeyWidensWithTheInterner grows the connector interner past a
// power of two with Define between parses on pooled scratch, so the
// key's id fields widen between two parses, and checks both parses
// against the oracle.
func TestMemoKeyWidensWithTheInterner(t *testing.T) {
	dict, err := NewEnglishDictionary()
	if err != nil {
		t.Fatal(err)
	}
	p := NewParser(dict, Options{})
	tokens := Tokenize("the the student learns the lesson about the stack")
	checkOracle(t, p, tokens)
	width := func() uint8 {
		sc := p.scratch.Get().(*parseScratch)
		defer p.releaseScratch(sc)
		if _, _, err := p.prepare(sc, tokens, false); err != nil {
			t.Fatal(err)
		}
		return sc.st.keys.laShift - sc.st.keys.lbShift
	}
	before := width()
	for i := 0; width() == before; i++ {
		word := fmt.Sprintf("zork%d", i)
		conn := fmt.Sprintf("ZK%c%c", 'a'+i%26, 'a'+i/26%26)
		if err := dict.Define(word, conn+"+ or "+conn+"-"); err != nil {
			t.Fatal(err)
		}
		if _, err := dict.Disjuncts(word); err != nil {
			t.Fatal(err)
		}
	}
	checkOracle(t, p, tokens)
	checkOracle(t, p, append(Tokenize("the student learns the"), "zork0"))
}
