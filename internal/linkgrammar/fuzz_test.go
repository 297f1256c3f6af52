package linkgrammar

import (
	"slices"
	"strings"
	"testing"
)

// FuzzTokenize hammers the chat-line tokenizer with arbitrary input.
// Invariants: no panic; no empty tokens; tokens are lower-case ASCII
// word characters with no leading or trailing hyphen/apostrophe; and
// tokenization is a fixpoint (re-tokenizing the joined tokens yields
// the same tokens), so downstream consumers can treat token lists as
// canonical.
func FuzzTokenize(f *testing.F) {
	for _, s := range []string{
		"",
		"The stack has a push operation.",
		"doesn't DOESN'T doesn’t",
		"last-in first-out (LIFO)!",
		"what is a stack?",
		"a--b ''c -- '' -",
		"héllo wörld — ünïcode",
		"tabs\tand\nnewlines\r\n",
		"123 4a5 a1b2c3",
		"emoji 🎓 classroom",
		strings.Repeat("x", 300),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		toks := Tokenize(s)
		for _, tok := range toks {
			if tok == "" {
				t.Fatalf("empty token in %v from %q", toks, s)
			}
			if tok[0] == '-' || tok[0] == '\'' || tok[len(tok)-1] == '-' || tok[len(tok)-1] == '\'' {
				t.Fatalf("token %q has leading/trailing punctuation (input %q)", tok, s)
			}
			for i := 0; i < len(tok); i++ {
				c := tok[i]
				ok := c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '-' || c == '\''
				if !ok {
					t.Fatalf("token %q contains invalid byte %q (input %q)", tok, c, s)
				}
			}
		}
		again := Tokenize(strings.Join(toks, " "))
		if len(again) != len(toks) {
			t.Fatalf("tokenize not a fixpoint: %v -> %v (input %q)", toks, again, s)
		}
		for i := range toks {
			if toks[i] != again[i] {
				t.Fatalf("tokenize not a fixpoint at %d: %v -> %v (input %q)", i, toks, again, s)
			}
		}

		// The question-mark cue must agree with the raw text.
		q := EndsWithQuestionMark(s)
		trimmed := strings.TrimRight(s, " \t\r\n")
		if q != strings.HasSuffix(trimmed, "?") {
			t.Fatalf("EndsWithQuestionMark(%q) = %v", s, q)
		}
	})
}

// FuzzParseMatchesOracle checks the extractor against the oracle
// (oracle_test.go) on arbitrary token streams. The first byte picks the
// dictionary: odd bytes the double-link dictionary of
// TestValidAppliesExclusionFilter, where the exclusion filter drops
// counted linkages, even bytes the English dictionary. Every later byte
// indexes the chosen dictionary's words plus one unknown word, up to
// twelve tokens. ParseTokens must equal the oracle's Result (every
// linkage's links, labels, connectors, null words, cost and order) and
// Valid must agree with it.
func FuzzParseMatchesOracle(f *testing.F) {
	english, err := NewEnglishDictionary()
	if err != nil {
		f.Fatal(err)
	}
	doubleLink := NewDictionary()
	if err := doubleLink.LoadString(doubleLinkDict); err != nil {
		f.Fatal(err)
	}
	type vocab struct {
		p     *Parser
		words []string
	}
	vocabs := [2]vocab{
		{NewParser(english, Options{}), append(english.Words(), "zzqx")},
		{NewParser(doubleLink, Options{}), append(doubleLink.Words(), "zzqx")},
	}
	index := func(v vocab, sentence ...string) []byte {
		out := []byte{0}
		if v.p == vocabs[1].p {
			out[0] = 1
		}
		for _, w := range sentence {
			i := slices.Index(v.words, w)
			if i < 0 {
				f.Fatalf("%q is not in the vocabulary", w)
			}
			out = append(out, byte(i))
		}
		return out
	}
	for _, s := range []string{
		"the cat chased a mouse",
		"the the student learns the lesson",
		"the students learns the lesson",
		"what is a stack",
		"the zzqx has a zzqx",
	} {
		f.Add(index(vocabs[0], strings.Fields(s)...))
	}
	for _, s := range []string{"c b a", "c b a a", "a c b a", "c zzqx b a", "b c"} {
		f.Add(index(vocabs[1], strings.Fields(s)...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		v := vocabs[data[0]&1]
		var tokens []string
		for _, b := range data[1:min(len(data), 13)] {
			tokens = append(tokens, v.words[int(b)%len(v.words)])
		}
		checkOracle(t, v.p, tokens)
	})
}
