// Package angel implements the Learning_Angel Agent of the paper's
// Figure 4: every chat message is parsed with the enhanced (fault
// tolerant) link grammar parser; the Label analysis & filter stage
// inspects the linkage, locates grammar errors, classifies them, and
// retrieves suitable correct sentences from the Learner Corpus as
// suggestions for the online learners.
package angel

import (
	"fmt"
	"strings"

	"semagent/internal/corpus"
	"semagent/internal/linkgrammar"
	"semagent/internal/ontology"
)

// Error tags produced by label analysis.
const (
	TagUnknownWord = "unknown-word"
	TagExtraWord   = "extra-word"
	TagAgreement   = "agreement"
	TagWordOrder   = "word-order"
	TagDeterminer  = "determiner"
	TagUnparseable = "unparseable"
)

// Options configures the agent.
type Options struct {
	// MaxSuggestions caps the corpus sentences offered to the learner.
	MaxSuggestions int
	// Repair enables the repair search that refines error tags and
	// produces "did you mean" rewrites (a handful of extra parses per
	// faulty sentence).
	Repair bool
}

// DefaultOptions returns the supervisor defaults.
func DefaultOptions() Options {
	return Options{MaxSuggestions: 2, Repair: true}
}

// Agent is the Learning_Angel.
type Agent struct {
	parser *linkgrammar.Parser
	corpus *corpus.Store
	onto   *ontology.Ontology
	opts   Options
}

// New constructs the agent. The corpus may be nil (no suggestions) and
// the ontology may be nil (no topic extraction).
func New(parser *linkgrammar.Parser, store *corpus.Store, onto *ontology.Ontology, opts Options) *Agent {
	if opts.MaxSuggestions <= 0 {
		opts.MaxSuggestions = DefaultOptions().MaxSuggestions
	}
	return &Agent{parser: parser, corpus: store, onto: onto, opts: opts}
}

// Report is the outcome of syntax supervision for one message.
type Report struct {
	Text   string
	Tokens []string
	// OK means the sentence parsed with no skipped words: no grammar
	// error detected.
	OK bool
	// Parsed means some linkage was found, possibly with null words.
	Parsed bool
	// NullTokens are token indices the parser skipped — the error
	// locations shown to the learner.
	NullTokens []int
	// UnknownWords are token indices missing from the dictionary.
	UnknownWords []int
	// Tags classify the detected errors (agreement, word order, ...).
	Tags []string
	// Repaired holds a corrected rewrite when the repair search found
	// one parse-clean edit.
	Repaired string
	// Linkage is the best linkage (nil if nothing parsed).
	Linkage *linkgrammar.Linkage
	// Topics are ontology terms found in the message.
	Topics []string
	// Suggestions are similar correct sentences from the corpus.
	Suggestions []corpus.Suggestion
	// Comment is the agent's message to the learner ("" when silent).
	Comment string
}

// Check runs syntax supervision on one chat message.
func (a *Agent) Check(text string) (*Report, error) {
	var snap *ontology.Snapshot
	if a.onto != nil {
		snap = a.onto.Snapshot()
	}
	return a.CheckWith(snap, text)
}

// CheckWith runs syntax supervision extracting topics from a
// caller-pinned ontology snapshot (nil skips topic extraction). The
// supervisor pins one snapshot per message so the syntax and semantic
// stages agree on the vocabulary.
func (a *Agent) CheckWith(snap *ontology.Snapshot, text string) (*Report, error) {
	return a.CheckTokens(snap, text, linkgrammar.Tokenize(text))
}

// CheckTokens is CheckWith for a caller that already tokenized the
// message (the supervisor tokenizes once for classification and passes
// the result down, instead of paying a second Tokenize here). The
// tokens must be Tokenize(text); the report retains the slice.
func (a *Agent) CheckTokens(snap *ontology.Snapshot, text string, tokens []string) (*Report, error) {
	rep := &Report{Text: text, Tokens: tokens}
	if len(tokens) == 0 {
		rep.OK = true
		return rep, nil
	}
	res, err := a.parser.ParseTokens(tokens)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	rep.UnknownWords = res.UnknownWords
	if snap != nil {
		for _, m := range snap.ExtractTerms(tokens) {
			rep.Topics = append(rep.Topics, m.Item.Name)
		}
	}
	if best := res.Best(); best != nil {
		rep.Parsed = true
		rep.Linkage = best
		rep.NullTokens = best.NullTokens()
	}
	if res.Valid() {
		rep.OK = true
		return rep, nil
	}

	// ---- label analysis & filter: classify what went wrong ---------
	if len(rep.UnknownWords) > 0 {
		rep.Tags = appendUnique(rep.Tags, TagUnknownWord)
	}
	if !rep.Parsed {
		rep.Tags = appendUnique(rep.Tags, TagUnparseable)
	}
	if a.opts.Repair {
		a.repair(rep)
	}
	if len(rep.Tags) == 0 {
		rep.Tags = append(rep.Tags, TagUnparseable)
	}

	// ---- corpus suggestions ----------------------------------------
	if a.corpus != nil {
		rep.Suggestions = a.corpus.Suggest(tokens, rep.Topics, a.opts.MaxSuggestions)
	}
	rep.Comment = a.comment(rep)
	return rep, nil
}

// repair tries small edits and classifies the error from whichever
// single edit yields a clean parse. When the fault-tolerant parse
// located null words, only those positions are edited; when the
// sentence was wholly unparseable (common for agreement errors, which
// break the only available linkage), every position is a candidate.
// Candidates are probed with Parser.Valid, which leaves the parse cache
// to the sentences learners actually type.
func (a *Agent) repair(rep *Report) {
	positions := rep.NullTokens
	if len(positions) == 0 {
		positions = make([]int, len(rep.Tokens))
		for i := range rep.Tokens {
			positions[i] = i
		}
	}

	// Pass 1 — agreement: toggling a plural/3sg suffix is the most
	// common learner error, so it is diagnosed first.
	for _, i := range positions {
		if i < 0 || i >= len(rep.Tokens) {
			continue
		}
		alt := toggleS(rep.Tokens[i])
		// Only consider real vocabulary — toggling must not fabricate
		// words the unknown-word fallback would happily parse.
		if alt != "" && alt != rep.Tokens[i] && a.parser.Dictionary().Has(alt) {
			edited := replaceAt(rep.Tokens, i, alt)
			if a.parser.Valid(edited) {
				rep.Tags = appendUnique(rep.Tags, TagAgreement)
				if rep.Repaired == "" {
					rep.Repaired = strings.Join(edited, " ")
				}
				return
			}
		}
	}

	// Pass 2 — extra word: dropping one word fixes duplications and
	// spurious determiners.
	for _, i := range positions {
		if i < 0 || i >= len(rep.Tokens) || len(rep.Tokens) <= 1 {
			continue
		}
		dropped := deleteAt(rep.Tokens, i)
		if a.parser.Valid(dropped) {
			tag := TagExtraWord
			if isDeterminer(rep.Tokens[i]) {
				tag = TagDeterminer
			}
			rep.Tags = appendUnique(rep.Tags, tag)
			if rep.Repaired == "" {
				rep.Repaired = strings.Join(dropped, " ")
			}
			return
		}
	}

	// Pass 3 — word order: swapping adjacent words.
	for _, i := range positions {
		for _, j := range []int{i - 1, i + 1} {
			if i < 0 || i >= len(rep.Tokens) || j < 0 || j >= len(rep.Tokens) {
				continue
			}
			swapped := swapAt(rep.Tokens, i, j)
			if a.parser.Valid(swapped) {
				rep.Tags = appendUnique(rep.Tags, TagWordOrder)
				if rep.Repaired == "" {
					rep.Repaired = strings.Join(swapped, " ")
				}
				return
			}
		}
	}
}

// comment renders the learner-facing message.
func (a *Agent) comment(rep *Report) string {
	var b strings.Builder
	b.WriteString("I found a grammar problem")
	if len(rep.NullTokens) > 0 {
		words := make([]string, 0, len(rep.NullTokens))
		for _, i := range rep.NullTokens {
			if i >= 0 && i < len(rep.Tokens) {
				words = append(words, "\""+rep.Tokens[i]+"\"")
			}
		}
		if len(words) > 0 {
			fmt.Fprintf(&b, " near %s", strings.Join(words, ", "))
		}
	}
	b.WriteString(".")
	if rep.Repaired != "" {
		fmt.Fprintf(&b, " Did you mean: %q?", rep.Repaired)
	}
	for _, tag := range rep.Tags {
		switch tag {
		case TagAgreement:
			b.WriteString(" Check subject-verb agreement.")
		case TagDeterminer:
			b.WriteString(" Check your articles (a/an/the).")
		case TagWordOrder:
			b.WriteString(" Check the word order.")
		case TagUnknownWord:
			b.WriteString(" Some words are not in the course vocabulary.")
		}
	}
	if len(rep.Suggestions) > 0 {
		b.WriteString(" A similar correct sentence: \"")
		b.WriteString(rep.Suggestions[0].Record.Text)
		b.WriteString("\"")
	}
	return b.String()
}

func appendUnique(tags []string, tag string) []string {
	for _, t := range tags {
		if t == tag {
			return tags
		}
	}
	return append(tags, tag)
}

func deleteAt(tokens []string, i int) []string {
	out := make([]string, 0, len(tokens)-1)
	out = append(out, tokens[:i]...)
	return append(out, tokens[i+1:]...)
}

func replaceAt(tokens []string, i int, word string) []string {
	out := append([]string(nil), tokens...)
	out[i] = word
	return out
}

func swapAt(tokens []string, i, j int) []string {
	out := append([]string(nil), tokens...)
	out[i], out[j] = out[j], out[i]
	return out
}

// toggleS flips a trailing "s" — the cheapest proxy for switching
// between base and third-person-singular verb forms or singular/plural
// nouns.
func toggleS(word string) string {
	switch {
	case strings.HasSuffix(word, "ses"), strings.HasSuffix(word, "shes"), strings.HasSuffix(word, "ches"), strings.HasSuffix(word, "xes"):
		return word[:len(word)-2]
	case strings.HasSuffix(word, "ies") && len(word) > 3:
		return word[:len(word)-3] + "y"
	case strings.HasSuffix(word, "s") && !strings.HasSuffix(word, "ss"):
		return word[:len(word)-1]
	case strings.HasSuffix(word, "sh"), strings.HasSuffix(word, "ch"), strings.HasSuffix(word, "x"), strings.HasSuffix(word, "ss"):
		return word + "es"
	case strings.HasSuffix(word, "y") && len(word) > 1 && !isVowel(word[len(word)-2]):
		return word[:len(word)-1] + "ies"
	default:
		return word + "s"
	}
}

func isVowel(b byte) bool {
	switch b {
	case 'a', 'e', 'i', 'o', 'u':
		return true
	}
	return false
}

func isDeterminer(word string) bool {
	switch word {
	case "a", "an", "the", "this", "that", "these", "those", "my", "your", "our", "their", "its", "his", "her":
		return true
	}
	return false
}
