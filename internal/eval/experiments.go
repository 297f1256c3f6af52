package eval

import (
	"fmt"
	"strings"
	"time"

	"semagent/internal/core"
	"semagent/internal/corpus"
	"semagent/internal/linkgrammar"
	"semagent/internal/ontology"
	"semagent/internal/semantic"
	"semagent/internal/workload"
)

// newSupervised builds the standard supervisor used across experiments.
func newSupervised() (*core.Supervisor, error) {
	return core.New(core.Config{})
}

// ---------------------------------------------------------------- E1

// E1Result measures parser correctness on generated grammatical
// sentences (paper Figures 1–2: linkage formation).
type E1Result struct {
	Total          int
	Parsed         int // valid linkage with zero nulls
	MetaViolations int // emitted linkages violating any meta-rule
	ByLength       map[int]*E1Bucket
}

// E1Bucket aggregates per sentence length.
type E1Bucket struct {
	Total  int
	Parsed int
}

// ParseRate is the fraction of grammatical sentences fully parsed.
func (r *E1Result) ParseRate() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Parsed) / float64(r.Total)
}

// RunE1 parses n generated grammatical sentences and validates every
// returned linkage against the four meta-rules.
func RunE1(n int, seed int64) (*E1Result, error) {
	sup, err := newSupervised()
	if err != nil {
		return nil, err
	}
	gen := workload.NewGenerator(seed, sup.Ontology())
	parser := sup.Parser()
	res := &E1Result{ByLength: make(map[int]*E1Bucket)}
	for i := 0; i < n; i++ {
		s := gen.Correct()
		out, err := parser.Parse(s.Text)
		if err != nil {
			return nil, fmt.Errorf("parse %q: %w", s.Text, err)
		}
		res.Total++
		length := len(out.Tokens)
		b := res.ByLength[length]
		if b == nil {
			b = &E1Bucket{}
			res.ByLength[length] = b
		}
		b.Total++
		if out.Valid() {
			res.Parsed++
			b.Parsed++
		}
		for _, lk := range out.Linkages {
			if lk.Validate() != nil {
				res.MetaViolations++
			}
		}
	}
	return res, nil
}

// ---------------------------------------------------------------- E2

// E2Result measures Learning_Angel syntax-error detection (Figure 4).
type E2Result struct {
	Confusion Confusion
	// SuggestionRate is the fraction of detected errors for which the
	// corpus produced at least one suggestion (after warm-up).
	SuggestionRate float64
	// RepairRate is the fraction of detected errors with a
	// "did you mean" rewrite.
	RepairRate float64
	// ByMutation breaks detection recall down per corruption kind.
	ByMutation map[string]*Confusion
	// MaxNulls echoes the parser budget swept in design decision D1.
	MaxNulls int
}

// RunE2 scores the Learning_Angel on a labelled half-correct,
// half-corrupted workload. maxNulls == 0 selects stock link grammar
// behaviour (the D1 ablation's strict arm).
func RunE2(n int, seed int64, maxNulls int) (*E2Result, error) {
	optNulls := maxNulls
	if optNulls == 0 {
		optNulls = -1 // explicit "no nulls" in parser options
	}
	sup, err := core.New(core.Config{
		ParserOptions: linkgrammar.Options{MaxNulls: optNulls},
	})
	if err != nil {
		return nil, err
	}
	gen := workload.NewGenerator(seed, sup.Ontology())
	res := &E2Result{ByMutation: make(map[string]*Confusion), MaxNulls: maxNulls}

	// Warm the corpus with correct sentences so suggestions can fire.
	for i := 0; i < 50; i++ {
		s := gen.Correct()
		sup.Corpus().Add(corpus.Record{
			Text:    s.Text,
			Tokens:  linkgrammar.Tokenize(s.Text),
			Verdict: corpus.VerdictCorrect,
			Topics:  s.Topics,
		})
	}

	detectedErrors, withSuggestion, withRepair := 0, 0, 0
	for i := 0; i < n; i++ {
		var s workload.Sample
		if i%2 == 0 {
			s = gen.Correct()
		} else {
			s = gen.SyntaxError()
		}
		rep, err := sup.Angel().Check(s.Text)
		if err != nil {
			return nil, fmt.Errorf("check %q: %w", s.Text, err)
		}
		predictedErr := !rep.OK
		actualErr := s.Kind == workload.KindSyntaxError
		res.Confusion.Observe(predictedErr, actualErr)
		if actualErr {
			mc := res.ByMutation[s.Mutation]
			if mc == nil {
				mc = &Confusion{}
				res.ByMutation[s.Mutation] = mc
			}
			mc.Observe(predictedErr, true)
		}
		if predictedErr && actualErr {
			detectedErrors++
			if len(rep.Suggestions) > 0 {
				withSuggestion++
			}
			if rep.Repaired != "" {
				withRepair++
			}
		}
	}
	if detectedErrors > 0 {
		res.SuggestionRate = float64(withSuggestion) / float64(detectedErrors)
		res.RepairRate = float64(withRepair) / float64(detectedErrors)
	}
	return res, nil
}

// ---------------------------------------------------------------- E3

// E3Result measures Semantic Agent accuracy (Figure 5, §4.3),
// including the four polarity×relatedness cells.
type E3Result struct {
	Confusion Confusion
	// Cells indexes accuracy per truth-table cell:
	// "affirm-related", "affirm-unrelated", "negate-related",
	// "negate-unrelated".
	Cells     map[string]*Confusion
	Threshold int
}

// RunE3 scores the ontology-distance Semantic Agent on grammatical
// sentences whose semantic validity is known.
func RunE3(n int, seed int64, threshold int) (*E3Result, error) {
	sup, err := core.New(core.Config{SemanticThreshold: threshold})
	if err != nil {
		return nil, err
	}
	gen := workload.NewGenerator(seed, sup.Ontology())
	res := &E3Result{Cells: make(map[string]*Confusion), Threshold: sup.Semantic().Threshold()}
	for i := 0; i < n; i++ {
		var s workload.Sample
		if i%2 == 0 {
			s = gen.Correct()
		} else {
			s = gen.SemanticError()
		}
		if len(s.Topics) < 2 {
			// Chit-chat with no ontology pair cannot be semantically
			// judged; skip to keep the ground truth meaningful.
			continue
		}
		analysis := sup.Semantic().AnalyzeText(s.Text)
		predicted := analysis.Verdict == semantic.VerdictInterrogative
		actual := s.Kind == workload.KindSemanticError
		res.Confusion.Observe(predicted, actual)

		cell := cellName(s.Negated, actual)
		cc := res.Cells[cell]
		if cc == nil {
			cc = &Confusion{}
			res.Cells[cell] = cc
		}
		cc.Observe(predicted, actual)
	}
	return res, nil
}

func cellName(negated, isError bool) string {
	polarity := "affirm"
	if negated {
		polarity = "negate"
	}
	// For affirmative sentences error <=> unrelated pair; for negated
	// sentences error <=> related pair.
	related := isError == negated
	rel := "unrelated"
	if related {
		rel = "related"
	}
	return polarity + "-" + rel
}

// ---------------------------------------------------------------- E4

// E4Row is the per-template QA outcome (Figure 6, §4.4).
type E4Row struct {
	Template  string
	Asked     int
	Answered  int
	Correct   int // yes/no ground truth matched (does-have, is-a only)
	Checkable int
}

// E4Result aggregates QA measurements.
type E4Result struct {
	Rows []E4Row
	// OutOfOntologyAsked / Answered quantify refusals on unknown terms
	// (they should NOT be answered).
	OutOfOntologyAsked    int
	OutOfOntologyAnswered int
}

// AnswerRate over all in-ontology questions.
func (r *E4Result) AnswerRate() float64 {
	asked, answered := 0, 0
	for _, row := range r.Rows {
		asked += row.Asked
		answered += row.Answered
	}
	if asked == 0 {
		return 0
	}
	return float64(answered) / float64(asked)
}

// RunE4 asks n generated questions and scores answer rate plus yes/no
// correctness.
func RunE4(n int, seed int64, outOfOntologyFrac float64) (*E4Result, error) {
	sup, err := newSupervised()
	if err != nil {
		return nil, err
	}
	gen := workload.NewGenerator(seed, sup.Ontology())
	rows := make(map[string]*E4Row)
	res := &E4Result{}
	for i := 0; i < n; i++ {
		outOfOnto := float64(i%100)/100 < outOfOntologyFrac
		s := gen.Question(outOfOnto)
		ans := sup.QA().Ask(s.Text)
		if !s.InOntology {
			res.OutOfOntologyAsked++
			if ans.Answered {
				res.OutOfOntologyAnswered++
			}
			continue
		}
		row := rows[s.Template]
		if row == nil {
			row = &E4Row{Template: s.Template}
			rows[s.Template] = row
		}
		row.Asked++
		if ans.Answered {
			row.Answered++
		}
		if s.Template == "does-have" || s.Template == "is-a" {
			row.Checkable++
			if ans.Answered {
				gotYes := strings.HasPrefix(ans.Text, "Yes")
				if gotYes == s.WantYes {
					row.Correct++
				}
			}
		}
	}
	for _, tmpl := range []string{"what-is", "does-have", "which-has", "is-a", "relations-of"} {
		if row := rows[tmpl]; row != nil {
			res.Rows = append(res.Rows, *row)
		}
	}
	return res, nil
}

// ---------------------------------------------------------------- E5

// E5Row tracks FAQ growth for one dialogue volume.
type E5Row struct {
	Messages   int
	FAQEntries int
	MinedPairs int
	TopCount   int // frequency of the most popular FAQ entry
}

// RunE5 replays scripted classroom sessions of increasing size and
// reports FAQ accumulation (§4.4 mining).
func RunE5(sizes []int, seed int64) ([]E5Row, error) {
	var out []E5Row
	for _, size := range sizes {
		sup, err := newSupervised()
		if err != nil {
			return nil, err
		}
		gen := workload.NewGenerator(seed, sup.Ontology())
		for _, msg := range gen.Session(4, 4, size) {
			if _, err := sup.Process(msg.Room, msg.User, msg.Sample.Text); err != nil {
				return nil, err
			}
		}
		row := E5Row{
			Messages:   size,
			FAQEntries: sup.FAQ().Len(),
			MinedPairs: sup.Generator().MinedPairs(),
		}
		if top := sup.FAQ().Top(1); len(top) > 0 {
			row.TopCount = top[0].Count
		}
		out = append(out, row)
	}
	return out, nil
}

// ---------------------------------------------------------------- E7

// E7Result compares the two §4.3 methodologies (design decision D3).
type E7Result struct {
	Onto E7Arm
	SLG  E7Arm
}

// E7Arm is one methodology's measurements.
type E7Arm struct {
	Name      string
	Confusion Confusion
	// MicrosPerSentence is the mean analysis cost.
	MicrosPerSentence float64
	// MaintenanceSize is ontology edges vs compiled lexicon rows.
	MaintenanceSize int
}

// RunE7 runs the ablation between Semantic Relation of Knowledge
// Ontology (chosen by the paper) and the Semantic Link Grammar
// baseline (rejected by the paper).
func RunE7(n int, seed int64) (*E7Result, error) {
	onto := ontology.BuildCourseOntology()
	agent := semantic.New(onto, 0)
	slg := semantic.NewSLGChecker(onto)
	gen := workload.NewGenerator(seed, onto)

	samples := make([]workload.Sample, 0, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			samples = append(samples, gen.Correct())
		} else {
			samples = append(samples, gen.SemanticError())
		}
	}

	run := func(name string, checker semantic.Checker, maintenance int) E7Arm {
		arm := E7Arm{Name: name, MaintenanceSize: maintenance}
		start := time.Now()
		judged := 0
		for _, s := range samples {
			if len(s.Topics) < 2 {
				continue
			}
			a := checker.AnalyzeText(s.Text)
			predicted := a.Verdict == semantic.VerdictInterrogative
			actual := s.Kind == workload.KindSemanticError
			arm.Confusion.Observe(predicted, actual)
			judged++
		}
		if judged > 0 {
			arm.MicrosPerSentence = float64(time.Since(start).Microseconds()) / float64(judged)
		}
		return arm
	}

	// Maintenance cost: rows an author must keep correct to encode the
	// feature-concept facts. The ontology states each fact once as an
	// edge; the lexicalized baseline additionally enumerates every
	// subtype (no graph to traverse), so it is strictly larger — the
	// paper's stated reason for rejecting it.
	edges := 0
	for _, r := range onto.Relations() {
		if r.Kind == ontology.RelHasOperation || r.Kind == ontology.RelHasProperty {
			edges++
		}
	}
	res := &E7Result{
		Onto: run("ontology-distance", agent, edges),
		SLG:  run("semantic-link-grammar", slg, slg.DictionaryEntries()),
	}
	return res, nil
}

// ---------------------------------------------------------------- E8

// E8Row reports suggestion quality at one corpus warm-up size.
type E8Row struct {
	CorpusSize int
	// HitRate is the fraction of broken sentences that received at
	// least one suggestion.
	HitRate float64
	// TopicalRate is the fraction whose top suggestion shares a topic
	// with the broken sentence.
	TopicalRate float64
}

// RunE8 measures how corpus growth improves Learning_Angel suggestions.
func RunE8(warmups []int, probes int, seed int64) ([]E8Row, error) {
	var out []E8Row
	for _, warm := range warmups {
		sup, err := newSupervised()
		if err != nil {
			return nil, err
		}
		gen := workload.NewGenerator(seed, sup.Ontology())
		for i := 0; i < warm; i++ {
			s := gen.Correct()
			sup.Corpus().Add(corpus.Record{
				Text:    s.Text,
				Tokens:  linkgrammar.Tokenize(s.Text),
				Verdict: corpus.VerdictCorrect,
				Topics:  s.Topics,
			})
		}
		hits, topical := 0, 0
		for i := 0; i < probes; i++ {
			s := gen.SyntaxError()
			rep, err := sup.Angel().Check(s.Text)
			if err != nil {
				return nil, err
			}
			if rep.OK {
				continue // undetected corruption: no suggestion expected
			}
			if len(rep.Suggestions) > 0 {
				hits++
				if sharesTopic(rep.Suggestions[0].Record.Topics, s.Topics) {
					topical++
				}
			}
		}
		row := E8Row{CorpusSize: warm}
		if probes > 0 {
			row.HitRate = float64(hits) / float64(probes)
			row.TopicalRate = float64(topical) / float64(probes)
		}
		out = append(out, row)
	}
	return out, nil
}

func sharesTopic(a, b []string) bool {
	set := make(map[string]bool, len(a))
	for _, t := range a {
		set[t] = true
	}
	for _, t := range b {
		if set[t] {
			return true
		}
	}
	return false
}
