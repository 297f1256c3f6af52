// Package core composes the paper's full supervision pipeline
// (Figure 3): every chat-room message flows through the Learning_Angel
// Agent (syntax), the Semantic Agent (ontology-distance semantics) and
// the Questions-and-Answers System, while the Learning Statistic
// Analyzer and Corpora Generator record the dialogue into the Learner
// Corpus, User Profile and FAQ databases. This is the library's main
// entry point — a downstream user builds a Supervisor and attaches it
// to a chat room (package chat) or calls Process directly.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"semagent/internal/angel"
	"semagent/internal/chat"
	"semagent/internal/corpus"
	"semagent/internal/linkgrammar"
	"semagent/internal/metrics"
	"semagent/internal/ontology"
	"semagent/internal/profile"
	"semagent/internal/qa"
	"semagent/internal/recommend"
	"semagent/internal/semantic"
	"semagent/internal/sentence"
	"semagent/internal/stats"
)

// Agent names used in chat responses.
const (
	AgentAngel    = "Learning_Angel"
	AgentSemantic = "Semantic_Agent"
	AgentQA       = "QA_System"
)

// Config assembles a Supervisor. Zero values select the built-in
// course-domain components.
type Config struct {
	// Ontology defaults to the built-in Data Structure course ontology.
	Ontology *ontology.Ontology
	// Dictionary defaults to the built-in English dictionary; ontology
	// terms are taught to it automatically (TeachOntologyTerms).
	Dictionary *linkgrammar.Dictionary
	// ParserOptions defaults to linkgrammar.DefaultOptions. Its
	// CacheSize field is tri-state at this layer: 0 enables the parse
	// cache at linkgrammar.DefaultParseCacheSize (identical classroom
	// sentences recur heavily, see DESIGN.md D6), a positive value sets
	// the capacity, a negative value disables caching.
	ParserOptions linkgrammar.Options
	// SemanticThreshold defaults to ontology.DefaultRelatedThreshold.
	SemanticThreshold int
	// Corpus defaults to a fresh store.
	Corpus *corpus.Store
	// Profiles defaults to a fresh store.
	Profiles *profile.Store
	// FAQ defaults to a fresh database.
	FAQ *qa.FAQ
	// DisableRecording turns off corpus/profile/stats updates
	// (useful for pure benchmarking of the agent pipeline).
	DisableRecording bool
	// Now supplies the event timestamps recorded into the statistic
	// analyzer, the corpora generator and (through them) the learner
	// corpus. Nil selects the wall clock. The scenario simulator
	// (DESIGN.md D11) injects its virtual clock here so a replayed
	// session carries identical timestamps every run.
	Now func() time.Time
	// Metrics, if set, registers per-stage latency histograms
	// (semagent_stage_seconds{stage=angel|semantic|qa}), the whole-
	// pipeline semagent_process_seconds, per-verdict message counters
	// and semagent_supervision_errors_total (chat lines whose
	// supervision failed). Nil runs the hot path uninstrumented at zero
	// cost.
	Metrics *metrics.Registry
}

// supMetrics are the supervisor's hot-path instruments.
type supMetrics struct {
	process                  *metrics.Histogram
	angel, semantic, qaStage *metrics.Histogram
	verdicts                 map[corpus.Verdict]*metrics.Counter
	errors                   *metrics.Counter
}

func newSupMetrics(r *metrics.Registry) *supMetrics {
	if r == nil {
		return nil
	}
	m := &supMetrics{
		process:  r.DurationHistogram("semagent_process_seconds", "whole supervision pipeline latency per message"),
		angel:    r.DurationHistogram("semagent_stage_seconds", "supervision stage latency", metrics.L("stage", "angel")),
		semantic: r.DurationHistogram("semagent_stage_seconds", "supervision stage latency", metrics.L("stage", "semantic")),
		qaStage:  r.DurationHistogram("semagent_stage_seconds", "supervision stage latency", metrics.L("stage", "qa")),
		verdicts: make(map[corpus.Verdict]*metrics.Counter),
		errors:   r.Counter("semagent_supervision_errors_total", "chat lines whose supervision failed (e.g. over MaxTokens) and drew no verdict"),
	}
	for _, v := range []corpus.Verdict{
		corpus.VerdictCorrect, corpus.VerdictSyntaxError,
		corpus.VerdictSemanticError, corpus.VerdictQuestion,
	} {
		m.verdicts[v] = r.Counter("semagent_messages_total", "supervised messages by verdict", metrics.L("verdict", v.String()))
	}
	return m
}

func (m *supMetrics) record(v corpus.Verdict, start time.Time) {
	m.process.ObserveSince(start)
	if c := m.verdicts[v]; c != nil {
		c.Inc()
	}
}

// Supervisor is the composed system. It is safe for concurrent use:
// the stores (corpus, profiles, FAQ, dictionary, analyzer, generator)
// lock internally, the agents keep no per-message state, and the
// parser's result cache locks internally — so many goroutines (one per
// chat connection, or a pipeline.Pipeline worker pool) may call Process
// on one Supervisor at once. Ontology reads never lock at all: Process
// pins one immutable ontology.Snapshot per message, so the syntax,
// semantic, QA and topic stages of a message all see one consistent
// knowledge state even while the live ontology is being mutated.
type Supervisor struct {
	onto     *ontology.Ontology
	dict     *linkgrammar.Dictionary
	parser   *linkgrammar.Parser
	angel    *angel.Agent
	semantic *semantic.Agent
	qa       *qa.System
	corpus   *corpus.Store
	profiles *profile.Store
	faq      *qa.FAQ
	analyzer *stats.Analyzer
	gen      *stats.CorporaGenerator
	recorder bool
	now      func() time.Time
	met      *supMetrics

	// Vocabulary follows the snapshot publish path: when Process sees a
	// snapshot version it has not taught the dictionary from yet, it
	// defines the new terms (Define bumps the dictionary generation,
	// which flushes the parse cache — the D6 invalidation hook).
	vocabMu      sync.Mutex
	vocabVersion atomic.Uint64
	taught       map[string]bool
}

// New builds a Supervisor from the config.
func New(cfg Config) (*Supervisor, error) {
	onto := cfg.Ontology
	if onto == nil {
		onto = ontology.BuildCourseOntology()
	}
	dict := cfg.Dictionary
	if dict == nil {
		var err error
		dict, err = linkgrammar.NewEnglishDictionary()
		if err != nil {
			return nil, fmt.Errorf("build dictionary: %w", err)
		}
	}
	popts := cfg.ParserOptions
	switch {
	case popts.CacheSize == 0:
		popts.CacheSize = linkgrammar.DefaultParseCacheSize
	case popts.CacheSize < 0:
		popts.CacheSize = 0
	}
	parser := linkgrammar.NewParser(dict, popts)

	store := cfg.Corpus
	if store == nil {
		store = corpus.NewStore()
	}
	profiles := cfg.Profiles
	if profiles == nil {
		profiles = profile.NewStore()
	}
	faq := cfg.FAQ
	if faq == nil {
		faq = qa.NewFAQ()
	}

	s := &Supervisor{
		onto:     onto,
		dict:     dict,
		parser:   parser,
		angel:    angel.New(parser, store, onto, angel.DefaultOptions()),
		semantic: semantic.New(onto, cfg.SemanticThreshold),
		qa:       qa.New(onto, store, faq),
		corpus:   store,
		profiles: profiles,
		faq:      faq,
		analyzer: stats.NewAnalyzer(),
		gen:      stats.NewCorporaGenerator(store, faq),
		recorder: !cfg.DisableRecording,
		now:      cfg.Now,
		met:      newSupMetrics(cfg.Metrics),
		taught:   make(map[string]bool),
	}
	if s.now == nil {
		s.now = timeNow
	}
	if err := s.syncVocabulary(onto.Snapshot()); err != nil {
		return nil, fmt.Errorf("teach ontology terms: %w", err)
	}
	return s, nil
}

// syncVocabulary teaches the dictionary every term of the snapshot it
// has not defined yet (multi-word terms word by word), then records the
// snapshot version. Defining a word bumps the dictionary generation,
// which invalidates the link-grammar parse cache — so publishing an
// ontology snapshot with new course vocabulary automatically flushes
// stale parses. Re-syncing an already-taught snapshot defines nothing
// and leaves the cache warm.
func (s *Supervisor) syncVocabulary(snap *ontology.Snapshot) error {
	s.vocabMu.Lock()
	defer s.vocabMu.Unlock()
	if err := teachTerms(s.dict, snap.Items(), s.taught); err != nil {
		return err
	}
	if v := snap.Version(); v > s.vocabVersion.Load() {
		s.vocabVersion.Store(v)
	}
	return nil
}

// teachTerms defines every not-yet-taught term word as a domain noun,
// recording what it taught in taught (shared by TeachOntologyTerms and
// the supervisor's incremental syncVocabulary).
func teachTerms(dict *linkgrammar.Dictionary, items []*ontology.Item, taught map[string]bool) error {
	for _, it := range items {
		names := append([]string{it.Name}, it.Aliases...)
		for _, name := range names {
			for _, word := range linkgrammar.Tokenize(name) {
				if taught[word] || sentence.Stopwords[word] || len(word) < 3 {
					continue
				}
				taught[word] = true
				if err := dict.Define(word, "<domain-term>"); err != nil {
					return fmt.Errorf("define %q: %w", word, err)
				}
			}
		}
	}
	return nil
}

// TeachOntologyTerms gives every ontology term a domain-noun reading in
// the dictionary (multi-word terms word by word), so newly authored
// course vocabulary parses. Terms that already exist as verbs
// ("balance", "access") gain the noun reading as an alternative —
// "the balance method" must parse. Function words inside multi-word
// aliases ("last in first out") are skipped. The terms are read from
// one consistent ontology snapshot; the Supervisor itself uses the
// incremental per-snapshot variant (syncVocabulary).
func TeachOntologyTerms(dict *linkgrammar.Dictionary, onto *ontology.Ontology) error {
	return teachTerms(dict, onto.Snapshot().Items(), make(map[string]bool))
}

// Accessors for the composed subsystems.
func (s *Supervisor) Ontology() *ontology.Ontology { return s.onto }
func (s *Supervisor) Parser() *linkgrammar.Parser  { return s.parser }
func (s *Supervisor) Corpus() *corpus.Store        { return s.corpus }
func (s *Supervisor) Profiles() *profile.Store     { return s.profiles }
func (s *Supervisor) FAQ() *qa.FAQ                 { return s.faq }
func (s *Supervisor) QA() *qa.System               { return s.qa }
func (s *Supervisor) Analyzer() *stats.Analyzer    { return s.analyzer }
func (s *Supervisor) Angel() *angel.Agent          { return s.angel }
func (s *Supervisor) Semantic() *semantic.Agent    { return s.semantic }
func (s *Supervisor) Generator() *stats.CorporaGenerator {
	return s.gen
}

// Assessment is the complete result of supervising one message.
type Assessment struct {
	Room, User, Text string
	Classification   sentence.Classification
	// Verdict summarizes the outcome for the corpus.
	Verdict corpus.Verdict
	// Syntax is the Learning_Angel report (nil for questions).
	Syntax *angel.Report
	// Semantic is the Semantic Agent analysis (nil unless syntax passed).
	Semantic *semantic.Analysis
	// QAAnswer is set for questions.
	QAAnswer *qa.Answer
	// Responses are the agent messages to show in the chat room.
	Responses []chat.Response
}

// Process supervises one message: the full pipeline of Figure 3. It
// pins one immutable ontology snapshot up front — every stage of this
// message (topics, QA, syntax, semantics) reads that snapshot, so a
// concurrent ontology mutation can never produce a torn assessment; at
// worst the message is judged against the knowledge state from just
// before the mutation (the bounded-staleness window of DESIGN.md D8).
func (s *Supervisor) Process(room, user, text string) (*Assessment, error) {
	// When the pinned snapshot carries course vocabulary the dictionary
	// has not been taught yet, teach it before parsing (bumping the
	// dictionary generation and flushing the parse cache exactly once
	// per publication).
	snap := s.onto.Snapshot()
	if snap.Version() > s.vocabVersion.Load() {
		if err := s.syncVocabulary(snap); err != nil {
			return nil, fmt.Errorf("sync vocabulary: %w", err)
		}
	}
	var start time.Time
	if s.met != nil {
		start = timeNow()
	}
	tokens := linkgrammar.Tokenize(text)
	cls := sentence.Classify(tokens, linkgrammar.EndsWithQuestionMark(text))
	a := &Assessment{
		Room: room, User: user, Text: text,
		Classification: cls,
		Verdict:        corpus.VerdictCorrect,
	}
	topics := topicsOf(snap, tokens)

	if cls.Pattern.IsQuestion() {
		// Questions go to the QA subsystem; the Semantic Agent ignores
		// them per §4.3 stage 1.
		var qaStart time.Time
		if s.met != nil {
			qaStart = timeNow()
		}
		ans := s.qa.AskWith(snap, text)
		if s.met != nil {
			s.met.qaStage.ObserveSince(qaStart)
		}
		a.QAAnswer = &ans
		a.Verdict = corpus.VerdictQuestion
		if ans.Answered {
			a.Responses = append(a.Responses, chat.Response{Agent: AgentQA, Text: ans.Text})
		}
		s.record(a, tokens, topics, nil)
		if s.met != nil {
			s.met.record(a.Verdict, start)
		}
		return a, nil
	}

	var angelStart time.Time
	if s.met != nil {
		angelStart = timeNow()
	}
	rep, err := s.angel.CheckTokens(snap, text, tokens)
	if s.met != nil {
		s.met.angel.ObserveSince(angelStart)
	}
	if err != nil {
		return nil, fmt.Errorf("learning angel: %w", err)
	}
	a.Syntax = rep
	if rep.Linkage != nil {
		a.Classification = sentence.Refine(cls, rep.Linkage)
	}
	if !rep.OK {
		a.Verdict = corpus.VerdictSyntaxError
		if rep.Comment != "" {
			a.Responses = append(a.Responses, chat.Response{
				Agent: AgentAngel, Text: rep.Comment, Private: true,
			})
		}
		s.record(a, tokens, topics, rep.Tags)
		if s.met != nil {
			s.met.record(a.Verdict, start)
		}
		return a, nil
	}

	var semStart time.Time
	if s.met != nil {
		semStart = timeNow()
	}
	sem := s.semantic.AnalyzeWith(snap, a.Classification)
	if s.met != nil {
		s.met.semantic.ObserveSince(semStart)
	}
	a.Semantic = sem
	if sem.Verdict == semantic.VerdictInterrogative {
		a.Verdict = corpus.VerdictSemanticError
		text := sem.Explanation
		if sem.Suggestion != "" {
			text += " — hint: " + sem.Suggestion
		}
		a.Responses = append(a.Responses, chat.Response{
			Agent: AgentSemantic, Text: text, Private: true,
		})
	}
	s.record(a, tokens, topics, nil)
	if s.met != nil {
		s.met.record(a.Verdict, start)
	}
	return a, nil
}

// record feeds the statistic analyzer, corpora generator and profiles.
func (s *Supervisor) record(a *Assessment, tokens, topics, tags []string) {
	if !s.recorder {
		return
	}
	ev := stats.Event{
		Time:    s.now(),
		Room:    a.Room,
		User:    a.User,
		Text:    a.Text,
		Tokens:  tokens,
		Verdict: a.Verdict,
		Pattern: a.Classification.Pattern,
		Tags:    tags,
		Topics:  topics,
	}
	s.analyzer.Record(ev)
	s.gen.Consume(ev)
	s.profiles.RecordMessage(a.User, topics)
	switch a.Verdict {
	case corpus.VerdictSyntaxError:
		s.profiles.RecordSyntaxError(a.User, tags...)
	case corpus.VerdictSemanticError:
		s.profiles.RecordSemanticError(a.User, "ontology-violation")
	case corpus.VerdictQuestion:
		s.profiles.RecordQuestion(a.User)
	}
}

func topicsOf(snap *ontology.Snapshot, tokens []string) []string {
	matches := snap.ExtractTerms(tokens)
	out := make([]string, 0, len(matches))
	for _, m := range matches {
		out = append(out, m.Item.Name)
	}
	return out
}

// Recommend produces teaching-material suggestions for a learner from
// their profile (empty if the learner is unknown), expanding to
// semantically related sections through a pinned ontology snapshot.
func (s *Supervisor) Recommend(user string, limit int) []recommend.Recommendation {
	p, ok := s.profiles.Get(user)
	if !ok {
		return nil
	}
	r := recommend.New(recommend.CourseLibrary())
	return r.ForUserWith(s.onto.Snapshot(), p, limit)
}

// ChatSupervisor adapts the Supervisor to the chat.Supervisor interface;
// a pipeline error (e.g. a line over the parser's token limit) draws no
// agent reply rather than crashing the chat room, and is counted in
// semagent_supervision_errors_total when Config.Metrics is set.
func (s *Supervisor) ChatSupervisor() chat.Supervisor {
	return chatAdapter{s}
}

type chatAdapter struct{ s *Supervisor }

func (ad chatAdapter) Process(room, user, text string) []chat.Response {
	if IsCommand(text) {
		return ad.s.Command(room, user, text)
	}
	a, err := ad.s.Process(room, user, text)
	if err != nil {
		if ad.s.met != nil {
			ad.s.met.errors.Inc()
		}
		return nil
	}
	return a.Responses
}
