package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"semagent/internal/angel"
	"semagent/internal/chat"
	"semagent/internal/core"
	"semagent/internal/corpus"
	"semagent/internal/journal"
	"semagent/internal/linkgrammar"
	"semagent/internal/pipeline"
	"semagent/internal/semantic"
	"semagent/internal/sentence"
	"semagent/internal/stats"
	"semagent/internal/workload"
)

// ledgerTolerance bounds |core.unattributed_us| as a share of
// core.process_us: beyond it the layer self times do not account for
// the composed cost and the traced run reports itself incorrect.
const ledgerTolerance = 0.25

// Span kinds, one per layer boundary the traced pass crosses.
const (
	kProcess = iota
	kSnapshot
	kTokenize
	kClassify
	kExtract
	kQA
	kParseHit
	kParseMiss
	kAngelAccept
	kAngelRepair
	kSuggest
	kSemantic
	kStats
	kPut
	kProfile
	nKinds
)

// spanMetric names each kind's per-call self-time metric and its unit
// scale (nanoseconds per unit).
var spanMetric = [nKinds]struct {
	name, unit string
	per        float64
}{
	kProcess:     {"core.process", "us", 1e3},
	kSnapshot:    {"ontology.snapshot_ns", "ns", 1},
	kTokenize:    {"linkgrammar.tokenize_ns", "ns", 1},
	kClassify:    {"sentence.classify_ns", "ns", 1},
	kExtract:     {"ontology.extract_terms_us", "us", 1e3},
	kQA:          {"qa.ask_us", "us", 1e3},
	kParseHit:    {"linkgrammar.parse_hit_us", "us", 1e3},
	kParseMiss:   {"linkgrammar.parse_miss_us", "us", 1e3},
	kAngelAccept: {"angel.accept_us", "us", 1e3},
	kAngelRepair: {"angel.repair_us", "us", 1e3},
	kSuggest:     {"corpus.suggest_us", "us", 1e3},
	kSemantic:    {"semantic.analyze_us", "us", 1e3},
	kStats:       {"stats.record_us", "us", 1e3},
	kPut:         {"corpus.put_us", "us", 1e3},
	kProfile:     {"profile.record_us", "us", 1e3},
}

// span is one timed layer call: kind, line, parent span index (-1 for
// a root) and start/end offsets from the trace's base time.
type span struct {
	kind       int8
	line       int32
	parent     int32
	start, end time.Duration
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	base  time.Time
	spans []span
}

func (t *tracer) begin(kind int, parent int32, line int) int32 {
	t.spans = append(t.spans, span{kind: int8(kind), line: int32(line), parent: parent, start: time.Since(t.base)})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) { t.spans[i].end = time.Since(t.base) }

// relabel changes a span's kind once its outcome is known (a parse hit
// or miss, an accepted or repaired line).
func (t *tracer) relabel(i int32, kind int) { t.spans[i].kind = int8(kind) }

// selfTimes returns each kind's total self time (duration minus the
// child spans it covers) and call count.
func (t *tracer) selfTimes() (total [nKinds]time.Duration, calls [nKinds]int) {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		total[s.kind] += s.end - s.start - child[i]
		calls[s.kind]++
	}
	return total, calls
}

// write dumps the spans as tab-separated text.
func (t *tracer) write(path string) error {
	var b bytes.Buffer
	fmt.Fprintln(&b, "span\tname\tline\tparent\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(&b, "%d\t%s\t%d\t%d\t%d\t%d\n", i, spanMetric[s.kind].name, s.line, s.parent, s.start, s.end)
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// state is a fresh supervision state: the built-in course for fresh
// workloads, the recovered course history (journaled, as the server
// runs it) for semester.
type state struct {
	sup     *core.Supervisor
	mgr     *journal.Manager
	dir     string
	recover time.Duration
}

func newState(o options, history, name string) (*state, error) {
	if history == "" {
		sup, err := core.New(core.Config{})
		return &state{sup: sup}, err
	}
	st := &state{dir: filepath.Join(o.work, name)}
	if err := copyDir(history, st.dir); err != nil {
		return nil, err
	}
	t0 := time.Now()
	stores, err := journal.LoadStores(st.dir)
	if err != nil {
		return nil, err
	}
	if st.mgr, err = journal.Open(st.dir, stores, journal.Options{}); err != nil {
		return nil, err
	}
	st.recover = time.Since(t0)
	st.sup, err = core.New(core.Config{Ontology: stores.Ontology, Corpus: stores.Corpus, Profiles: stores.Profiles, FAQ: stores.FAQ})
	if err != nil {
		st.close()
	}
	return st, err
}

func (st *state) close() {
	if st.mgr != nil {
		st.mgr.Abandon()
	}
	if st.dir != "" {
		_ = os.RemoveAll(st.dir)
	}
}

// untraced is the first pass: every line through Supervisor.Process,
// submitted to a supervision pipeline one at a time.
type untraced struct {
	process, wait, task time.Duration
	mallocs, bytes      uint64
	gcs                 uint32
	responded           []bool
}

func untracedPass(st *state, sp spec, lines []line) (untraced, error) {
	u := untraced{responded: make([]bool, len(lines))}
	pipe := pipeline.New(pipeline.Config{Block: true})
	defer pipe.Close()
	done := make(chan error, 1)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i, l := range lines {
		room, user, text := sp.rooms[l.conn], sp.users[l.conn], l.text
		var start, processed, end time.Time
		submit := time.Now()
		err := pipe.Submit(room, func() {
			start = time.Now()
			a, err := st.sup.Process(room, user, text)
			processed = time.Now()
			if err == nil {
				u.responded[i] = len(a.Responses) > 0
			}
			end = time.Now()
			done <- err
		})
		if err != nil {
			return u, err
		}
		if err := <-done; err != nil {
			return u, fmt.Errorf("line %d: %w", i, err)
		}
		u.wait += start.Sub(submit)
		u.task += end.Sub(start)
		u.process += processed.Sub(start)
	}
	runtime.ReadMemStats(&m1)
	u.mallocs = m1.Mallocs - m0.Mallocs
	u.bytes = m1.TotalAlloc - m0.TotalAlloc
	u.gcs = m1.NumGC - m0.NumGC
	return u, nil
}

// traced is the second pass: the same lines through the layer calls of
// Figure 3 in the order Supervisor.Process makes them, one span each.
type traced struct {
	tr              tracer
	responded       []bool
	records         []corpus.Record
	hits, misses    int
	asked, answered int
	corpusRecords   int
}

func tracedPass(st *state, sp spec, lines []line) (*traced, error) {
	sup := st.sup
	parser, onto, store := sup.Parser(), sup.Ontology(), sup.Corpus()
	// The corpus search the angel makes on a rejected line is timed as
	// its own span, so the angel runs without a corpus here.
	ang := angel.New(parser, nil, onto, angel.DefaultOptions())
	gen := stats.NewCorporaGenerator(nil, sup.FAQ())
	maxSugg := angel.DefaultOptions().MaxSuggestions
	t := &traced{responded: make([]bool, len(lines))}
	t.tr = tracer{spans: make([]span, 0, len(lines)*12)}
	runtime.GC()
	t.tr.base = time.Now()
	tr := &t.tr
	for i, l := range lines {
		room, user, text := sp.rooms[l.conn], sp.users[l.conn], l.text
		root := tr.begin(kProcess, -1, i)

		s := tr.begin(kSnapshot, root, i)
		snap := onto.Snapshot()
		tr.end(s)
		s = tr.begin(kTokenize, root, i)
		tokens := linkgrammar.Tokenize(text)
		tr.end(s)
		s = tr.begin(kClassify, root, i)
		cls := sentence.Classify(tokens, linkgrammar.EndsWithQuestionMark(text))
		tr.end(s)
		s = tr.begin(kExtract, root, i)
		matches := snap.ExtractTerms(tokens)
		topics := make([]string, 0, len(matches))
		for _, m := range matches {
			topics = append(topics, m.Item.Name)
		}
		tr.end(s)

		verdict := corpus.VerdictCorrect
		var tags []string
		if cls.Pattern.IsQuestion() {
			s = tr.begin(kQA, root, i)
			ans := sup.QA().AskWith(snap, text)
			tr.end(s)
			verdict = corpus.VerdictQuestion
			t.asked++
			if ans.Answered {
				t.answered++
				t.responded[i] = true
			}
		} else {
			hits := parser.CacheStats().Hits
			s = tr.begin(kParseMiss, root, i)
			if _, err := parser.ParseTokens(tokens); err != nil {
				return nil, fmt.Errorf("line %d: parse: %w", i, err)
			}
			tr.end(s)
			if parser.CacheStats().Hits > hits {
				tr.relabel(s, kParseHit)
				t.hits++
			} else {
				t.misses++
			}
			s = tr.begin(kAngelAccept, root, i)
			rep, err := ang.CheckTokens(snap, text, tokens)
			tr.end(s)
			if err != nil {
				return nil, fmt.Errorf("line %d: angel: %w", i, err)
			}
			if rep.Linkage != nil {
				cls = sentence.Refine(cls, rep.Linkage)
			}
			if !rep.OK {
				tr.relabel(s, kAngelRepair)
				s = tr.begin(kSuggest, root, i)
				store.Suggest(tokens, rep.Topics, maxSugg)
				tr.end(s)
				verdict, tags = corpus.VerdictSyntaxError, rep.Tags
				t.responded[i] = rep.Comment != ""
			} else {
				s = tr.begin(kSemantic, root, i)
				sem := sup.Semantic().AnalyzeWith(snap, cls)
				tr.end(s)
				if sem.Verdict == semantic.VerdictInterrogative {
					verdict = corpus.VerdictSemanticError
					t.responded[i] = true
				}
			}
		}

		ev := stats.Event{
			Time: time.Now(), Room: room, User: user, Text: text, Tokens: tokens,
			Verdict: verdict, Pattern: cls.Pattern, Tags: tags, Topics: topics,
		}
		rec := corpus.Record{Time: ev.Time, Room: room, User: user, Text: text, Tokens: tokens, Verdict: verdict, Topics: topics, Tags: tags}
		s = tr.begin(kStats, root, i)
		sup.Analyzer().Record(ev)
		tr.end(s)
		s = tr.begin(kPut, root, i)
		store.Add(rec)
		tr.end(s)
		s = tr.begin(kStats, root, i)
		gen.Consume(ev)
		tr.end(s)
		s = tr.begin(kProfile, root, i)
		profiles := sup.Profiles()
		profiles.RecordMessage(user, topics)
		switch verdict {
		case corpus.VerdictSyntaxError:
			profiles.RecordSyntaxError(user, tags...)
		case corpus.VerdictSemanticError:
			profiles.RecordSemanticError(user, "ontology-violation")
		case corpus.VerdictQuestion:
			profiles.RecordQuestion(user)
		}
		tr.end(s)
		tr.end(root)
		t.records = append(t.records, rec)
	}
	t.corpusRecords = store.Len()
	return t, nil
}

// journalPass times the corpus writes of the traced pass on a plain
// store and on a journaled one, then recovers the journal.
type journalFigures struct {
	appendNs      float64
	fsyncs, bytes float64 // per record
	recover       time.Duration
}

func journalPass(o options, records []corpus.Record) (journalFigures, error) {
	var f journalFigures
	n := float64(len(records))
	plain := corpus.NewStore()
	t0 := time.Now()
	for _, r := range records {
		plain.Add(r)
	}
	plainDur := time.Since(t0)

	dir := filepath.Join(o.work, "journal-pass")
	if err := os.RemoveAll(dir); err != nil {
		return f, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return f, err
	}
	defer os.RemoveAll(dir)
	opts := journal.Options{CheckpointInterval: -1, CheckpointBytes: -1}
	stores, err := journal.LoadStores(dir)
	if err != nil {
		return f, err
	}
	mgr, err := journal.Open(dir, stores, opts)
	if err != nil {
		return f, err
	}
	t0 = time.Now()
	for _, r := range records {
		stores.Corpus.Add(r)
	}
	journaled := time.Since(t0)
	if err := mgr.Sync(); err != nil {
		mgr.Abandon()
		return f, err
	}
	js := mgr.Stats()
	mgr.Abandon()
	size, err := dirBytes(dir)
	if err != nil {
		return f, err
	}
	f.appendNs = float64(journaled-plainDur) / n
	f.fsyncs = float64(js.Fsyncs) / n
	f.bytes = float64(size) / n

	t0 = time.Now()
	stores, err = journal.LoadStores(dir)
	if err != nil {
		return f, err
	}
	mgr, err = journal.Open(dir, stores, opts)
	if err != nil {
		return f, err
	}
	f.recover = time.Since(t0)
	mgr.Abandon()
	if got := stores.Corpus.Len(); got != len(records) {
		return f, fmt.Errorf("journal recovered %d of %d corpus records", got, len(records))
	}
	return f, nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			n += fi.Size()
		}
		return err
	})
	return n, err
}

// codecPass times the binary wire: encoding the broadcast frame of
// every line, and decoding every say frame.
func codecPass(sp spec, lines []line) (encNs, decNs float64, err error) {
	const rounds = 8
	now := time.Now()
	msgs := make([]chat.Message, len(lines))
	var says []byte
	for i, l := range lines {
		msgs[i] = chat.Message{Type: chat.TypeChat, Room: sp.rooms[l.conn], From: sp.users[l.conn], Text: l.text, Time: now}
		if says, err = chat.AppendEncoded(says, chat.Message{Type: chat.TypeSay, Text: l.text}, chat.WireBinary); err != nil {
			return 0, 0, err
		}
	}
	var buf []byte
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, m := range msgs {
			buf, _ = chat.AppendEncoded(buf[:0], m, chat.WireBinary)
		}
	}
	encNs = float64(time.Since(t0)) / float64(rounds*len(msgs))

	var decoded int
	var dec time.Duration
	for r := 0; r < rounds; r++ {
		codec := chat.NewCodec(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(says), io.Discard})
		codec.SetReadWire(chat.WireBinary)
		t0 = time.Now()
		for {
			if _, err := codec.Read(); err == io.EOF {
				break
			} else if err != nil {
				return 0, 0, err
			}
			decoded++
		}
		dec += time.Since(t0)
	}
	if decoded != rounds*len(lines) {
		return 0, 0, fmt.Errorf("decoded %d of %d say frames", decoded, rounds*len(lines))
	}
	return encNs, float64(dec) / float64(decoded), nil
}

// runTraced is the -trace 1 run: one end-to-end cycle for the figures
// only the wire shows (frames per line, how late the generator ran),
// then the in-process replay of the same script, untraced and traced.
func runTraced(o options, sp spec) (result, error) {
	begin := time.Now()
	res := result{Metrics: map[string]metric{}}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	sc := makeScript(sp, o.seed, 0)
	history := ""
	if sp.history > 0 {
		var err error
		if history, err = prepareHistory(o, sp); err != nil {
			return res, fmt.Errorf("prepare history: %w", err)
		}
	}
	dir, err := cycleData(o, sp, history, 0)
	if err != nil {
		return res, err
	}
	cy, err := runCycle(o, sp, sc, dir, filepath.Join(o.work, "server-trace.log"))
	res.Attempted, res.Failed = cy.attempted, cy.failed
	if err != nil {
		if res.Failed == 0 {
			res.Failed = 1
		}
		return res, err
	}
	if dir != "" {
		_ = os.RemoveAll(dir)
	}
	lines := sc.all()
	res.Correct = true
	check := func(ok bool, format string, args ...interface{}) {
		if !ok {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "classbench: "+format+"\n", args...)
		}
	}

	probeTotal, probeCalls, err := repairProbe(o, history, sp)
	if err != nil {
		return res, fmt.Errorf("repair probe: %w", err)
	}
	// Replay pairs until the measured seconds are used up; every figure
	// is the median over the pairs.
	var pairs []map[string]float64
	var recoverHistory []float64
	var t *traced
	for n := 0; n == 0 || time.Since(begin) < time.Duration(o.seconds)*time.Second; n++ {
		st1, err := newState(o, history, "pass-untraced")
		if err != nil {
			return res, err
		}
		u, err := untracedPass(st1, sp, lines)
		recoverHistory = append(recoverHistory, st1.recover.Seconds())
		st1.close()
		if err != nil {
			return res, fmt.Errorf("untraced pass: %w", err)
		}
		st2, err := newState(o, history, "pass-traced")
		if err != nil {
			return res, err
		}
		t, err = tracedPass(st2, sp, lines)
		st2.close()
		if err != nil {
			return res, fmt.Errorf("traced pass: %w", err)
		}
		for i := range sc.warm {
			check(u.responded[i] == cy.warmResp[i], "warm-up line %d: server responded=%v, in-process=%v", i, cy.warmResp[i], u.responded[i])
		}
		for i := range lines {
			check(u.responded[i] == t.responded[i], "line %d: Process responded=%v, traced layers=%v", i, u.responded[i], t.responded[i])
		}
		pairs = append(pairs, ledgerFigures(u, t, probeTotal, probeCalls, len(lines)))
	}
	if err := t.tr.write(filepath.Join(o.work, "spans-"+sp.name+".tsv")); err != nil {
		return res, err
	}
	for name := range pairs[0] {
		var vs []float64
		for _, p := range pairs {
			vs = append(vs, p[name])
		}
		res.Metrics[name] = metric{Value: median(vs), Unit: metricUnit[name]}
	}
	processUs, unattributed := res.Metrics["core.process_us"].Value, res.Metrics["core.unattributed_us"].Value
	check(math.Abs(unattributed) <= ledgerTolerance*processUs,
		"ledger: unattributed %.2fus is outside %.0f%% of core.process_us %.2fus", unattributed, ledgerTolerance*100, processUs)
	fmt.Fprintf(os.Stderr, "classbench: ledger over %d replays: core.process_us %.2f = layers %.2f + unattributed %.2f\n",
		len(pairs), processUs, processUs-unattributed, unattributed)

	jf, err := journalPass(o, t.records)
	if err != nil {
		return res, fmt.Errorf("journal pass: %w", err)
	}
	enc, dec, err := codecPass(sp, lines)
	if err != nil {
		return res, fmt.Errorf("codec pass: %w", err)
	}
	cf, err := clusterPass(o, sp, lines)
	if err != nil {
		return res, fmt.Errorf("cluster pass: %w", err)
	}
	put("chat.encode_ns", "ns", enc)
	put("chat.decode_ns", "ns", dec)
	put("chat.frames_per_msg", "count", float64(cy.satFrames)/float64(cy.satLines))
	recover := jf.recover.Seconds()
	if history != "" {
		recover = median(recoverHistory)
	}
	put("journal.recover_s", "s", recover)
	put("journal.append_us", "us", jf.appendNs/1e3)
	put("journal.fsyncs_per_kmsg", "count", jf.fsyncs*1000)
	put("journal.bytes_per_msg", "B", jf.bytes)
	put("cluster.relay_us", "us", cf.relayUs)
	put("cluster.ship_lag_max", "count", float64(cf.lagMax))
	put("loadgen.late_p99_ms", "ms", quantile(cy.late, 0.99))
	put("loadgen.feedback_p99_ms", "ms", quantile(cy.feedback, 0.99))
	return res, nil
}

// metricUnit gives the unit of each figure ledgerFigures returns.
var metricUnit = func() map[string]string {
	m := map[string]string{
		"core.process_us": "us", "core.unattributed_us": "us", "core.trace_overhead_us": "us",
		"pipeline.queue_wait_us": "us", "pipeline.task_us": "us",
		"linkgrammar.cache_hit_ratio": "ratio", "qa.answered_ratio": "ratio", "corpus.records": "count",
		"runtime.allocs_per_msg": "count", "runtime.bytes_per_msg": "B", "runtime.gc_per_kmsg": "count",
	}
	for k := kSnapshot; k < nKinds; k++ {
		m[spanMetric[k].name] = spanMetric[k].unit
	}
	return m
}()

// ledgerFigures turns one untraced/traced pair into per-layer figures.
// A layer's figure is its mean self time per call; core.unattributed_us
// is core.process_us minus every layer's self time per line.
func ledgerFigures(u untraced, t *traced, probeTotal [nKinds]time.Duration, probeCalls [nKinds]int, lines int) map[string]float64 {
	n := float64(lines)
	f := map[string]float64{}
	total, calls := t.tr.selfTimes()
	processUs := float64(u.process) / 1e3 / n
	attributed := 0.0
	for k := kSnapshot; k < nKinds; k++ {
		m := spanMetric[k]
		attributed += float64(total[k]) / 1e3 / n
		switch {
		case calls[k] > 0:
			f[m.name] = float64(total[k]) / m.per / float64(calls[k])
		case probeCalls[k] > 0:
			f[m.name] = float64(probeTotal[k]) / m.per / float64(probeCalls[k])
		default:
			f[m.name] = 0
		}
	}
	f["core.process_us"] = processUs
	f["core.unattributed_us"] = processUs - attributed
	f["core.trace_overhead_us"] = float64(sumRoots(&t.tr))/1e3/n - processUs
	f["pipeline.queue_wait_us"] = float64(u.wait) / 1e3 / n
	f["pipeline.task_us"] = float64(u.task) / 1e3 / n
	f["linkgrammar.cache_hit_ratio"] = ratio(t.hits, t.hits+t.misses)
	f["qa.answered_ratio"] = ratio(t.answered, t.asked)
	f["corpus.records"] = float64(t.corpusRecords)
	f["runtime.allocs_per_msg"] = float64(u.mallocs) / n
	f["runtime.bytes_per_msg"] = float64(u.bytes) / n
	f["runtime.gc_per_kmsg"] = float64(u.gcs) * 1000 / n
	return f
}

// repairProbe times the repair search and the corpus search it
// triggers on a fixed set of syntax errors, against a fresh copy of the
// workload's state. A workload that rejects no line (lecture) bypasses
// both layers; their per-call figures then come from this probe, so a
// change to the bypassed path still shows in the ledger.
func repairProbe(o options, history string, sp spec) (total [nKinds]time.Duration, calls [nKinds]int, err error) {
	const probeLines = 64
	st, err := newState(o, history, "pass-probe")
	if err != nil {
		return total, calls, err
	}
	defer st.close()
	sup := st.sup
	ang := angel.New(sup.Parser(), nil, sup.Ontology(), angel.DefaultOptions())
	snap := sup.Ontology().Snapshot()
	g := workload.NewGenerator(o.seed, sup.Ontology())
	for _, s := range g.Generate(probeLines, workload.Mix{SyntaxError: 1}) {
		tokens := linkgrammar.Tokenize(s.Text)
		t0 := time.Now()
		rep, err := ang.CheckTokens(snap, s.Text, tokens)
		d := time.Since(t0)
		if err != nil {
			return total, calls, err
		}
		if rep.OK {
			continue
		}
		total[kAngelRepair] += d
		calls[kAngelRepair]++
		t0 = time.Now()
		sup.Corpus().Suggest(tokens, rep.Topics, angel.DefaultOptions().MaxSuggestions)
		total[kSuggest] += time.Since(t0)
		calls[kSuggest]++
	}
	return total, calls, nil
}

func sumRoots(t *tracer) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.parent < 0 {
			d += s.end - s.start
		}
	}
	return d
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
