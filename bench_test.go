// Package semagent_test holds the benchmark harness: one benchmark per
// experiment of DESIGN.md §4 (E1–E9) plus micro-benchmarks for the hot
// components. Run with:
//
//	go test -bench=. -benchmem
package semagent_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"semagent/internal/chat"
	"semagent/internal/core"
	"semagent/internal/corpus"
	"semagent/internal/eval"
	"semagent/internal/journal"
	"semagent/internal/linkgrammar"
	"semagent/internal/ontology"
	"semagent/internal/pipeline"
	"semagent/internal/qa"
	"semagent/internal/semantic"
	"semagent/internal/workload"
)

// uncached disables the parse cache so a benchmark isolates the parser
// itself; the cached-vs-uncached comparison lives in E9.
var uncached = linkgrammar.Options{CacheSize: -1}

// BenchmarkE1ParserThroughput measures link-grammar parses per second
// on grammatical course-domain sentences (experiment E1).
func BenchmarkE1ParserThroughput(b *testing.B) {
	sup, err := core.New(core.Config{DisableRecording: true, ParserOptions: uncached})
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewGenerator(1, sup.Ontology())
	sentences := make([]string, 256)
	for i := range sentences {
		sentences[i] = gen.Correct().Text
	}
	parser := sup.Parser()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parser.Parse(sentences[i%len(sentences)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2AngelPipeline measures the Learning_Angel check, half the
// inputs corrupted (experiment E2). The error path includes the repair
// search, so this is the realistic supervision cost.
func BenchmarkE2AngelPipeline(b *testing.B) {
	sup, err := core.New(core.Config{DisableRecording: true, ParserOptions: uncached})
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewGenerator(2, sup.Ontology())
	samples := make([]string, 256)
	for i := range samples {
		if i%2 == 0 {
			samples[i] = gen.Correct().Text
		} else {
			samples[i] = gen.SyntaxError().Text
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sup.Angel().Check(samples[i%len(samples)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3SemanticAgent measures the ontology-distance semantic
// check (experiment E3).
func BenchmarkE3SemanticAgent(b *testing.B) {
	onto := ontology.BuildCourseOntology()
	agent := semantic.New(onto, 0)
	gen := workload.NewGenerator(3, onto)
	samples := make([]string, 256)
	for i := range samples {
		if i%2 == 0 {
			samples[i] = gen.Correct().Text
		} else {
			samples[i] = gen.SemanticError().Text
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.AnalyzeText(samples[i%len(samples)])
	}
}

// BenchmarkE4QASystem measures template-matched question answering
// (experiment E4).
func BenchmarkE4QASystem(b *testing.B) {
	onto := ontology.BuildCourseOntology()
	system := qa.New(onto, nil, nil)
	gen := workload.NewGenerator(4, onto)
	questions := make([]string, 256)
	for i := range questions {
		questions[i] = gen.Question(i%10 == 9).Text
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		system.Ask(questions[i%len(questions)])
	}
}

// BenchmarkE5FAQMining measures dialogue consumption by the corpora
// generator, including QA-pair mining (experiment E5).
func BenchmarkE5FAQMining(b *testing.B) {
	onto := ontology.BuildCourseOntology()
	gen := workload.NewGenerator(5, onto)
	script := gen.Session(4, 4, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		store := corpus.NewStore()
		faq := qa.NewFAQ()
		sup, err := core.New(core.Config{Corpus: store, FAQ: faq})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, msg := range script {
			if _, err := sup.Process(msg.Room, msg.User, msg.Sample.Text); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE6ChatEndToEnd measures the supervised chat room over real
// TCP loopback (experiment E6), one full room-session per iteration.
func BenchmarkE6ChatEndToEnd(b *testing.B) {
	for _, mode := range []eval.E6Mode{eval.E6Off, eval.E6Inline, eval.E6Async} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := eval.RunE6(eval.E6Config{
					Rooms: 1, ClientsPerRoom: 4, MessagesEach: 8,
					Mode: mode, Seed: 6,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Throughput, "msg/s")
				b.ReportMetric(float64(res.P95.Microseconds()), "p95-µs")
			}
		})
	}
}

// BenchmarkE7Ablation measures both §4.3 methodologies side by side
// (experiment E7).
func BenchmarkE7Ablation(b *testing.B) {
	onto := ontology.BuildCourseOntology()
	gen := workload.NewGenerator(7, onto)
	samples := make([]string, 256)
	for i := range samples {
		if i%2 == 0 {
			samples[i] = gen.Correct().Text
		} else {
			samples[i] = gen.SemanticError().Text
		}
	}
	checkers := []struct {
		name    string
		checker semantic.Checker
	}{
		{"ontology-distance", semantic.New(onto, 0)},
		{"semantic-link-grammar", semantic.NewSLGChecker(onto)},
	}
	for _, c := range checkers {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.checker.AnalyzeText(samples[i%len(samples)])
			}
		})
	}
}

// BenchmarkE8CorpusSuggestions measures corpus suggestion retrieval at
// several corpus sizes (experiment E8).
func BenchmarkE8CorpusSuggestions(b *testing.B) {
	onto := ontology.BuildCourseOntology()
	for _, size := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("corpus-%d", size), func(b *testing.B) {
			gen := workload.NewGenerator(8, onto)
			store := corpus.NewStore()
			for i := 0; i < size; i++ {
				s := gen.Correct()
				store.Add(corpus.Record{
					Text:    s.Text,
					Tokens:  linkgrammar.Tokenize(s.Text),
					Verdict: corpus.VerdictCorrect,
					Topics:  s.Topics,
				})
			}
			queries := make([][]string, 64)
			for i := range queries {
				queries[i] = linkgrammar.Tokenize(gen.SyntaxError().Text)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				store.Suggest(queries[i%len(queries)], nil, 3)
			}
		})
	}

	// Long-session arms: the corpus is recorded through
	// core.Supervisor from DefaultMix lines, so it holds every verdict
	// and the duplicates a running classroom accumulates. Each times
	// the Learning_Angel's Suggest against that corpus and the cost of
	// supervising one more line: a syntax error (the line that searches
	// the corpus) and a DefaultMix line. The process arms grow the
	// corpus by b.N lines; run them with a fixed count, e.g.
	//
	//	go test -run '^$' -bench 'E8CorpusSuggestions/session' -benchtime 1000x
	for _, lines := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("session-%d", lines), func(b *testing.B) {
			gen := workload.NewGenerator(8, onto)
			sup, err := core.New(core.Config{Ontology: onto})
			if err != nil {
				b.Fatal(err)
			}
			for i, s := range gen.Generate(lines, workload.DefaultMix()) {
				if _, err := sup.Process(fmt.Sprintf("room-%d", i%8), fmt.Sprintf("learner-%d", i%24), s.Text); err != nil {
					b.Fatal(err)
				}
			}
			queries := make([][]string, 64)
			for i := range queries {
				queries[i] = linkgrammar.Tokenize(gen.SyntaxError().Text)
			}
			b.Run("suggest", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sup.Corpus().Suggest(queries[i%len(queries)], nil, 3)
				}
			})
			process := func(b *testing.B, next func() workload.Sample) {
				texts := make([]string, b.N)
				for i := range texts {
					texts[i] = next().Text
				}
				b.ResetTimer()
				for i, text := range texts {
					if _, err := sup.Process(fmt.Sprintf("room-%d", i%8), fmt.Sprintf("learner-%d", i%24), text); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.Run("process-syntax-error", func(b *testing.B) { process(b, gen.SyntaxError) })
			b.Run("process-mix", func(b *testing.B) {
				process(b, func() workload.Sample { return gen.Generate(1, workload.DefaultMix())[0] })
			})
		})
	}
}

// BenchmarkE9ShardedSupervision measures concurrent classroom
// throughput (experiment E9): the same room-interleaved message stream
// through the single-threaded Process loop and through the room-sharded
// pipeline, each with the parse cache off and on. The acceptance bar is
// sharded ≥ 2× serial on ≥ 4 rooms.
//
// The workload is shared with eval.RunE9 (eval.E9Workload); the arm
// execution deliberately is not: RunE9 measures one cold pass per
// fresh Supervisor, while this benchmark reuses one Supervisor across
// b.N iterations so the cached arms report steady-state hit rates.
func BenchmarkE9ShardedSupervision(b *testing.B) {
	msgs := eval.E9Workload(eval.E9Config{Rooms: 8, MessagesPerRoom: 32, Seed: 90})

	for _, arm := range []struct {
		name            string
		sharded, cached bool
	}{
		{"serial-uncached", false, false},
		{"serial-cached", false, true},
		{"sharded-uncached", true, false},
		{"sharded-cached", true, true},
	} {
		b.Run(arm.name, func(b *testing.B) {
			popts := linkgrammar.Options{CacheSize: -1}
			if arm.cached {
				popts = linkgrammar.Options{} // core default: cache on
			}
			sup, err := core.New(core.Config{ParserOptions: popts})
			if err != nil {
				b.Fatal(err)
			}
			errCh := make(chan error, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if arm.sharded {
					pipe := pipeline.New(pipeline.Config{})
					for _, m := range msgs {
						m := m
						if err := pipe.Submit(m.Room, func() {
							if _, perr := sup.Process(m.Room, m.User, m.Text); perr != nil {
								select {
								case errCh <- perr:
								default:
								}
							}
						}); err != nil {
							b.Fatal(err)
						}
					}
					pipe.Close()
					select {
					case perr := <-errCh:
						b.Fatal(perr)
					default:
					}
				} else {
					for _, m := range msgs {
						if _, err := sup.Process(m.Room, m.User, m.Text); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(len(msgs)*b.N)/b.Elapsed().Seconds(), "msg/s")
		})
	}
}

// BenchmarkE15WireToVerdict measures the full wire-to-verdict path
// (experiment E15): real TCP loopback, async per-message supervision
// through the room-sharded pipeline, one sub-benchmark per wire framing
// (DESIGN.md D13). Senders are pipelined with no window; a full
// supervision shard back-pressures them through the server's reader.
// The timer stops only after every sender's own echoes returned and the
// server quiesced, so msg/s is supervised throughput and -benchmem's
// allocs/op is the process-wide heap cost per chat message, both ends
// of the wire included. A client the server drops fails the run at
// once, naming the user. The worker-count sweep lives in
// `evalharness -exp E15`; this fixed-shape variant feeds the benchgate
// allocation budget.
func BenchmarkE15WireToVerdict(b *testing.B) {
	for _, tc := range []struct {
		name string
		wire chat.Wire
	}{
		{"text", chat.WireText},
		{"binary", chat.WireBinary},
	} {
		b.Run(tc.name, func(b *testing.B) {
			sup, err := core.New(core.Config{})
			if err != nil {
				b.Fatal(err)
			}
			server := chat.NewServer(chat.ServerOptions{
				Supervisor: sup.ChatSupervisor(),
				Async:      true,
				Workers:    4,
				// Deep client queues: pipelined senders outrun their own
				// read loops in bursts, and a dropped client fails the
				// run. With the default 256 frames an unwindowed sender
				// was still dropped.
				SendQueue: 4096,
			})
			addr, err := server.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer server.Close()

			gen := workload.NewGenerator(150, sup.Ontology())
			lines := make([]string, 256)
			for i, s := range gen.Generate(len(lines), workload.DefaultMix()) {
				lines[i] = s.Text
			}

			const rooms, perRoom = 4, 2
			type bclient struct {
				cl   *chat.Client
				user string
			}
			counts := make([]int, rooms*perRoom)
			for i := 0; i < b.N; i++ {
				counts[i%len(counts)]++
			}
			var clients []bclient
			var echoWG, rwg sync.WaitGroup
			// A receiver whose connection closes before its own last
			// echo was dropped by the server; it reports on lost.
			lost := make(chan error, len(counts))
			for r := 0; r < rooms; r++ {
				for c := 0; c < perRoom; c++ {
					user := fmt.Sprintf("user-%d-%d", r, c)
					cl, err := chat.DialWire(addr.String(),
						fmt.Sprintf("room-%d", r), user, tc.wire, 5*time.Second)
					if err != nil {
						b.Fatal(err)
					}
					want := counts[len(clients)]
					clients = append(clients, bclient{cl: cl, user: user})
					echoWG.Add(1)
					rwg.Add(1)
					go func(cl *chat.Client, user string, want int) {
						defer rwg.Done()
						got := 0
						if want == 0 {
							echoWG.Done()
						}
						for m := range cl.Receive() {
							if m.Type == chat.TypeChat && m.From == user {
								if got++; got == want {
									echoWG.Done()
								}
							}
						}
						if got < want {
							lost <- fmt.Errorf("%s: connection closed after %d of %d echoes (client dropped)", user, got, want)
						}
					}(cl, user, want)
				}
			}
			defer rwg.Wait()
			defer func() {
				for _, c := range clients {
					_ = c.cl.Close()
				}
			}()

			errCh := make(chan error, len(clients))
			b.ResetTimer()
			var swg sync.WaitGroup
			for i, c := range clients {
				swg.Add(1)
				go func(c bclient, n, off int) {
					defer swg.Done()
					for k := 0; k < n; k++ {
						if err := c.cl.Say(lines[(off+k)%len(lines)]); err != nil {
							errCh <- fmt.Errorf("%s say: %w", c.user, err)
							return
						}
					}
				}(c, counts[i], i*31)
			}
			swg.Wait()
			select {
			case err := <-errCh:
				b.Fatal(err)
			default:
			}
			echoed := make(chan struct{})
			go func() { echoWG.Wait(); close(echoed) }()
			select {
			case <-echoed:
			case err := <-lost:
				b.Fatal(err)
			case <-time.After(120 * time.Second):
				b.Fatal("echo timeout")
			}
			if !server.Quiesce(60 * time.Second) {
				b.Fatal("server did not quiesce")
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msg/s")
		})
	}
}

// BenchmarkE11JournaledSupervision measures the write-ahead journal's
// cost on the E9 sharded-cached supervision path (experiment E11):
// journal off, batched group commit, and fsync-per-record. The
// acceptance bar is group commit within 15% of the no-journal arm; the
// fsync-per-record arm is reported for comparison (it pays one disk
// flush per learned fact).
func BenchmarkE11JournaledSupervision(b *testing.B) {
	msgs := eval.E9Workload(eval.E9Config{Rooms: 8, MessagesPerRoom: 32, Seed: 110})

	for _, arm := range []struct {
		name      string
		journaled bool
		syncEvery bool
	}{
		{"no-journal", false, false},
		{"group-commit", true, false},
		{"fsync-per-record", true, true},
	} {
		b.Run(arm.name, func(b *testing.B) {
			cfg := core.Config{}
			var mgr *journal.Manager
			if arm.journaled {
				dir := b.TempDir()
				stores, err := journal.LoadStores(dir)
				if err != nil {
					b.Fatal(err)
				}
				mgr, err = journal.Open(dir, stores, journal.Options{SyncEveryRecord: arm.syncEvery})
				if err != nil {
					b.Fatal(err)
				}
				defer func() {
					if err := mgr.Close(); err != nil {
						b.Fatal(err)
					}
				}()
				cfg.Ontology = stores.Ontology
				cfg.Corpus = stores.Corpus
				cfg.Profiles = stores.Profiles
				cfg.FAQ = stores.FAQ
			}
			sup, err := core.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			errCh := make(chan error, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pipe := pipeline.New(pipeline.Config{})
				for _, m := range msgs {
					m := m
					if err := pipe.Submit(m.Room, func() {
						if _, perr := sup.Process(m.Room, m.User, m.Text); perr != nil {
							select {
							case errCh <- perr:
							default:
							}
						}
					}); err != nil {
						b.Fatal(err)
					}
				}
				pipe.Close()
				select {
				case perr := <-errCh:
					b.Fatal(perr)
				default:
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(len(msgs)*b.N)/b.Elapsed().Seconds(), "msg/s")
			if mgr != nil {
				st := mgr.Stats()
				b.ReportMetric(float64(st.Fsyncs)/float64(b.N), "fsyncs/op")
			}
		})
	}
}

// BenchmarkE12OverloadShedding measures the admission-controlled chat
// server under 5× open-loop overload (experiment E12): real TCP
// connections, oldest-drop shedding, supervision goodput as msg/s. The
// acceptance bar is bounded p99 end-to-end latency (no growth with the
// backlog) while supervised goodput holds near measured capacity; the
// full three-multiplier sweep with the blocking contrast arm lives in
// `evalharness -exp E12`.
func BenchmarkE12OverloadShedding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := eval.RunE12(eval.E12Config{
			Rooms: 2, ClientsPerRoom: 2,
			Duration:            400 * time.Millisecond,
			Seed:                120,
			Multipliers:         []float64{5},
			SkipBlocking:        true,
			CalibrationMessages: 64,
		})
		if err != nil {
			b.Fatal(err)
		}
		arm := res.Arms[0]
		b.ReportMetric(arm.SupervisedRate, "msg/s")
		b.ReportMetric(arm.ShedFraction*100, "shed-%")
		b.ReportMetric(float64(arm.P99.Microseconds()), "p99-µs")
	}
}

// BenchmarkE16ClusterFailover measures the cluster failover path
// (experiment E16): the three-arm drill — a golden single-node session
// against the same session on the room-partitioned fabric, with and
// without a mid-session owner kill — plus a small node-kill/partition
// sweep audited against the failover invariant. The reported metrics
// are the reconnect-window size and the promotion's WAL replay, the
// costs a node death actually imposes on a live classroom.
func BenchmarkE16ClusterFailover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := eval.RunE16(eval.E16Config{Seed: 160, Rooms: 4, RoomsPerWave: 1, Nodes: 2})
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Failed(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.WindowDeliveries), "window-msgs")
		b.ReportMetric(float64(res.Promotion.ReplayApplied), "replayed-recs")
		b.ReportMetric(float64(res.Failovers+1), "failovers")
	}
}

// BenchmarkE10SnapshotReadPath measures the knowledge-layer read path
// (experiment E10): the immutable compiled snapshot (lock-free,
// table-lookup Related) at 1, 4 and 16 workers. Run with -benchmem to
// see its zero allocations per query. The legacy locked arm's numbers
// are frozen in DESIGN.md §E10.
func BenchmarkE10SnapshotReadPath(b *testing.B) {
	onto := ontology.BuildCourseOntology()
	items := onto.Items()
	var pairs [][2]string
	for i, a := range items {
		for _, c := range items[i+1:] {
			pairs = append(pairs, [2]string{a.Name, c.Name})
		}
	}
	snap := onto.Snapshot()
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("snapshot-%dw", workers), func(b *testing.B) {
			var wg sync.WaitGroup
			per := b.N/workers + 1
			b.ResetTimer()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						p := pairs[(w+i)%len(pairs)]
						snap.Related(p[0], p[1], 0)
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// ---- micro-benchmarks ---------------------------------------------------

// BenchmarkParserBySentenceLength isolates the O(n³) parser cost curve.
func BenchmarkParserBySentenceLength(b *testing.B) {
	parser, err := linkgrammar.NewEnglishParser()
	if err != nil {
		b.Fatal(err)
	}
	cases := map[string]string{
		"len05": "the cat chased a mouse",
		"len08": "the student understands the lesson about the stack",
		"len11": "the teacher explains the lesson about the tree in the classroom",
		"len14": "i want to learn the algorithm about the binary search tree in the course",
	}
	for name, sentenceText := range cases {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := parser.Parse(sentenceText); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParserValid measures the Learning_Angel's repair probe,
// Parser.Valid, on the supervisor's cached parser. The probes are the
// single-word drops and adjacent swaps of seeded syntax-error lines,
// split into those that do not parse (most of them; this arm must
// allocate nothing) and those that do. Probes never enter the cache, so
// every iteration parses.
func BenchmarkParserValid(b *testing.B) {
	sup, err := core.New(core.Config{DisableRecording: true})
	if err != nil {
		b.Fatal(err)
	}
	parser := sup.Parser()
	gen := workload.NewGenerator(22, sup.Ontology())
	var failing, passing [][]string
	for len(failing) < 256 || len(passing) < 64 {
		tokens := linkgrammar.Tokenize(gen.SyntaxError().Text)
		for i := range tokens {
			probes := [][]string{append(append([]string(nil), tokens[:i]...), tokens[i+1:]...)}
			if i+1 < len(tokens) {
				swapped := append([]string(nil), tokens...)
				swapped[i], swapped[i+1] = swapped[i+1], swapped[i]
				probes = append(probes, swapped)
			}
			for _, p := range probes {
				if parser.Valid(p) {
					passing = append(passing, p)
				} else {
					failing = append(failing, p)
				}
			}
		}
	}
	for _, arm := range []struct {
		name   string
		probes [][]string
		want   bool
	}{{"failing", failing, false}, {"passing", passing, true}} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if parser.Valid(arm.probes[i%len(arm.probes)]) != arm.want {
					b.Fatal("probe verdict changed between runs")
				}
			}
		})
	}
}

// BenchmarkParserMiss measures the parse-cache miss path: an uncached
// ParseTokens, as the supervisor runs on a line it has not seen, over
// seeded syntax-error lines (whose linkages skip null words) and
// correct lines.
func BenchmarkParserMiss(b *testing.B) {
	sup, err := core.New(core.Config{DisableRecording: true, ParserOptions: uncached})
	if err != nil {
		b.Fatal(err)
	}
	parser := sup.Parser()
	gen := workload.NewGenerator(25, sup.Ontology())
	var syntaxError, correct [][]string
	for i := 0; i < 256; i++ {
		syntaxError = append(syntaxError, linkgrammar.Tokenize(gen.SyntaxError().Text))
		correct = append(correct, linkgrammar.Tokenize(gen.Correct().Text))
	}
	for _, arm := range []struct {
		name  string
		lines [][]string
	}{{"syntax-error", syntaxError}, {"correct", correct}} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := parser.ParseTokens(arm.lines[i%len(arm.lines)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOntologyDistance isolates the semantic-distance query.
func BenchmarkOntologyDistance(b *testing.B) {
	onto := ontology.BuildCourseOntology()
	pairs := [][2]string{
		{"stack", "pop"}, {"tree", "pop"}, {"binary search tree", "insert"},
		{"hash table", "enqueue"}, {"vertex", "heapify"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		onto.Distance(p[0], p[1])
	}
}

// BenchmarkSupervisorProcess measures the whole Figure-3 pipeline per
// message with recording enabled (the production configuration).
func BenchmarkSupervisorProcess(b *testing.B) {
	sup, err := core.New(core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewGenerator(9, sup.Ontology())
	samples := gen.Generate(512, workload.DefaultMix())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := samples[i%len(samples)]
		if _, err := sup.Process("bench", "user", s.Text); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPruningAblation isolates the pre-parse disjunct pruning
// pass: the same sentences parsed with and without power pruning.
func BenchmarkPruningAblation(b *testing.B) {
	dict, err := linkgrammar.NewEnglishDictionary()
	if err != nil {
		b.Fatal(err)
	}
	// Long sentences: the pass is length-gated because short chat
	// lines parse faster without it.
	sentences := []string{
		"the teacher explains the lesson about the binary search tree in the classroom today",
		"i want to learn the algorithm about the hash table in the course with the students",
		"the students discuss the homework about the priority queue with the teacher in the room",
	}
	for _, tc := range []struct {
		name string
		opts linkgrammar.Options
	}{
		{"pruned", linkgrammar.Options{MaxNulls: 2}},
		{"unpruned", linkgrammar.Options{MaxNulls: 2, DisablePruning: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			parser := linkgrammar.NewParser(dict, tc.opts)
			for i := 0; i < b.N; i++ {
				if _, err := parser.Parse(sentences[i%len(sentences)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE17AdversarialFailover measures the adversarial chaos path
// (experiment E17): one population carrying all four fault classes —
// a severed-and-healed ship stream, a promotion-coordinator crash with
// resume, a lagged standby killed mid-lag and clock-skewed lease
// races — replayed twice for byte-identity, plus a one-wave sweep.
// The reported metrics are the promotion resumes and race outcomes,
// the work the fabric does to survive an actively hostile schedule.
func BenchmarkE17AdversarialFailover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := eval.RunE17(eval.E17Config{Seed: 170, Rooms: 4, RoomsPerWave: 1, Nodes: 2})
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Failed(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Failovers+res.Drill.Failovers), "failovers")
		b.ReportMetric(float64(res.Faults.Resumes+res.Drill.Faults.Resumes), "resumes")
		b.ReportMetric(float64(res.Races+res.Drill.Races), "races")
	}
}
