// Command chatserver runs the supervised e-learning chat room: a TCP
// server whose rooms are watched by the Learning_Angel Agent, the
// Semantic Agent and the QA system (the paper's Figure 3 deployed as a
// service).
//
// Usage:
//
//	chatserver -addr :7788
//	chatserver -addr :7788 -data ./classdata           # crash-safe corpus/FAQ/profiles/ontology
//	chatserver -addr :7788 -async                      # sidecar supervision
//	chatserver -addr :7788 -async -shed oldest-drop    # overload-safe supervision
//	chatserver -addr :7788 -metrics-addr :9090         # /metrics + /healthz
//	chatserver -addr :7788 -nosupervise                # plain chat (E6 baseline)
//
// With -data every learned fact (corpus record, profile event, FAQ
// pair, ontology mutation) is appended to an fsync'd write-ahead log in
// the data directory and replayed over the last checkpoint at boot, so
// a crash or kill loses at most the mutations after the last group
// commit. A clean shutdown takes a final checkpoint. Flag combinations
// that would be silently ignored (journal tuning without -data, -data
// or -async with -nosupervise, -shed without -async) exit with status 2.
//
// With -metrics-addr the server exposes the full instrumentation layer
// (DESIGN.md D10) as Prometheus text at /metrics and a readiness probe
// at /healthz, and folds a periodic operational snapshot into the
// instructor report (-ops-interval). With -shed the async supervision
// pipeline sheds load at the -room-queue / -inflight watermarks instead
// of back-pressuring the room: a traffic spike degrades supervision
// coverage, never chat latency.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"semagent/internal/chat"
	"semagent/internal/core"
	"semagent/internal/journal"
	"semagent/internal/metrics"
	"semagent/internal/pipeline"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7788", "listen address")
		dataDir     = flag.String("data", "", "journaled directory for the corpus/profiles/FAQ/ontology: checkpoint + write-ahead log, recovered at boot (empty = in-memory only)")
		async       = flag.Bool("async", false, "supervise off the broadcast path via the room-sharded worker pool")
		workers     = flag.Int("workers", 0, "async supervision workers (0 = GOMAXPROCS)")
		queue       = flag.Int("queue", 0, "async supervision queue per shard (0 = 256)")
		noSupervise = flag.Bool("nosupervise", false, "disable the agents (plain chat room)")
		wire        = flag.String("wire", "binary", "wire formats accepted: binary (negotiate length-prefixed framing with willing clients) or text (newline-JSON only)")

		_           = flag.Bool("journal", false, "deprecated: -data always journals (requires -data)")
		journalSync = flag.Bool("journal-sync", false, "fsync the journal on every record instead of batched group commit (requires -data)")
		ckptEvery   = flag.Duration("checkpoint-interval", 5*time.Minute, "journal checkpoint interval (0 disables the time trigger; requires -data)")
		ckptBytes   = flag.Int64("checkpoint-bytes", 4<<20, "journal checkpoint size threshold in bytes (0 disables the size trigger; requires -data)")

		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics and /healthz on this address (empty = off)")
		shed        = flag.String("shed", "none", "supervision admission control: none (block), reject-new, or oldest-drop (requires -async)")
		roomQueue   = flag.Int("room-queue", 64, "per-room supervision queue-depth watermark for -shed (0 = no per-room cap)")
		inflightCap = flag.Int("inflight", 4096, "global in-flight supervision watermark for -shed (0 = no global cap)")
		opsEvery    = flag.Duration("ops-interval", 30*time.Second, "how often the operational metrics snapshot is folded into the instructor report (0 = off)")
	)
	flag.Parse()
	policy, err := pipeline.ParseShedPolicy(*shed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chatserver:", err)
		os.Exit(2)
	}
	if *wire != "binary" && *wire != "text" {
		fmt.Fprintf(os.Stderr, "chatserver: -wire must be binary or text, got %q\n", *wire)
		os.Exit(2)
	}
	cfg := serverConfig{
		addr: *addr, dataDir: *dataDir, async: *async, noSupervise: *noSupervise,
		workers: *workers, queue: *queue, textOnly: *wire == "text",
		journalSync: *journalSync, ckptEvery: *ckptEvery, ckptBytes: *ckptBytes,
		metricsAddr: *metricsAddr, shedPolicy: policy,
		roomQueue: *roomQueue, inflightCap: *inflightCap, opsEvery: *opsEvery,
		set: make(map[string]bool),
	}
	flag.Visit(func(f *flag.Flag) { cfg.set[f.Name] = true })
	if err := cfg.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "chatserver:", err)
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "chatserver:", err)
		os.Exit(1)
	}
}

type serverConfig struct {
	addr, dataDir      string
	async, noSupervise bool
	textOnly           bool
	workers, queue     int
	journalSync        bool
	ckptEvery          time.Duration
	ckptBytes          int64

	metricsAddr string
	shedPolicy  pipeline.ShedPolicy
	roomQueue   int
	inflightCap int
	opsEvery    time.Duration

	// set names the flags given on the command line, so a journal
	// tuning flag given without -data is refused rather than ignored.
	set map[string]bool
}

// validate refuses flag combinations whose effect would be silently
// dropped: journal tuning without a data directory, and persistence or
// async supervision with the agents off.
func (c serverConfig) validate() error {
	if c.dataDir == "" {
		for _, name := range []string{"journal", "journal-sync", "checkpoint-interval", "checkpoint-bytes"} {
			if c.set[name] {
				return fmt.Errorf("-%s requires -data", name)
			}
		}
	}
	if c.noSupervise && c.dataDir != "" {
		// The journal records supervisor learning; with supervision off
		// there is nothing to persist, and accepting -data would let an
		// operator believe the classroom's knowledge is being kept.
		return fmt.Errorf("-data requires supervision (drop -nosupervise)")
	}
	if c.noSupervise && c.async {
		return fmt.Errorf("-async requires supervision (drop -nosupervise)")
	}
	if c.shedPolicy != pipeline.ShedNone && !c.async {
		return fmt.Errorf("-shed requires -async")
	}
	return nil
}

func run(c serverConfig) error {
	logger := log.New(os.Stderr, "", log.LstdFlags)
	reg := metrics.NewRegistry()
	opts := chat.ServerOptions{
		Logger: logger, Async: c.async, Workers: c.workers, SuperviseQueue: c.queue,
		ShedPolicy: c.shedPolicy, RoomHighWater: c.roomQueue, GlobalHighWater: c.inflightCap,
		Metrics: reg, DisableBinaryWire: c.textOnly,
	}

	var sup *core.Supervisor
	var mgr *journal.Manager
	if !c.noSupervise {
		cfg := core.Config{Metrics: reg}
		if c.dataDir != "" {
			// Crash recovery: load the last checkpoint, replay the
			// write-ahead log over it, then journal every new mutation.
			stores, err := journal.LoadStores(c.dataDir)
			if err != nil {
				return fmt.Errorf("load data dir: %w", err)
			}
			jopts := journal.Options{
				SyncEveryRecord:    c.journalSync,
				CheckpointInterval: orDisabled(c.ckptEvery),
				CheckpointBytes:    orDisabledBytes(c.ckptBytes),
				Logger:             logger,
				Metrics:            reg,
			}
			mgr, err = journal.Open(c.dataDir, stores, jopts)
			if err != nil {
				return fmt.Errorf("open journal: %w", err)
			}
			rs := mgr.Stats().Replay
			logger.Printf("journal: recovered %s (%d segments, %d records replayed, %d skipped, %d errors, %d torn bytes dropped)",
				c.dataDir, rs.Segments, rs.Applied, rs.Skipped, rs.Errors, rs.TornTail)
			cfg.Ontology = stores.Ontology
			cfg.Corpus = stores.Corpus
			cfg.Profiles = stores.Profiles
			cfg.FAQ = stores.FAQ
		}
		var err error
		sup, err = core.New(cfg)
		if err != nil {
			return fmt.Errorf("build supervisor: %w", err)
		}
		opts.Supervisor = sup.ChatSupervisor()
		logger.Printf("supervision: ontology %q with %d items, dictionary %d words, corpus %d records, faq %d entries",
			sup.Ontology().Domain(), sup.Ontology().Len(),
			sup.Parser().Dictionary().Len(), sup.Corpus().Len(), sup.FAQ().Len())
	} else {
		logger.Printf("supervision: disabled")
	}

	server := chat.NewServer(opts)
	bound, err := server.Listen(c.addr)
	if err != nil {
		return err
	}
	logger.Printf("chat server listening on %s", bound)
	if c.shedPolicy != pipeline.ShedNone {
		logger.Printf("admission control: %s (room watermark %d, global watermark %d)",
			c.shedPolicy, c.roomQueue, c.inflightCap)
	}

	start := time.Now()
	var metricsSrv *http.Server
	if c.metricsAddr != "" {
		metricsSrv = newMetricsServer(c.metricsAddr, reg, server, start)
		go func() {
			if err := metricsSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Printf("metrics server: %v", err)
			}
		}()
		logger.Printf("metrics on http://%s/metrics, health on /healthz", c.metricsAddr)
	}

	// The periodic operational snapshot: the instructor report carries
	// the service's load/latency/shed state (DESIGN.md D10).
	opsDone := make(chan struct{})
	opsStopped := make(chan struct{})
	close(opsStopped)
	if sup != nil && c.opsEvery > 0 {
		opsStopped = make(chan struct{})
		go func() {
			defer close(opsStopped)
			t := time.NewTicker(c.opsEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					sup.Analyzer().RecordOps(reg.Snapshot())
				case <-opsDone:
					return
				}
			}
		}()
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	<-sigCh
	logger.Printf("shutting down")
	close(opsDone)
	if metricsSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = metricsSrv.Shutdown(ctx)
		cancel()
	}
	// Close first: it drains the async supervision pipeline, so the
	// stats, summary and snapshot below include every queued message.
	closeErr := server.Close()
	if sup != nil {
		// Final ops snapshot AFTER the drain — and after the ticker
		// goroutine has fully stopped, so a straggling pre-drain
		// snapshot cannot overwrite this one — keeping the report's
		// operational section in agreement with its learning
		// statistics.
		<-opsStopped
		sup.Analyzer().RecordOps(reg.Snapshot())
	}
	if st, ok := server.SupervisionStats(); ok {
		logger.Printf("supervision pipeline: %d workers, %d submitted, %d completed, %d blocked submits, %d shed, max shard queue %d",
			st.Workers, st.Submitted, st.Completed, st.Blocked, st.Shed, st.MaxQueueDepth)
	}
	if sup != nil {
		cs := sup.Parser().CacheStats()
		if cs.Capacity > 0 {
			logger.Printf("parse cache: %d/%d entries, %.1f%% hit rate, %d evictions, %d invalidations",
				cs.Size, cs.Capacity, cs.HitRate()*100, cs.Evictions, cs.Invalidations)
		}
		logger.Printf("session summary:\n%s", sup.Analyzer().Report())
	}
	if mgr != nil {
		// Final checkpoint + journal seal: the next boot loads the
		// snapshot and finds an empty log.
		st := mgr.Stats()
		if err := mgr.Close(); err != nil {
			logger.Printf("close journal: %v", err)
		} else {
			logger.Printf("journal: sealed at lsn %d (%d records, %d fsyncs, %d checkpoints)",
				st.LastLSN, st.Records, st.Fsyncs, st.Checkpoints+1)
		}
	}
	return closeErr
}

// newMetricsServer serves the Prometheus exposition at /metrics and a
// readiness probe at /healthz: 200 with a small JSON body once the chat
// listener is up (this server only starts after Listen succeeded, so
// reachable means ready).
func newMetricsServer(addr string, reg *metrics.Registry, server *chat.Server, start time.Time) *http.Server {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		body := map[string]interface{}{
			"status":    "ok",
			"uptime_s":  int64(time.Since(start).Seconds()),
			"rooms":     len(server.RoomNames()),
			"timestamp": time.Now().Format(time.RFC3339),
		}
		if st, ok := server.SupervisionStats(); ok {
			body["supervision"] = map[string]int64{
				"submitted": st.Submitted, "completed": st.Completed,
				"shed": st.Shed, "pending": st.Pending(),
			}
		}
		_ = json.NewEncoder(w).Encode(body)
	})
	return &http.Server{Addr: addr, Handler: mux}
}

// orDisabled maps the flag convention (0 = off) to the journal option
// convention (negative = off, 0 = default).
func orDisabled(d time.Duration) time.Duration {
	if d == 0 {
		return -1
	}
	return d
}

func orDisabledBytes(n int64) int64 {
	if n == 0 {
		return -1
	}
	return n
}
