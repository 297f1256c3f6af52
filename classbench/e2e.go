package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"semagent/internal/chat"
	"semagent/internal/core"
	"semagent/internal/journal"
	"semagent/internal/sentence"
)

// phaseTimeout bounds every wait on the servers; a dropped connection
// fails the run at once instead.
const phaseTimeout = 30 * time.Second

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// server is one launched server process.
type server struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	addr  string
	log   *os.File
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startServer execs the workload's server with its default supervision
// mode and deployment flags only.
func startServer(o options, sp spec, dataDir, logPath string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	var args []string
	switch sp.server {
	case "gateway":
		args = []string{"-listen", addr, "-nodes", "2", "-data", dataDir}
	default:
		args = []string{"-addr", addr}
		if dataDir != "" {
			args = append(args, "-data", dataDir, "-journal")
		}
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(o.bin, sp.server), args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The gateway's admin console shuts it down when stdin closes, so
	// stdin stays open until stop.
	stdin, err := cmd.StdinPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	return &server{cmd: cmd, stdin: stdin, addr: addr, log: logf}, nil
}

// stop asks the server to shut down (SIGTERM, its graceful path) and
// waits until it has exited; a server that hangs is killed.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(60 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
		err = fmt.Errorf("server did not stop within 60s; killed")
	}
	s.stdin.Close()
	s.log.Close()
	return err
}

// cpuTime reads the process's user+sys CPU time, all threads, live and
// exited, to the nanosecond: clock_gettime on its process CPU-time clock
// (the clock clock_getcpuclockid names; CPUCLOCK_SCHED is 2). The
// utime+stime of /proc/<pid>/stat hold the same time in 10 ms ticks.
func cpuTime(pid int) (time.Duration, error) {
	clock := int32(^uint32(pid))<<3 | 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("CPU time of pid %d: %w", pid, errno)
	}
	return time.Duration(ts.Nano()), nil
}

// peakRSSKB reads VmHWM from /proc/<pid>/status.
func peakRSSKB(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// score counts detection outcomes against the ground truth.
type score struct{ tp, fp, fn int }

func (s score) f1() float64 {
	if 2*s.tp+s.fp+s.fn == 0 {
		return 1
	}
	return float64(2*s.tp) / float64(2*s.tp+s.fp+s.fn)
}

// cycle is one boot → set-up → open loop → saturation pass.
type cycle struct {
	setup     time.Duration
	feedback  []float64 // ms, open loop, lines that drew a response
	echo      []float64 // ms, open loop
	late      []float64 // ms, open loop
	satLines  int
	satDur    time.Duration
	satCPU    time.Duration
	satFrames int64
	rssKB     int64
	det       score
	// warmResp records, per warm-up line, whether it drew a response.
	warmResp  []bool
	attempted int
	failed    int
}

// runCycle boots a server over dataDir (a fresh copy for semester, a
// fresh directory for the gateway, "" otherwise) and drives the script.
func runCycle(o options, sp spec, sc script, dataDir, logPath string) (cy cycle, err error) {
	// The generator does not collect during a cycle: a collection stops
	// the receivers for longer than the latencies they time. A cycle
	// allocates some tens of MB; the collection runs between cycles.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	spin, err := startSpinner()
	if err != nil {
		return cy, err
	}
	defer func() {
		if serr := spin.stop(); serr != nil && err == nil {
			err = fmt.Errorf("spinner: %w", serr)
		}
	}()
	srv, err := startServer(o, sp, dataDir, logPath)
	if err != nil {
		return cy, err
	}
	start := time.Now()
	defer func() {
		if serr := srv.stop(); serr != nil && err == nil {
			err = serr
		}
		if err != nil {
			err = fmt.Errorf("%w (server log %s)", err, logPath)
		}
	}()
	pid := srv.cmd.Process.Pid

	// Set-up: listening, both learners joined, warm-up supervised.
	var clients [2]*client
	defer func() {
		for _, c := range clients {
			if c != nil {
				c.close()
			}
		}
	}()
	for i := range clients {
		cy.attempted++
		c, jerr := joinRetry(srv, sp.rooms[i], sp.users[i], start.Add(phaseTimeout))
		if jerr != nil {
			cy.failed++
			return cy, jerr
		}
		clients[i] = c
	}
	for _, c := range clients {
		c.setRecord(true)
	}
	cy.warmResp = make([]bool, len(sc.warm))
	for i, l := range sc.warm {
		c := clients[l.conn]
		cy.attempted += 2
		if err := c.say(l.text); err != nil {
			cy.failed += 2
			return cy, err
		}
		if err := c.say(barrierLine); err != nil {
			cy.failed++
			return cy, err
		}
		if _, err := c.awaitBarrier(phaseTimeout); err != nil {
			cy.failed++
			return cy, err
		}
		got, echoed := warmResponse(c.take(), c.user)
		if !echoed {
			cy.failed++
			return cy, fmt.Errorf("warm-up line %d of %s: no echo", i, c.user)
		}
		for _, other := range clients {
			if other != c {
				other.take()
			}
		}
		cy.warmResp[i] = got
		switch want := expectResponse(l); {
		case want && got:
			cy.det.tp++
		case want:
			cy.det.fn++
		case got:
			cy.det.fp++
		}
	}
	cy.setup = time.Since(start)

	if err := openLoop(sp, sc.open, clients, &cy); err != nil {
		return cy, err
	}
	if err := saturate(sp, sc.sat, clients, pid, &cy); err != nil {
		return cy, err
	}
	cy.rssKB, err = peakRSSKB(pid)
	return cy, err
}

// joinRetry joins once the server listens, retrying refused dials.
func joinRetry(srv *server, room, user string, deadline time.Time) (*client, error) {
	for {
		c, err := join(srv.addr, room, user, phaseTimeout)
		if err == nil {
			return c, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("join %s/%s: %w", room, user, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// warmResponse inspects one serialized warm-up step's log: the line's
// own echo, then any agent response before the barrier reply.
func warmResponse(log []rx, user string) (got, echoed bool) {
	for _, r := range log {
		m := r.m
		switch {
		case m.Type == chat.TypeChat && m.From == user && m.Text != barrierLine:
			echoed = true
		case !echoed || isBarrierReply(m):
		case m.Type == chat.TypeAgent:
			got = true
		}
	}
	return got, echoed
}

// sent is one open-loop line as the generator sent it.
type sent struct {
	line
	due, at time.Time
	// echoAt is when its echo came back; echoTime the server's stamp.
	echoAt, echoTime time.Time
	// firstAt is when the first agent response reached the sender.
	firstAt  time.Time
	question bool
}

// openLoop sends the lines at the workload's fixed rate, each
// connection on its own schedule, and times each line from when it was
// due.
func openLoop(sp spec, lines []line, clients [2]*client, cy *cycle) error {
	var per [2][]*sent
	order := make([]*sent, len(lines))
	t0 := time.Now().Add(5 * time.Millisecond)
	step := time.Duration(float64(time.Second) / sp.rate)
	for i, l := range lines {
		order[i] = &sent{
			line: l, due: t0.Add(time.Duration(i) * step),
			question: sentence.ClassifyText(l.text).Pattern.IsQuestion(),
		}
		per[l.conn] = append(per[l.conn], order[i])
	}
	// One sender paces both connections from a locked OS thread sleeping
	// in nanosleep: the Go timer would wake it on the next millisecond at
	// best, which is the size of the latencies being measured.
	sendErr := make(chan error, 1)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		// A 1 ns timer slack instead of the default 50 µs.
		_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
		for _, s := range order {
			if d := time.Until(s.due); d > 0 {
				ts := syscall.NsecToTimespec(int64(d))
				for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
				}
			}
			s.at = time.Now()
			if err := clients[s.conn].say(s.text); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()
	firstErr := <-sendErr
	if firstErr == nil {
		for _, c := range clients {
			if err := c.say(barrierLine); err != nil {
				firstErr = err
				break
			}
		}
	}
	if firstErr == nil {
		for _, c := range clients {
			if _, err := c.awaitBarrier(phaseTimeout); err != nil {
				firstErr = err
				break
			}
		}
	}
	cy.attempted += len(lines) + 2
	if firstErr != nil {
		cy.failed++
		return firstErr
	}

	// Attribute what came back. Private responses and echoes reach only
	// the sender, in the order of its lines. Public answers reach every
	// member of the room, so they are attributed by room order: to the
	// latest question of the room echoed (by server time) before the
	// answer was stamped.
	type pub struct {
		stamp time.Time
		text  string
	}
	pubAt := map[pub][2]time.Time{}
	for k, c := range clients {
		log := c.setRecord(false)
		mine := per[k]
		n := -1
		for _, r := range log {
			m := r.m
			switch {
			case m.Type == chat.TypeChat && m.From == c.user && m.Text != barrierLine:
				n++
				if n < len(mine) {
					mine[n].echoAt, mine[n].echoTime = r.at, m.Time
				}
			case m.Type != chat.TypeAgent || isBarrierReply(m):
			case m.Private:
				if n >= 0 && n < len(mine) && mine[n].firstAt.IsZero() {
					mine[n].firstAt = r.at
				}
			default:
				key := pub{m.Time, m.Text}
				at := pubAt[key]
				at[k] = r.at
				pubAt[key] = at
			}
		}
		if n+1 != len(mine) {
			cy.failed += len(mine) - (n + 1)
			return fmt.Errorf("open loop: %s got %d echoes for %d lines", c.user, n+1, len(mine))
		}
	}
	var pubs []pub
	for p := range pubAt {
		pubs = append(pubs, p)
	}
	sort.Slice(pubs, func(i, j int) bool { return pubs[i].stamp.Before(pubs[j].stamp) })
	for _, p := range pubs {
		var best *sent
		bestConn := -1
		for k := range clients {
			for _, s := range per[k] {
				if !s.question || !s.firstAt.IsZero() || s.echoTime.After(p.stamp) || pubAt[p][k].IsZero() {
					continue
				}
				if best == nil || s.echoTime.After(best.echoTime) {
					best, bestConn = s, k
				}
			}
		}
		if best != nil {
			best.firstAt = pubAt[p][bestConn]
		}
	}
	for k := range clients {
		for _, s := range per[k] {
			cy.late = append(cy.late, ms(s.at.Sub(s.due)))
			cy.echo = append(cy.echo, ms(s.echoAt.Sub(s.due)))
			if !s.firstAt.IsZero() {
				cy.feedback = append(cy.feedback, ms(s.firstAt.Sub(s.due)))
			}
		}
	}
	return nil
}

// saturate sends the lines closed-loop. Each connection sends groups
// of window lines, each group closed by a barrier, and keeps at most two
// groups unacknowledged: the backlog of unsupervised lines stays below
// two windows in every server mode, so no send queue can overflow.
func saturate(sp spec, lines []line, clients [2]*client, pid int, cy *cycle) error {
	var per [2][]string
	for _, l := range lines {
		per[l.conn] = append(per[l.conn], l.text)
	}
	base := [2]int64{clients[0].echoes.Load(), clients[1].echoes.Load()}
	frames0 := clients[0].frames.Load() + clients[1].frames.Load()
	cpu0, err := cpuTime(pid)
	if err != nil {
		return err
	}
	// In a shared room the other learner's queue holds this learner's
	// echoes too, so a group also waits for the previous one's echoes to
	// reach the other member.
	shared := sp.rooms[0] == sp.rooms[1]
	peerBase := [2]int64{clients[1].peerEchoes.Load(), clients[0].peerEchoes.Load()}
	t0 := time.Now()
	errs := make(chan error, 2)
	for k := range clients {
		go func(c, peer *client, mine []string, base, peerBase int64) {
			errs <- func() error {
				outstanding := 0
				for i := 0; i < len(mine); i += sp.window {
					if outstanding == 2 {
						if _, err := c.awaitBarrier(phaseTimeout); err != nil {
							return err
						}
						outstanding--
						if shared {
							if err := awaitCount(peer, &peer.peerEchoes, peer.peerSig, peerBase+int64(i-sp.window), phaseTimeout); err != nil {
								return err
							}
						}
					}
					for _, text := range mine[i:min(i+sp.window, len(mine))] {
						if err := c.say(text); err != nil {
							return err
						}
					}
					if err := c.say(barrierLine); err != nil {
						return err
					}
					outstanding++
				}
				for ; outstanding > 0; outstanding-- {
					if _, err := c.awaitBarrier(phaseTimeout); err != nil {
						return err
					}
				}
				if got := c.echoes.Load() - base; got != int64(len(mine)) {
					return fmt.Errorf("saturation: %s got %d echoes for %d lines", c.user, got, len(mine))
				}
				return nil
			}()
		}(clients[k], clients[1-k], per[k], base[k], peerBase[k])
	}
	var firstErr error
	for range clients {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	cy.satDur = time.Since(t0)
	cy.attempted += len(lines) + 2
	if firstErr != nil {
		cy.failed++
		return firstErr
	}
	cpu1, err := cpuTime(pid)
	if err != nil {
		return err
	}
	cy.satLines = len(lines)
	cy.satCPU = cpu1 - cpu0
	cy.satFrames = clients[0].frames.Load() + clients[1].frames.Load() - frames0
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// prepareHistory supervises the semester's course history in-process
// over a journaled data directory: a checkpoint after three quarters of
// it, the rest left in the write-ahead log, so booting from it is a
// checkpoint load plus a replay. Nothing here is timed.
func prepareHistory(o options, sp spec) (string, error) {
	dir := filepath.Join(o.work, "history")
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	stores, err := journal.LoadStores(dir)
	if err != nil {
		return "", err
	}
	mgr, err := journal.Open(dir, stores, journal.Options{CheckpointInterval: -1, CheckpointBytes: -1})
	if err != nil {
		return "", err
	}
	sup, err := core.New(core.Config{Ontology: stores.Ontology, Corpus: stores.Corpus, Profiles: stores.Profiles, FAQ: stores.FAQ})
	if err != nil {
		mgr.Abandon()
		return "", err
	}
	hist := historyScript(sp, o.seed)
	for i, m := range hist {
		if _, err := sup.Process(m.Room, m.User, m.Sample.Text); err != nil {
			mgr.Abandon()
			return "", fmt.Errorf("history line %d: %w", i, err)
		}
		if i == len(hist)*3/4 {
			if err := mgr.Checkpoint(); err != nil {
				mgr.Abandon()
				return "", err
			}
		}
	}
	if err := mgr.Sync(); err != nil {
		mgr.Abandon()
		return "", err
	}
	// Leave the tail in the log: a crash-style stop, everything synced.
	mgr.Abandon()
	return dir, nil
}

// copyDir copies a flat-or-nested data directory.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	return filepath.WalkDir(src, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(p)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// cycleData prepares the data directory one cycle's server boots from.
func cycleData(o options, sp spec, history string, n int) (string, error) {
	dir := filepath.Join(o.work, fmt.Sprintf("data-%d", n))
	switch {
	case history != "":
		return dir, copyDir(history, dir)
	case sp.server == "gateway":
		if err := os.RemoveAll(dir); err != nil {
			return "", err
		}
		return dir, os.MkdirAll(dir, 0o755)
	}
	return "", nil
}

// runEndToEnd repeats whole cycles until the measured seconds are used
// up. Set-up time, throughput, CPU per line and peak RSS are medians over
// the cycles, so a cycle disturbed by the rest of the machine is one
// vote, not a skew. Latency percentiles are over the samples of all
// cycles pooled: each cycle draws fresh lines, and the feedback
// distribution is bimodal (cheap semantic and QA responses, expensive
// repair searches), so a per-cycle median jumps with each cycle's mix.
func runEndToEnd(o options, sp spec) (result, error) {
	res := result{Metrics: map[string]metric{}}
	history := ""
	if sp.history > 0 {
		var err error
		if history, err = prepareHistory(o, sp); err != nil {
			return res, fmt.Errorf("prepare history: %w", err)
		}
	}
	var cycles []cycle
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		dir, err := cycleData(o, sp, history, n)
		if err != nil {
			return res, err
		}
		cy, err := runCycle(o, sp, makeScript(sp, o.seed, n), dir, filepath.Join(o.work, fmt.Sprintf("server-%d.log", n)))
		res.Attempted += cy.attempted
		res.Failed += cy.failed
		if err != nil {
			if res.Failed == 0 {
				res.Failed = 1
			}
			return res, fmt.Errorf("cycle %d: %w", n, err)
		}
		if dir != "" {
			_ = os.RemoveAll(dir)
		}
		fmt.Fprintf(os.Stderr, "classbench: cycle %d: setup %.3fs, feedback p50 %.3fms p90 %.3fms, echo p50 %.3fms, %.0f msg/s, %.1f us/msg\n",
			n, cy.setup.Seconds(), quantile(cy.feedback, 0.5), quantile(cy.feedback, 0.9), quantile(cy.echo, 0.5),
			float64(cy.satLines)/cy.satDur.Seconds(), float64(cy.satCPU)/1e3/float64(cy.satLines))
		cycles = append(cycles, cy)
	}
	res.Correct = true
	for _, cy := range cycles[1:] {
		if cy.det != cycles[0].det {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "classbench: detection differs between cycles: %+v vs %+v\n", cy.det, cycles[0].det)
		}
	}
	var setup, rss, tput, cpu, feedback, echo []float64
	for _, cy := range cycles {
		setup = append(setup, cy.setup.Seconds())
		rss = append(rss, float64(cy.rssKB)/1024)
		tput = append(tput, float64(cy.satLines)/cy.satDur.Seconds())
		cpu = append(cpu, float64(cy.satCPU)/1e3/float64(cy.satLines))
		feedback = append(feedback, cy.feedback...)
		echo = append(echo, cy.echo...)
	}
	if len(feedback) < 100 {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "classbench: only %d feedback samples\n", len(feedback))
	}
	fmt.Fprintf(os.Stderr, "classbench: %d cycles, %d feedback samples, detection %+v\n", len(cycles), len(feedback), cycles[0].det)
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	put("setup_s", "s", median(setup))
	put("feedback_p50_ms", "ms", quantile(feedback, 0.5))
	put("feedback_p90_ms", "ms", quantile(feedback, 0.9))
	put("echo_p50_ms", "ms", quantile(echo, 0.5))
	put("throughput_msg_s", "msg/s", median(tput))
	put("cpu_us_per_msg", "us", median(cpu))
	put("server_rss_mb", "MB", median(rss))
	put("detect_f1", "ratio", cycles[0].det.f1())
	return res, nil
}

// quantile is the nearest-rank quantile of xs (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
