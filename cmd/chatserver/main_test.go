package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"semagent/internal/chat"
	"semagent/internal/journal"
	"semagent/internal/pipeline"
)

func TestValidateRejectsIgnoredFlags(t *testing.T) {
	set := func(names ...string) map[string]bool {
		m := make(map[string]bool)
		for _, n := range names {
			m[n] = true
		}
		return m
	}
	cases := []struct {
		name    string
		cfg     serverConfig
		wantErr string // "" = valid
	}{
		{"defaults", serverConfig{}, ""},
		{"data", serverConfig{dataDir: "d"}, ""},
		{"data with inert -journal", serverConfig{dataDir: "d", set: set("data", "journal")}, ""},
		{"data with journal tuning", serverConfig{dataDir: "d", set: set("data", "journal-sync", "checkpoint-interval", "checkpoint-bytes")}, ""},
		{"journal without data", serverConfig{set: set("journal")}, "-journal requires -data"},
		{"journal-sync without data", serverConfig{set: set("journal-sync")}, "-journal-sync requires -data"},
		{"checkpoint-interval without data", serverConfig{set: set("checkpoint-interval")}, "-checkpoint-interval requires -data"},
		{"checkpoint-bytes without data", serverConfig{set: set("checkpoint-bytes")}, "-checkpoint-bytes requires -data"},
		{"nosupervise", serverConfig{noSupervise: true}, ""},
		{"data with nosupervise", serverConfig{dataDir: "d", noSupervise: true}, "-data requires supervision"},
		{"async with nosupervise", serverConfig{async: true, noSupervise: true}, "-async requires supervision"},
		{"async", serverConfig{async: true}, ""},
		{"shed with async", serverConfig{async: true, shedPolicy: pipeline.ShedOldest}, ""},
		{"shed without async", serverConfig{shedPolicy: pipeline.ShedRejectNew}, "-shed requires -async"},
		{"shed with nosupervise", serverConfig{noSupervise: true, shedPolicy: pipeline.ShedRejectNew}, "-shed requires -async"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.validate()
			switch {
			case tc.wantErr == "" && err != nil:
				t.Errorf("validate() = %v, want nil", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Errorf("validate() = %v, want an error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestSIGKILLRecoversSyncedRecords runs the real binary with plain
// -data (default group commit), supervises N lines, waits for a group
// commit after the last verdict, kills the process with SIGKILL and
// requires the data directory to recover all N corpus records.
func TestSIGKILLRecoversSyncedRecords(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test skipped in -short mode")
	}
	repoRoot, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "chatserver")
	build := exec.Command("go", "build", "-o", bin, "./cmd/chatserver")
	build.Dir = repoRoot
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	dir := filepath.Join(t.TempDir(), "classdata")
	addr, metricsAddr := freeAddr(t), freeAddr(t)
	logPath := filepath.Join(t.TempDir(), "server.log")
	logf, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer logf.Close()
	srv := exec.Command(bin, "-addr", addr, "-data", dir, "-metrics-addr", metricsAddr)
	srv.Stdout, srv.Stderr = logf, logf
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	killed := false
	defer func() {
		if !killed {
			_ = srv.Process.Kill()
			_ = srv.Wait()
		}
		if t.Failed() {
			out, _ := os.ReadFile(logPath)
			t.Logf("server log:\n%s", out)
		}
	}()

	scrape := func(prefix string) int64 {
		resp, err := http.Get("http://" + metricsAddr + "/metrics")
		if err != nil {
			return -1
		}
		defer resp.Body.Close()
		var sum int64
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, prefix) {
				continue
			}
			v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				t.Fatalf("metrics line %q: %v", line, err)
			}
			sum += v
		}
		return sum
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	waitFor("the metrics endpoint", func() bool { return scrape("semagent_journal_last_lsn ") >= 0 })

	client, err := chat.Dial(addr, "algo101", "alice", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	go func() {
		for range client.Receive() {
		}
	}()
	lines := []string{
		"the stack have the push operation",
		"the tree has the pop operation",
		"what is a binary search tree?",
		"the stack has the push operation",
	}
	const n = 24
	for i := 0; i < n; i++ {
		if err := client.Say(lines[i%len(lines)]); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(fmt.Sprintf("%d verdicts", n), func() bool { return scrape("semagent_messages_total{") == n })
	// Every verdict follows its journal appends, so the last LSN is
	// final here; a group commit after it moves the durability watermark
	// up to it. (The fsync counter alone cannot tell whether the last
	// commit came before or after the last append.)
	lastLSN := scrape("semagent_journal_last_lsn ")
	if lastLSN < n {
		t.Fatalf("journal last LSN = %d after %d verdicts, want at least one record per message", lastLSN, n)
	}
	waitFor("a group commit", func() bool { return scrape("semagent_journal_synced_lsn ") == lastLSN })

	if err := srv.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_ = srv.Wait()
	killed = true

	stores, err := journal.LoadStores(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := journal.Open(dir, stores, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	if got := stores.Corpus.Len(); got != n {
		t.Errorf("recovered %d corpus records after SIGKILL, want %d (replay %+v)", got, n, mgr.Stats().Replay)
	}
}

func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}
