// Command classbench is the classroom benchmark: it launches the
// supervised chat servers built from this source tree as separate
// processes, drives one generated classroom workload against them from
// a single load-generator process, and prints every end-to-end metric
// (or, with -trace 1, every per-layer metric of an in-process traced
// replay) as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// It is normally started through run.sh, which builds the binaries
// first. See README.md for the workloads, the metrics and how they map
// onto each other.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	root, bin, work string
	workload        string
	seed            int64
	seconds         int
	trace           int
}

func main() {
	var o options
	flag.StringVar(&o.root, "root", ".", "repository root (source tree under test)")
	flag.StringVar(&o.bin, "bin", ".bench_build/bin", "directory holding the chatserver and gateway binaries")
	flag.StringVar(&o.work, "work", ".bench_build/work", "scratch directory for data dirs and server logs")
	flag.StringVar(&o.workload, "workload", "", "workload: lecture, drill, semester or replicated")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds (whole cycles are repeated until they are used up)")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced in-process replay")
	spinMode := flag.Bool("spin", false, "internal: keep every CPU out of idle at SCHED_IDLE until stdin closes")
	flag.Parse()
	if *spinMode {
		spin()
		return
	}

	sp, ok := specs[o.workload]
	if !ok {
		fatalf("unknown workload %q (want one of %v)", o.workload, specNames())
	}
	if o.seconds < 1 {
		fatalf("-seconds must be at least 1")
	}
	// Two threads run the generator's Go code: the open-loop sender sleeps
	// in a system call holding one, the receivers use the other. Never
	// more than nproc.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	// Collection is off during cycles (see runCycle); this caps the heap.
	debug.SetMemoryLimit(1 << 30)
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fatalf("%v", err)
	}

	printHost(o)
	var res result
	var err error
	if o.trace == 1 {
		res, err = runTraced(o, sp)
	} else {
		res, err = runEndToEnd(o, sp)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "classbench: workload %s seed %d: %v\n", sp.name, o.seed, err)
	}
	out, merr := json.Marshal(res)
	if merr != nil {
		fatalf("encode result: %v", merr)
	}
	fmt.Println(string(out))
	if err != nil || !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "classbench: "+format+"\n", args...)
	os.Exit(2)
}

func specNames() []string {
	var names []string
	for n := range specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printHost records what produced the run: nproc, the GOMAXPROCS of the
// servers (they run with the Go default, nproc) and of this generator,
// the Go version, the kernel and the source tree.
func printHost(o options) {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	rec := map[string]interface{}{
		"workload":             o.workload,
		"seed":                 o.seed,
		"trace":                o.trace,
		"nproc":                runtime.NumCPU(),
		"server_gomaxprocs":    runtime.NumCPU(),
		"generator_gomaxprocs": runtime.GOMAXPROCS(0),
		"go":                   runtime.Version(),
		"kernel":               strings.TrimSpace(string(kernel)),
		"commit":               sourceID(o.root),
		"time":                 time.Now().UTC().Format(time.RFC3339),
	}
	b, _ := json.Marshal(rec)
	fmt.Printf("host %s\n", b)
}
