package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"semagent/internal/ontology"
	"semagent/internal/workload"
)

// spec fixes one workload: its traffic mix, rooms, server and phase
// sizes. Every phase is bounded by a line count, never by a duration,
// because per-line supervision cost grows with the course's history.
type spec struct {
	name string
	// server is "chatserver" or "gateway".
	server string
	mix    workload.Mix
	// rooms and users name the two connections' rooms and learners;
	// equal rooms put both learners in one room.
	rooms, users [2]string
	// warm lines are supervised one at a time during set-up, each
	// followed by a barrier; they are the lines detect_f1 scores.
	warm int
	// open lines are sent open-loop at rate lines/s (both connections
	// together); sat lines are sent closed-loop with window in flight
	// per connection.
	open   int
	rate   float64
	sat    int
	window int
	// history is the length of the course history a semester server
	// boots from (0: fresh server).
	history int
}

var specs = map[string]spec{
	"lecture": {
		name: "lecture", server: "chatserver",
		mix:   workload.Mix{Correct: 0.9, Question: 0.1, OutOfOntology: 0.2},
		rooms: [2]string{"lecture", "lecture"}, users: [2]string{"learner-a", "learner-b"},
		warm: 1500, open: 1200, rate: 500, sat: 24000, window: 8,
	},
	"drill": {
		name: "drill", server: "chatserver",
		mix:   workload.Mix{Correct: 0.2, SyntaxError: 0.5, SemanticError: 0.2, Question: 0.1, OutOfOntology: 0.2},
		rooms: [2]string{"drill-a", "drill-b"}, users: [2]string{"learner-a", "learner-b"},
		warm: 600, open: 800, rate: 400, sat: 3000, window: 16,
	},
	"semester": {
		name: "semester", server: "chatserver",
		mix:   workload.DefaultMix(),
		rooms: [2]string{"room-0", "room-1"}, users: [2]string{"student-0-0", "student-1-0"},
		warm: 300, open: 240, rate: 80, sat: 2400, window: 16,
		history: 20000,
	},
	"replicated": {
		name: "replicated", server: "gateway",
		mix:   workload.DefaultMix(),
		rooms: nodeRooms(), users: [2]string{"learner-a", "learner-b"},
		warm: 600, open: 1000, rate: 500, sat: 4000, window: 16,
	},
}

// nodeRooms names two rooms that a two-node fabric places on different
// nodes: rooms go to the sorted live lineages by FNV-1a of the name.
func nodeRooms() [2]string {
	var out [2]string
	found := [2]bool{}
	for i := 0; !found[0] || !found[1]; i++ {
		name := fmt.Sprintf("seminar-%d", i)
		h := fnv.New32a()
		_, _ = h.Write([]byte(name))
		k := int(h.Sum32() % 2)
		if !found[k] {
			out[k], found[k] = name, true
		}
	}
	return out
}

// line is one generated chat line and its ground truth.
type line struct {
	conn   int
	text   string
	kind   workload.Kind
	inOnto bool
}

// script is everything the servers are sent in one cycle, in order.
type script struct {
	warm, open, sat []line
}

func (s script) all() []line {
	out := make([]line, 0, len(s.warm)+len(s.open)+len(s.sat))
	out = append(out, s.warm...)
	out = append(out, s.open...)
	return append(out, s.sat...)
}

// makeScript generates cycle n's lines from the seed. The warm-up
// prefix is the same in every cycle, so detection must repeat exactly;
// the open-loop and saturation lines are fresh each cycle, so a run's
// pooled figures cover more distinct lines than one cycle holds. Lines
// alternate between the two connections.
func makeScript(sp spec, seed int64, n int) script {
	onto := ontology.BuildCourseOntology()
	warm := workload.NewGenerator(seed, onto).Generate(sp.warm, sp.mix)
	rest := workload.NewGenerator(seed*1_000_003+int64(n)+1, onto).Generate(sp.open+sp.sat, sp.mix)
	lines := make([]line, 0, len(warm)+len(rest))
	for i, s := range append(warm, rest...) {
		lines = append(lines, line{conn: i % 2, text: s.Text, kind: s.Kind, inOnto: s.InOntology})
	}
	return script{
		warm: lines[:sp.warm],
		open: lines[sp.warm : sp.warm+sp.open],
		sat:  lines[sp.warm+sp.open:],
	}
}

// historyScript is the semester's course history: a classroom session
// over the workload's two rooms, from a stream independent of the
// measured lines.
func historyScript(sp spec, seed int64) []workload.ScriptedMessage {
	g := workload.NewGenerator(-seed-1, ontology.BuildCourseOntology())
	return g.Session(2, 4, sp.history)
}

// expectResponse reports whether a correct supervisor answers the line:
// syntax and semantic errors draw a private Learning_Angel or
// Semantic_Agent comment, an in-ontology question a QA_System answer,
// anything else nothing.
func expectResponse(l line) bool {
	switch l.kind {
	case workload.KindSyntaxError, workload.KindSemanticError:
		return true
	case workload.KindQuestion:
		return l.inOnto
	}
	return false
}

// sourceID names the source tree under test: the git commit when the
// tree is a repository, otherwise a digest of its Go sources.
func sourceID(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	var files []string
	for _, dir := range []string{"cmd", "internal"} {
		_ = filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return nil
		})
	}
	files = append(files, filepath.Join(root, "go.mod"))
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		_, _ = io.WriteString(h, rel+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
