// Command ontologyctl is the paper's "Ontology Definition GUI" replaced
// by a CLI: it loads, queries, translates (XML <-> DDL/DML) and extends
// the Distance Learning Ontology.
//
// Usage:
//
//	ontologyctl export-xml                  # built-in ontology as XML
//	ontologyctl export-ddl                  # built-in ontology as DDL/DML
//	ontologyctl -xml course.xml export-ddl  # translate an authored XML file
//	ontologyctl run extra.ddl               # replay DDL into the ontology, print SELECT output
//	ontologyctl query "SELECT RELATED stack DEPTH 2;"
//	ontologyctl export-qti 40               # QTI 1.2 true/false question bank
//	ontologyctl stats
//	ontologyctl snapshot                    # compiled read-path snapshot info
//	ontologyctl -data ./classdata run extra.ddl   # journaled authoring
//
// With -data the ontology is recovered from the chatserver's data
// directory (checkpoint + write-ahead log), every DDL mutation is
// journaled, and a checkpoint is taken on exit — authoring survives a
// crash at any point.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"

	"semagent/internal/journal"
	"semagent/internal/ontology"
	"semagent/internal/qti"
)

func main() {
	xmlPath := flag.String("xml", "", "load ontology from this XML file instead of the built-in course ontology")
	dataDir := flag.String("data", "", "recover the ontology from this journaled data directory (the same as chatserver -data); mutations are journaled and checkpointed")
	flag.Parse()
	if err := run(*xmlPath, *dataDir, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "ontologyctl:", err)
		os.Exit(1)
	}
}

func run(xmlPath, dataDir string, args []string) error {
	if xmlPath != "" && dataDir != "" {
		return fmt.Errorf("-xml and -data are mutually exclusive")
	}
	// Validate the subcommand before touching any state: opening a
	// journaled data directory replays and (on exit) checkpoints it, so
	// a typo'd command must not rewrite the databases.
	if err := validateArgs(args); err != nil {
		return err
	}
	var onto *ontology.Ontology
	var mgr *journal.Manager
	if dataDir != "" {
		stores, err := journal.LoadStores(dataDir)
		if err != nil {
			return err
		}
		mgr, err = journal.Open(dataDir, stores, journal.Options{
			Logger: log.New(os.Stderr, "", 0),
		})
		if err != nil {
			return err
		}
		onto = stores.Ontology
		defer func() {
			// Seal with a checkpoint so the next reader boots from a
			// fresh snapshot; the WAL already holds every mutation.
			if err := mgr.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "ontologyctl: close journal:", err)
			}
		}()
	} else {
		var err error
		onto, err = load(xmlPath)
		if err != nil {
			return err
		}
	}
	switch args[0] {
	case "export-xml":
		return onto.EncodeXML(os.Stdout)
	case "export-qti":
		maxItems := 40
		if len(args) >= 2 {
			n, err := strconv.Atoi(args[1])
			if err != nil || n <= 0 {
				return fmt.Errorf("export-qti: bad item count %q", args[1])
			}
			maxItems = n
		}
		return qti.FromOntology(onto, maxItems).Write(os.Stdout)
	case "export-ddl":
		fmt.Print(onto.ExportDDL())
		return nil
	case "run":
		if len(args) < 2 {
			return fmt.Errorf("run: missing DDL file")
		}
		src, err := os.ReadFile(args[1])
		if err != nil {
			return err
		}
		return execDDL(onto, string(src))
	case "query":
		if len(args) < 2 {
			return fmt.Errorf("query: missing statement")
		}
		return execDDL(onto, args[1])
	case "stats":
		// One pinned snapshot keeps every reported number consistent.
		snap := onto.Snapshot()
		items := snap.Items()
		kinds := make(map[ontology.ItemKind]int)
		for _, it := range items {
			kinds[it.Kind]++
		}
		relations := snap.Relations()
		rels := make(map[ontology.RelationKind]int)
		for _, r := range relations {
			rels[r.Kind]++
		}
		fmt.Printf("domain: %s\n", snap.Domain())
		fmt.Printf("items: %d (concepts %d, operations %d, properties %d)\n",
			len(items), kinds[ontology.KindConcept], kinds[ontology.KindOperation], kinds[ontology.KindProperty])
		fmt.Printf("relations: %d (isa %d, hasoperation %d, hasproperty %d, partof %d, relatedto %d)\n",
			len(relations), rels[ontology.RelIsA], rels[ontology.RelHasOperation],
			rels[ontology.RelHasProperty], rels[ontology.RelPartOf], rels[ontology.RelRelatedTo])
		printSnapshot(snap.Stats())
		return nil
	case "snapshot":
		//semalint:allow snapshotonce: disjoint switch arms — at most one of the two pins in this function executes
		printSnapshot(onto.Snapshot().Stats())
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

// validateArgs rejects unknown or malformed subcommands before any
// store is opened.
func validateArgs(args []string) error {
	usage := "export-xml | export-ddl | export-qti [n] | run <file.ddl> | query <stmt> | stats | snapshot"
	if len(args) == 0 {
		return fmt.Errorf("missing subcommand: %s", usage)
	}
	switch args[0] {
	case "export-xml", "export-ddl", "export-qti", "stats", "snapshot":
		return nil
	case "run":
		if len(args) < 2 {
			return fmt.Errorf("run: missing DDL file")
		}
		return nil
	case "query":
		if len(args) < 2 {
			return fmt.Errorf("query: missing statement")
		}
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q (want %s)", args[0], usage)
	}
}

// printSnapshot reports the compiled read-path snapshot the chat
// pipeline serves queries from.
func printSnapshot(st ontology.SnapshotStats) {
	fmt.Printf("snapshot: v%d, %d items, %d relations, %d shortest-path table entries (radius %d), max phrase %d tokens\n",
		st.Version, st.Items, st.Relations, st.TableEntries, st.TableRadius, st.MaxPhraseLen)
}

func load(xmlPath string) (*ontology.Ontology, error) {
	if xmlPath == "" {
		return ontology.BuildCourseOntology(), nil
	}
	f, err := os.Open(xmlPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ontology.DecodeXML(f)
}

func execDDL(onto *ontology.Ontology, src string) error {
	before := onto.Snapshot().Version()
	in := ontology.NewInterpreter(onto)
	if err := in.Run(src); err != nil {
		return err
	}
	for _, line := range in.Output {
		fmt.Println(line)
	}
	// DDL mutations republish the compiled read-path snapshot; report
	// the new version so operators see the publish happen.
	//semalint:allow snapshotonce: the before/after pins straddle the DDL run on purpose — comparing versions IS the point
	if after := onto.Snapshot().Stats(); after.Version != before {
		fmt.Fprintf(os.Stderr, "ontologyctl: republished snapshot v%d -> v%d (%d items, %d relations, %d table entries)\n",
			before, after.Version, after.Items, after.Relations, after.TableEntries)
	}
	return nil
}
