// Package ontology implements the Distance Learning Ontology of the
// ICDCSW'05 paper: a typed knowledge graph over course concepts
// ("Data Structure" domain by default) with definitions, operations,
// properties and relations, plus the semantic-distance evaluation the
// Semantic Agent and QA system are built on.
//
// The paper's Figure 5 sketches the ontology as a "Knowledge body" of
// KeyItems (e.g. stack id=3, tree id=4) with SubItems (push id=32,
// pop id=33), Definitions, Descriptions, Operations and Relations. The
// package also provides the paper's Ontology Definition pipeline: an
// XML codec matching the figure's markup and a DDL/DML mini-language
// with a translator and interpreter (the GUI of the paper is replaced
// by the ontologyctl command).
package ontology

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// ItemKind classifies a knowledge item.
type ItemKind int8

// Item kinds.
const (
	KindConcept   ItemKind = iota + 1 // a data structure or notion ("stack")
	KindOperation                     // an operation ("push")
	KindProperty                      // a property ("lifo")
)

// String returns the DDL spelling of the kind.
func (k ItemKind) String() string {
	switch k {
	case KindConcept:
		return "concept"
	case KindOperation:
		return "operation"
	case KindProperty:
		return "property"
	default:
		return fmt.Sprintf("ItemKind(%d)", int(k))
	}
}

// ParseItemKind parses a DDL kind spelling.
func ParseItemKind(s string) (ItemKind, error) {
	switch strings.ToLower(s) {
	case "concept":
		return KindConcept, nil
	case "operation":
		return KindOperation, nil
	case "property":
		return KindProperty, nil
	}
	return 0, fmt.Errorf("unknown item kind %q", s)
}

// RelationKind classifies an edge of the knowledge graph.
type RelationKind int8

// Relation kinds with their semantic-distance weights (see Weight).
const (
	RelIsA          RelationKind = iota + 1 // stack is-a linear structure
	RelHasOperation                         // stack has-operation push
	RelHasProperty                          // stack has-property lifo
	RelPartOf                               // node part-of tree
	RelRelatedTo                            // pointer related-to node
)

// String returns the DDL spelling of the relation kind.
func (k RelationKind) String() string {
	switch k {
	case RelIsA:
		return "isa"
	case RelHasOperation:
		return "hasoperation"
	case RelHasProperty:
		return "hasproperty"
	case RelPartOf:
		return "partof"
	case RelRelatedTo:
		return "relatedto"
	default:
		return fmt.Sprintf("RelationKind(%d)", int(k))
	}
}

// ParseRelationKind parses a DDL relation-kind spelling.
func ParseRelationKind(s string) (RelationKind, error) {
	switch strings.ToLower(strings.ReplaceAll(strings.ReplaceAll(s, "-", ""), "_", "")) {
	case "isa":
		return RelIsA, nil
	case "hasoperation":
		return RelHasOperation, nil
	case "hasproperty":
		return RelHasProperty, nil
	case "partof":
		return RelPartOf, nil
	case "relatedto":
		return RelRelatedTo, nil
	}
	return 0, fmt.Errorf("unknown relation kind %q", s)
}

// Weight is the semantic-distance cost of traversing one edge of this
// kind. Loose "related-to" edges cost more than structural edges.
func (k RelationKind) Weight() int {
	if k == RelRelatedTo {
		return 2
	}
	return 1
}

// Symbol is a named auxiliary definition ("top" of a stack in the
// paper's example markup).
type Symbol struct {
	Name string
	Text string
}

// Definition is the textual knowledge attached to an item.
type Definition struct {
	Description string
	Symbols     []Symbol
	// Algorithm optionally carries pseudo-code; Type mirrors the
	// paper's `<Algorithm type="c">` attribute.
	Algorithm     string
	AlgorithmType string
}

// Item is one KeyItem of the knowledge body.
type Item struct {
	ID         int
	Name       string
	Aliases    []string
	Kind       ItemKind
	Definition Definition
}

// Relation is a directed, typed edge between two items.
type Relation struct {
	From int
	To   int
	Kind RelationKind
}

// Ontology is the thread-safe knowledge graph. The maps below are the
// authoritative mutable state, guarded by mu and touched only by the
// mutating API; all read traffic goes through an immutable compiled
// Snapshot published via an atomic pointer (see Snapshot), so readers
// never take the lock and mutation is copy-on-write.
type Ontology struct {
	mu     sync.RWMutex
	domain string
	items  map[int]*Item
	byName map[string]int // normalized name/alias -> id
	out    map[int][]Relation
	in     map[int][]Relation
	nextID int

	// gen counts successful mutations (guarded by mu); the published
	// snapshot records the gen it was compiled from as its Version.
	gen  uint64
	snap atomic.Pointer[Snapshot]

	// observer and lsn implement the write-ahead-log hook (guarded by
	// mu): every successful mutation is reported to the observer, which
	// returns the WAL sequence number it was journaled under. State and
	// JournalLSN therefore always move together.
	observer EventObserver
	lsn      uint64
}

// Event is one journaled ontology mutation — the authoring/teach
// operations (DDL, XML import, chat teaching) in replayable form.
type Event struct {
	Op   string `json:"op"`
	ID   int    `json:"id,omitempty"`   // explicit item id (add-item)
	Name string `json:"name,omitempty"` // item name, from-item, or domain
	Arg  string `json:"arg,omitempty"`  // alias / symbol name / algorithm type / to-item
	Text string `json:"text,omitempty"` // description / symbol / algorithm body
	Kind string `json:"kind,omitempty"` // item kind or relation kind spelling
}

// Event op names.
const (
	OpDomain    = "domain"
	OpAddItem   = "add-item"
	OpAlias     = "alias"
	OpDescribe  = "describe"
	OpSymbol    = "symbol"
	OpAlgorithm = "algorithm"
	OpRelate    = "relate"
	OpUnrelate  = "unrelate"
	OpRemove    = "remove"
)

// EventObserver is the write-ahead-log hook, invoked under the ontology
// write lock after each successful mutation; it returns the assigned
// WAL sequence number. Nil disables journaling.
type EventObserver func(Event) uint64

// SetObserver installs the journal hook (nil to detach).
func (o *Ontology) SetObserver(fn EventObserver) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.observer = fn
}

// JournalLSN returns the highest WAL sequence number reflected in the
// ontology's state (0 when never journaled).
func (o *Ontology) JournalLSN() uint64 {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.lsn
}

// SetJournalLSN records the WAL position the state corresponds to
// (used by recovery after replaying the journal).
func (o *Ontology) SetJournalLSN(v uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.lsn = v
}

// emitLocked journals a successful mutation; o.mu must be held.
func (o *Ontology) emitLocked(ev Event) {
	if o.observer != nil {
		o.lsn = o.observer(ev)
	}
}

// Apply replays a journaled mutation through the regular mutating API.
// It is the recovery path of internal/journal and runs before an
// observer is attached, so replayed events are not re-journaled.
func (o *Ontology) Apply(ev Event) error {
	switch ev.Op {
	case OpDomain:
		o.SetDomain(ev.Name)
		return nil
	case OpAddItem:
		kind, err := ParseItemKind(ev.Kind)
		if err != nil {
			return err
		}
		_, err = o.AddItemWithID(ev.ID, ev.Name, kind)
		return err
	case OpAlias:
		return o.AddAlias(ev.Name, ev.Arg)
	case OpDescribe:
		return o.SetDescription(ev.Name, ev.Text)
	case OpSymbol:
		return o.AddSymbol(ev.Name, ev.Arg, ev.Text)
	case OpAlgorithm:
		return o.SetAlgorithm(ev.Name, ev.Arg, ev.Text)
	case OpRelate:
		kind, err := ParseRelationKind(ev.Kind)
		if err != nil {
			return err
		}
		return o.Relate(ev.Name, ev.Arg, kind)
	case OpUnrelate:
		return o.Unrelate(ev.Name, ev.Arg)
	case OpRemove:
		return o.RemoveItem(ev.Name)
	default:
		return fmt.Errorf("unknown ontology event op %q", ev.Op)
	}
}

// Snapshot returns the current immutable compiled view, building and
// publishing it if a mutation invalidated the previous one. The fast
// path is a single atomic load; the slow path runs at most once per
// mutation generation.
func (o *Ontology) Snapshot() *Snapshot {
	if s := o.snap.Load(); s != nil {
		return s
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if s := o.snap.Load(); s != nil {
		return s
	}
	s := o.buildSnapshotLocked()
	o.snap.Store(s)
	return s
}

// invalidateLocked marks the published snapshot stale after a
// successful mutation; o.mu must be held for writing.
func (o *Ontology) invalidateLocked() {
	o.gen++
	o.snap.Store(nil)
}

// New returns an empty ontology for the named domain.
func New(domain string) *Ontology {
	return &Ontology{
		domain: domain,
		items:  make(map[int]*Item),
		byName: make(map[string]int),
		out:    make(map[int][]Relation),
		in:     make(map[int][]Relation),
		nextID: 1,
	}
}

// Domain returns the domain label, e.g. "Data Structure".
func (o *Ontology) Domain() string {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.domain
}

// SetDomain renames the domain (the DDL interpreter's CREATE DOMAIN).
func (o *Ontology) SetDomain(domain string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.domain = domain
	o.invalidateLocked()
	o.emitLocked(Event{Op: OpDomain, Name: domain})
}

// Normalize canonicalizes an item name for lookup: lower case, single
// spaces, hyphens treated as spaces. Already-normalized input — the
// overwhelmingly common case, since tokens arrive lowercased from the
// tokenizer and item names are stored normalized — is detected in one
// scan and returned as-is, so lookup misses cost zero allocations
// (strings.Fields allocates its slice unconditionally on the slow
// path, and misses outnumber hits on ordinary chat text).
func Normalize(name string) string {
	for i := 0; i < len(name); i++ {
		c := name[i]
		if (c >= 'A' && c <= 'Z') || c == '-' || c >= 0x80 || c < ' ' ||
			(c == ' ' && (i == 0 || i == len(name)-1 || name[i+1] == ' ')) {
			return normalizeSlow(name)
		}
	}
	return name
}

func normalizeSlow(name string) string {
	name = strings.ToLower(strings.TrimSpace(name))
	name = strings.ReplaceAll(name, "-", " ")
	return strings.Join(strings.Fields(name), " ")
}

// Errors reported by mutating operations.
var (
	ErrDuplicateName = errors.New("item name already defined")
	ErrDuplicateID   = errors.New("item id already in use")
	ErrNotFound      = errors.New("item not found")
)

// AddItem creates a new item with an auto-assigned ID.
func (o *Ontology) AddItem(name string, kind ItemKind) (*Item, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.addItemLocked(0, name, kind)
}

// AddItemWithID creates a new item with an explicit ID (used by the XML
// importer and to keep the paper's published IDs stable).
func (o *Ontology) AddItemWithID(id int, name string, kind ItemKind) (*Item, error) {
	if id <= 0 {
		return nil, fmt.Errorf("item id must be positive, got %d", id)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.addItemLocked(id, name, kind)
}

func (o *Ontology) addItemLocked(id int, name string, kind ItemKind) (*Item, error) {
	key := Normalize(name)
	if key == "" {
		return nil, errors.New("item name must not be empty")
	}
	if _, exists := o.byName[key]; exists {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateName, name)
	}
	if id == 0 {
		id = o.nextID
	}
	if _, exists := o.items[id]; exists {
		return nil, fmt.Errorf("%w: %d", ErrDuplicateID, id)
	}
	if id >= o.nextID {
		o.nextID = id + 1
	}
	it := &Item{ID: id, Name: key, Kind: kind}
	o.items[id] = it
	o.byName[key] = id
	o.invalidateLocked()
	o.emitLocked(Event{Op: OpAddItem, ID: id, Name: key, Kind: kind.String()})
	return it, nil
}

// AddAlias registers an alternative name for an item.
func (o *Ontology) AddAlias(name, alias string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	it, err := o.lookupLocked(name)
	if err != nil {
		return err
	}
	key := Normalize(alias)
	if key == "" {
		return errors.New("alias must not be empty")
	}
	if owner, exists := o.byName[key]; exists {
		if owner == it.ID {
			return nil
		}
		return fmt.Errorf("%w: %q", ErrDuplicateName, alias)
	}
	o.byName[key] = it.ID
	it.Aliases = append(it.Aliases, key)
	o.invalidateLocked()
	o.emitLocked(Event{Op: OpAlias, Name: it.Name, Arg: key})
	return nil
}

// SetDescription sets the item's definition text.
func (o *Ontology) SetDescription(name, text string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	it, err := o.lookupLocked(name)
	if err != nil {
		return err
	}
	it.Definition.Description = text
	o.invalidateLocked()
	o.emitLocked(Event{Op: OpDescribe, Name: it.Name, Text: text})
	return nil
}

// AddSymbol attaches a named symbol definition to an item.
func (o *Ontology) AddSymbol(name, symbolName, text string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	it, err := o.lookupLocked(name)
	if err != nil {
		return err
	}
	for i := range it.Definition.Symbols {
		if it.Definition.Symbols[i].Name == symbolName {
			it.Definition.Symbols[i].Text = text
			o.invalidateLocked()
			o.emitLocked(Event{Op: OpSymbol, Name: it.Name, Arg: symbolName, Text: text})
			return nil
		}
	}
	it.Definition.Symbols = append(it.Definition.Symbols, Symbol{Name: symbolName, Text: text})
	o.invalidateLocked()
	o.emitLocked(Event{Op: OpSymbol, Name: it.Name, Arg: symbolName, Text: text})
	return nil
}

// SetAlgorithm attaches pseudo-code to an item.
func (o *Ontology) SetAlgorithm(name, algType, text string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	it, err := o.lookupLocked(name)
	if err != nil {
		return err
	}
	it.Definition.Algorithm = text
	it.Definition.AlgorithmType = algType
	o.invalidateLocked()
	o.emitLocked(Event{Op: OpAlgorithm, Name: it.Name, Arg: algType, Text: text})
	return nil
}

// Relate adds a typed edge between two named items. Duplicate edges are
// ignored.
func (o *Ontology) Relate(from, to string, kind RelationKind) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	f, err := o.lookupLocked(from)
	if err != nil {
		return err
	}
	t, err := o.lookupLocked(to)
	if err != nil {
		return err
	}
	if f.ID == t.ID {
		return errors.New("item cannot relate to itself")
	}
	rel := Relation{From: f.ID, To: t.ID, Kind: kind}
	for _, r := range o.out[f.ID] {
		if r == rel {
			return nil
		}
	}
	o.out[f.ID] = append(o.out[f.ID], rel)
	o.in[t.ID] = append(o.in[t.ID], rel)
	o.invalidateLocked()
	o.emitLocked(Event{Op: OpRelate, Name: f.Name, Arg: t.Name, Kind: kind.String()})
	return nil
}

// Unrelate removes every edge between the two named items (both
// directions).
func (o *Ontology) Unrelate(a, b string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	ia, err := o.lookupLocked(a)
	if err != nil {
		return err
	}
	ib, err := o.lookupLocked(b)
	if err != nil {
		return err
	}
	removePair := func(rels []Relation, x, y int) []Relation {
		keep := rels[:0]
		for _, r := range rels {
			if (r.From == x && r.To == y) || (r.From == y && r.To == x) {
				continue
			}
			keep = append(keep, r)
		}
		return keep
	}
	o.out[ia.ID] = removePair(o.out[ia.ID], ia.ID, ib.ID)
	o.out[ib.ID] = removePair(o.out[ib.ID], ia.ID, ib.ID)
	o.in[ia.ID] = removePair(o.in[ia.ID], ia.ID, ib.ID)
	o.in[ib.ID] = removePair(o.in[ib.ID], ia.ID, ib.ID)
	o.invalidateLocked()
	o.emitLocked(Event{Op: OpUnrelate, Name: ia.Name, Arg: ib.Name})
	return nil
}

// RemoveItem deletes an item and all its edges.
func (o *Ontology) RemoveItem(name string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	it, err := o.lookupLocked(name)
	if err != nil {
		return err
	}
	delete(o.items, it.ID)
	delete(o.byName, it.Name)
	for _, a := range it.Aliases {
		delete(o.byName, a)
	}
	delete(o.out, it.ID)
	delete(o.in, it.ID)
	for id, rels := range o.out {
		keep := rels[:0]
		for _, r := range rels {
			if r.To != it.ID {
				keep = append(keep, r)
			}
		}
		o.out[id] = keep
	}
	for id, rels := range o.in {
		keep := rels[:0]
		for _, r := range rels {
			if r.From != it.ID {
				keep = append(keep, r)
			}
		}
		o.in[id] = keep
	}
	o.invalidateLocked()
	o.emitLocked(Event{Op: OpRemove, Name: it.Name})
	return nil
}

func (o *Ontology) lookupLocked(name string) (*Item, error) {
	id, ok := o.byName[Normalize(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return o.items[id], nil
}

// Lookup finds an item by name or alias, folding plural forms
// ("stacks" finds "stack"). The returned item is the current snapshot's
// immutable copy.
func (o *Ontology) Lookup(name string) (*Item, bool) {
	return o.Snapshot().Lookup(name)
}

// pluralFolds returns candidate base spellings for inflected forms:
// plurals ("stacks" -> "stack"), past participles ("pushed" -> "push")
// and gerunds ("inserting" -> "insert"), so the Semantic Keywords
// Filter recognizes "the data is pushed in this heap" (§4.1) as using
// the push operation.
func pluralFolds(key string) []string {
	var out []string
	switch {
	case strings.HasSuffix(key, "ies"):
		out = append(out, key[:len(key)-3]+"y")
	case strings.HasSuffix(key, "xes"), strings.HasSuffix(key, "ches"), strings.HasSuffix(key, "shes"), strings.HasSuffix(key, "sses"):
		out = append(out, key[:len(key)-2])
	case strings.HasSuffix(key, "s") && !strings.HasSuffix(key, "ss"):
		out = append(out, key[:len(key)-1])
	}
	if strings.HasSuffix(key, "es") {
		out = append(out, key[:len(key)-2])
	}
	if strings.HasSuffix(key, "ed") && len(key) > 4 {
		stem := key[:len(key)-2]
		out = append(out, stem, stem+"e")
		if len(stem) > 2 && stem[len(stem)-1] == stem[len(stem)-2] {
			out = append(out, stem[:len(stem)-1]) // popped -> pop
		}
	}
	if strings.HasSuffix(key, "ing") && len(key) > 5 {
		stem := key[:len(key)-3]
		out = append(out, stem, stem+"e")
		if len(stem) > 2 && stem[len(stem)-1] == stem[len(stem)-2] {
			out = append(out, stem[:len(stem)-1]) // popping -> pop
		}
	}
	return out
}

// ByID returns the item with the given ID (the snapshot's immutable
// copy).
func (o *Ontology) ByID(id int) (*Item, bool) {
	return o.Snapshot().ByID(id)
}

// Len returns the number of items.
func (o *Ontology) Len() int {
	return o.Snapshot().Len()
}

// Items returns all items ordered by ID.
func (o *Ontology) Items() []*Item {
	return o.Snapshot().Items()
}

// Relations returns all edges ordered by (From, To, Kind).
func (o *Ontology) Relations() []Relation {
	return o.Snapshot().Relations()
}

// Neighbors returns the relations touching the item (both directions).
func (o *Ontology) Neighbors(id int) []Relation {
	return o.Snapshot().Neighbors(id)
}

// OperationsOf returns the operations an item offers, including those
// inherited through is-a edges (a binary search tree inherits insert
// from tree if modelled that way).
func (o *Ontology) OperationsOf(name string) []*Item {
	return o.Snapshot().OperationsOf(name)
}

// PropertiesOf returns the properties an item carries, including those
// inherited through is-a edges.
func (o *Ontology) PropertiesOf(name string) []*Item {
	return o.Snapshot().PropertiesOf(name)
}

// ConceptsWith returns the concepts that directly offer the named
// operation or property.
func (o *Ontology) ConceptsWith(opOrProp string) []*Item {
	return o.Snapshot().ConceptsWith(opOrProp)
}

// ParentsOf returns the is-a parents of an item.
func (o *Ontology) ParentsOf(name string) []*Item {
	return o.Snapshot().ParentsOf(name)
}

// IsA reports whether item a transitively is-a item b.
func (o *Ontology) IsA(a, b string) bool {
	return o.Snapshot().IsA(a, b)
}

// isEmpty reports whether the definition carries no content.
func (d Definition) isEmpty() bool {
	return d.Description == "" && len(d.Symbols) == 0 && d.Algorithm == "" && d.AlgorithmType == ""
}

// hasExact reports whether an item exists under exactly this normalized
// name or alias, with no morphological folding.
func (o *Ontology) hasExact(name string) bool {
	o.mu.RLock()
	defer o.mu.RUnlock()
	_, ok := o.byName[Normalize(name)]
	return ok
}
