package linkgrammar

import (
	"fmt"
	"sort"
	"strings"
)

// Disjunct is one way a word's linking requirements can be satisfied: an
// ordered list of left connectors and right connectors that must all be
// used by links. Following the paper's notation ((L1,…,Lm)(Rn,…,R1)),
// Left and Right are stored in traversal (near-to-far) order: Left[0]
// links to the nearest word on the left, Right[0] to the nearest word on
// the right.
type Disjunct struct {
	Left  []Connector
	Right []Connector
	Cost  int

	// leftList and rightList are the same connectors as persistent,
	// interned linked lists in far-to-near order, which is the order
	// the dynamic-programming parser consumes them in. They are built
	// by finalize.
	leftList  *connNode
	rightList *connNode
}

// String renders the disjunct in the paper's ((L1,…)(…,R1)) notation.
func (d *Disjunct) String() string {
	var b strings.Builder
	b.WriteString("((")
	for i, c := range d.Left {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.String())
	}
	b.WriteString(")(")
	for i := len(d.Right) - 1; i >= 0; i-- {
		b.WriteString(d.Right[i].String())
		if i > 0 {
			b.WriteString(", ")
		}
	}
	b.WriteString("))")
	if d.Cost > 0 {
		fmt.Fprintf(&b, "[cost %d]", d.Cost)
	}
	return b.String()
}

// connNode is one cell of a persistent connector list. Node identity
// (pointer) keys the parser's memoization table, so lists must be
// interned: equal suffixes share cells. typ and sub split conn.Name for
// matchNodes: typ is the interned id of the upper-case type, sub the
// subscript after it.
type connNode struct {
	conn Connector
	next *connNode
	typ  int32
	sub  string
}

// connInterner dedupes connector-list cells so that structurally equal
// lists are pointer-equal, keeping the parser memo table small, and
// numbers connector types so that matching compares ints, not names.
// The owning Dictionary's mu guards it.
type connInterner struct {
	cells map[internKey]*connNode
	types map[string]int32
}

type internKey struct {
	conn Connector
	next *connNode
}

func newConnInterner() *connInterner {
	return &connInterner{cells: make(map[internKey]*connNode), types: make(map[string]int32)}
}

// list interns the far-to-near linked list for connectors given in
// near-to-far order.
func (in *connInterner) list(nearToFar []Connector) *connNode {
	var head *connNode
	// Build from the nearest connector outward so that the head of the
	// resulting list is the farthest connector.
	for _, c := range nearToFar {
		key := internKey{conn: c, next: head}
		cell, ok := in.cells[key]
		if !ok {
			u := upperLen(c.Name)
			typ, seen := in.types[c.Name[:u]]
			if !seen {
				typ = int32(len(in.types))
				in.types[c.Name[:u]] = typ
			}
			cell = &connNode{conn: c, next: head, typ: typ, sub: c.Name[u:]}
			in.cells[key] = cell
		}
		head = cell
	}
	return head
}

// matchNodes is Match for two interned cells, the parser's inner-loop
// test: the upper-case types compare as interned ids, then the
// subscripts as in Match.
func matchNodes(r, l *connNode) bool {
	return r.typ == l.typ && r.conn.Dir == DirRight && l.conn.Dir == DirLeft &&
		subscriptsMatch(r.sub, l.sub)
}

// maxDisjunctsPerWord caps expression expansion so that a pathological
// dictionary entry cannot exhaust memory.
const maxDisjunctsPerWord = 4096

// ErrDisjunctOverflow is returned when a dictionary formula expands into
// more disjuncts than maxDisjunctsPerWord.
var ErrDisjunctOverflow = fmt.Errorf("formula expands to more than %d disjuncts", maxDisjunctsPerWord)

// buildDisjuncts expands a formula into its disjuncts: every way of
// choosing one branch of each "or" yields one conjunction of connectors,
// read off in traversal order per direction.
func buildDisjuncts(e *Expr, resolve func(string) (*Expr, error)) ([]*Disjunct, error) {
	ds, err := expand(e, resolve, 0)
	if err != nil {
		return nil, err
	}
	return dedupeDisjuncts(ds), nil
}

func expand(e *Expr, resolve func(string) (*Expr, error), depth int) ([]*Disjunct, error) {
	if depth > 64 {
		return nil, fmt.Errorf("macro expansion too deep (cycle?)")
	}
	var out []*Disjunct
	switch e.kind {
	case exprEmpty:
		out = []*Disjunct{{}}
	case exprConn:
		d := &Disjunct{}
		if e.conn.Dir == DirLeft {
			d.Left = []Connector{e.conn}
		} else {
			d.Right = []Connector{e.conn}
		}
		out = []*Disjunct{d}
	case exprRef:
		target, err := resolve(e.ref)
		if err != nil {
			return nil, err
		}
		out, err = expand(target, resolve, depth+1)
		if err != nil {
			return nil, err
		}
	case exprOr:
		for _, sub := range e.subs {
			ds, err := expand(sub, resolve, depth+1)
			if err != nil {
				return nil, err
			}
			out = append(out, ds...)
			if len(out) > maxDisjunctsPerWord {
				return nil, ErrDisjunctOverflow
			}
		}
	case exprAnd:
		out = []*Disjunct{{}}
		for _, sub := range e.subs {
			ds, err := expand(sub, resolve, depth+1)
			if err != nil {
				return nil, err
			}
			if len(out)*len(ds) > maxDisjunctsPerWord {
				return nil, ErrDisjunctOverflow
			}
			merged := make([]*Disjunct, 0, len(out)*len(ds))
			for _, a := range out {
				for _, b := range ds {
					merged = append(merged, concatDisjunct(a, b))
				}
			}
			out = merged
		}
	default:
		return nil, fmt.Errorf("unknown expression kind %d", e.kind)
	}
	if e.cost > 0 {
		for _, d := range out {
			d.Cost += e.cost
		}
	}
	return out, nil
}

// concatDisjunct joins two partial disjuncts preserving traversal order:
// connectors of a precede connectors of b within each direction.
func concatDisjunct(a, b *Disjunct) *Disjunct {
	d := &Disjunct{
		Left:  make([]Connector, 0, len(a.Left)+len(b.Left)),
		Right: make([]Connector, 0, len(a.Right)+len(b.Right)),
		Cost:  a.Cost + b.Cost,
	}
	d.Left = append(append(d.Left, a.Left...), b.Left...)
	d.Right = append(append(d.Right, a.Right...), b.Right...)
	return d
}

// dedupeDisjuncts removes duplicate disjuncts (same connector sequences),
// keeping the cheapest copy, and orders the result by cost so that the
// parser visits cheap disjuncts first.
func dedupeDisjuncts(ds []*Disjunct) []*Disjunct {
	// Keys are rendered once per disjunct and carried through the sort —
	// a comparator calling key() would rebuild two strings per
	// comparison, which dominated the dictionary's cold-start allocation
	// profile.
	type keyed struct {
		d   *Disjunct
		key string
	}
	seen := make(map[string]int, len(ds))
	kept := make([]keyed, 0, len(ds))
	for _, d := range ds {
		key := d.key()
		if i, ok := seen[key]; ok {
			if d.Cost < kept[i].d.Cost {
				kept[i].d = d
			}
			continue
		}
		seen[key] = len(kept)
		kept = append(kept, keyed{d: d, key: key})
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].d.Cost != kept[j].d.Cost {
			return kept[i].d.Cost < kept[j].d.Cost
		}
		return kept[i].key < kept[j].key
	})
	out := make([]*Disjunct, len(kept))
	for i, k := range kept {
		out[i] = k.d
	}
	return out
}

func (d *Disjunct) key() string {
	var b strings.Builder
	for _, c := range d.Left {
		b.WriteString(c.String())
		b.WriteByte(' ')
	}
	b.WriteByte('|')
	for _, c := range d.Right {
		b.WriteString(c.String())
		b.WriteByte(' ')
	}
	return b.String()
}

// finalize interns the far-to-near connector lists used by the parser.
func (d *Disjunct) finalize(in *connInterner) {
	d.leftList = in.list(d.Left)
	d.rightList = in.list(d.Right)
}
