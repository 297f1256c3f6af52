// Package linkgrammar implements a link grammar parser in the style of
// Sleator and Temperley's "Parsing English with a Link Grammar"
// (CMU-CS-91-196), the parsing substrate of the ICDCSW'05 paper this
// repository reproduces.
//
// A dictionary assigns every word a formula over typed connectors. A
// sequence of words is a sentence of the language iff links can be drawn
// between matching connectors such that the linkage satisfies the four
// meta-rules: planarity (links do not cross), connectivity (the linkage
// connects all words), ordering (connectors of a formula, traversed left
// to right, connect near to far) and exclusion (no two links connect the
// same pair of words).
//
// The package adds the fault tolerance the paper layers on top of stock
// link grammar: null-link parsing locates a minimal set of words that
// must be skipped for the rest of the sentence to parse, and those words
// are reported as grammar-error locations.
package linkgrammar

import "strings"

// Direction indicates which side of the word a connector must link toward.
type Direction int8

// Connector directions. A '+' connector links rightward, a '-' connector
// links leftward; a link joins one '+' connector to one '-' connector of
// the same type.
const (
	DirRight Direction = iota + 1 // '+' suffix in the dictionary
	DirLeft                       // '-' suffix in the dictionary
)

// String returns the dictionary suffix for the direction.
func (d Direction) String() string {
	if d == DirRight {
		return "+"
	}
	return "-"
}

// Connector is one linking requirement of a word. Name is an upper-case
// type optionally followed by a lower-case/'*' subscript. Multi marks a
// multi-connector ('@' prefix in the dictionary) that may participate in
// any number of links.
type Connector struct {
	Name  string
	Dir   Direction
	Multi bool
}

// String renders the connector in dictionary notation, e.g. "@Ds+".
func (c Connector) String() string {
	var b strings.Builder
	if c.Multi {
		b.WriteByte('@')
	}
	b.WriteString(c.Name)
	b.WriteString(c.Dir.String())
	return b.String()
}

// upperLen returns the length of the leading upper-case portion of a
// connector name.
func upperLen(name string) int {
	i := 0
	for i < len(name) && name[i] >= 'A' && name[i] <= 'Z' {
		i++
	}
	return i
}

// Match reports whether a right-pointing connector r and a left-pointing
// connector l may be joined by a link. The upper-case portions of the
// names must be identical; the lower-case subscripts match position by
// position, where '*' matches any character and a missing character
// matches anything.
func Match(r, l Connector) bool {
	if r.Dir != DirRight || l.Dir != DirLeft {
		return false
	}
	ru, lu := upperLen(r.Name), upperLen(l.Name)
	if ru != lu || r.Name[:ru] != l.Name[:lu] {
		return false
	}
	return subscriptsMatch(r.Name[ru:], l.Name[lu:])
}

// subscriptsMatch compares two subscripts position by position: '*'
// matches any character and a missing character matches anything.
func subscriptsMatch(rs, ls string) bool {
	n := min(len(rs), len(ls))
	for i := 0; i < n; i++ {
		if rs[i] == '*' || ls[i] == '*' {
			continue
		}
		if rs[i] != ls[i] {
			return false
		}
	}
	return true
}

// LinkLabel is the label given to a link joining connectors r and l: the
// shared upper-case type plus the more specific of the two subscripts,
// mirroring how stock link grammar names links.
func LinkLabel(r, l Connector) string {
	ru := upperLen(r.Name)
	base := r.Name[:ru]
	rs, ls := r.Name[ru:], l.Name[upperLen(l.Name):]
	long, short := rs, ls
	if len(ls) > len(rs) {
		long, short = ls, rs
	}
	sub := make([]byte, 0, len(long))
	for i := 0; i < len(long); i++ {
		ch := long[i]
		if ch == '*' && i < len(short) {
			ch = short[i]
		}
		if ch == '*' {
			break
		}
		sub = append(sub, ch)
	}
	return base + string(sub)
}
