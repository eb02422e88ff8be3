// Package symbolic implements the route-announcement analysis engine that
// powers the Campion substitute (policy-behaviour diffing, §3.1) and the
// Batfish "Search Route Policies" substitute (local-policy verification,
// §4.1): exact set algebra over announced prefixes (pattern plus
// prefix-length range), community constraints, and protocol constraints;
// compilation of route policies into guarded accept regions; and concrete
// counterexample extraction.
package symbolic

import (
	"fmt"
	"strings"

	"repro/internal/netcfg"
)

// Atom is a set of announced prefixes: every prefix p such that the first
// Pattern.Len bits of p equal Pattern and MinLen <= p.Len <= MaxLen.
// Invariant (enforced by constructors): MinLen >= Pattern.Len. An atom with
// MinLen > MaxLen is empty.
//
// This is exactly the semantics of a Cisco prefix-list entry with ge/le or
// a Juniper route-filter with prefix-length-range.
type Atom struct {
	Pattern netcfg.Prefix
	MinLen  int
	MaxLen  int
}

// NewAtom builds a normalized atom, clamping MinLen up to the pattern
// length and the bounds into [0,32].
func NewAtom(pattern netcfg.Prefix, minLen, maxLen int) Atom {
	if minLen < pattern.Len {
		minLen = pattern.Len
	}
	if maxLen > 32 {
		maxLen = 32
	}
	return Atom{Pattern: pattern, MinLen: minLen, MaxLen: maxLen}
}

// FullAtom matches every announced prefix.
func FullAtom() Atom { return Atom{Pattern: netcfg.Prefix{}, MinLen: 0, MaxLen: 32} }

// AtomFromEntry converts a prefix-list entry into the atom it matches.
func AtomFromEntry(e netcfg.PrefixListEntry) Atom {
	min, max := e.Bounds()
	return NewAtom(e.Prefix, min, max)
}

// AtomFromRouteFilter converts an inline route-filter match into an atom.
func AtomFromRouteFilter(m netcfg.MatchRouteFilter) Atom {
	return NewAtom(m.Prefix, m.MinLen, m.MaxLen)
}

// Empty reports whether the atom matches nothing.
func (a Atom) Empty() bool { return a.MinLen > a.MaxLen }

// Contains reports whether a concrete announced prefix is in the set.
func (a Atom) Contains(p netcfg.Prefix) bool {
	if p.Len < a.MinLen || p.Len > a.MaxLen {
		return false
	}
	return p.Addr&netcfg.Mask(a.Pattern.Len) == a.Pattern.Addr
}

// Sample returns a concrete prefix from the atom (the pattern address at
// the minimum matched length). Callers must check Empty first.
func (a Atom) Sample() netcfg.Prefix {
	return netcfg.NewPrefix(a.Pattern.Addr, a.MinLen)
}

// String implements fmt.Stringer.
func (a Atom) String() string {
	if a.Empty() {
		return "∅"
	}
	return fmt.Sprintf("%s[len %d-%d]", a.Pattern, a.MinLen, a.MaxLen)
}

// Intersect returns the intersection of two atoms (possibly empty).
func (a Atom) Intersect(b Atom) Atom {
	deep, shallow := a, b
	if b.Pattern.Len > a.Pattern.Len {
		deep, shallow = b, a
	}
	// Patterns are compatible only if the deeper pattern extends the
	// shallower one.
	if deep.Pattern.Addr&netcfg.Mask(shallow.Pattern.Len) != shallow.Pattern.Addr {
		return Atom{Pattern: deep.Pattern, MinLen: 1, MaxLen: 0} // empty
	}
	min := a.MinLen
	if b.MinLen > min {
		min = b.MinLen
	}
	max := a.MaxLen
	if b.MaxLen < max {
		max = b.MaxLen
	}
	return Atom{Pattern: deep.Pattern, MinLen: min, MaxLen: max}
}

// Subtract returns a \ b as a union of disjoint atoms.
func (a Atom) Subtract(b Atom) []Atom {
	if a.Empty() {
		return nil
	}
	inter := a.Intersect(b)
	if inter.Empty() {
		return []Atom{a}
	}
	var out []Atom
	add := func(at Atom) {
		if !at.Empty() {
			out = append(out, at)
		}
	}
	if b.Pattern.Len <= a.Pattern.Len {
		// b's pattern covers all of a's prefixes: only length carving.
		add(Atom{Pattern: a.Pattern, MinLen: a.MinLen, MaxLen: minInt(a.MaxLen, b.MinLen-1)})
		add(Atom{Pattern: a.Pattern, MinLen: maxInt(a.MinLen, b.MaxLen+1), MaxLen: a.MaxLen})
		return out
	}
	// b is deeper than a. Three disjoint parts of a:
	// (1) announced prefixes too short to be constrained by b's pattern
	//     (p.Len < b.Pattern.Len implies p cannot match b because
	//     b.MinLen >= b.Pattern.Len);
	add(Atom{Pattern: a.Pattern, MinLen: a.MinLen, MaxLen: minInt(a.MaxLen, b.Pattern.Len-1)})
	// (2) prefixes under sibling branches along the path from a.Pattern
	//     down to b.Pattern;
	for k := a.Pattern.Len; k < b.Pattern.Len; k++ {
		sibAddr := b.Pattern.Addr ^ (1 << uint(31-k))
		sib := netcfg.NewPrefix(sibAddr, k+1)
		add(Atom{Pattern: sib, MinLen: maxInt(a.MinLen, b.Pattern.Len), MaxLen: a.MaxLen})
	}
	// (3) prefixes under b's own pattern with lengths outside b's range.
	base := maxInt(a.MinLen, b.Pattern.Len)
	add(Atom{Pattern: b.Pattern, MinLen: base, MaxLen: minInt(a.MaxLen, b.MinLen-1)})
	add(Atom{Pattern: b.Pattern, MinLen: maxInt(base, b.MaxLen+1), MaxLen: a.MaxLen})
	return out
}

// PrefixSet is a union of atoms.
type PrefixSet []Atom

// FullPrefixSet matches every announced prefix.
func FullPrefixSet() PrefixSet { return PrefixSet{FullAtom()} }

// full reports whether the set is FullPrefixSet's one atom, the prefix
// set of every community and protocol match.
func (s PrefixSet) full() bool { return len(s) == 1 && s[0] == FullAtom() }

// Empty reports whether the set matches nothing.
func (s PrefixSet) Empty() bool {
	for _, a := range s {
		if !a.Empty() {
			return false
		}
	}
	return true
}

// Contains reports membership of a concrete prefix.
func (s PrefixSet) Contains(p netcfg.Prefix) bool {
	for _, a := range s {
		if a.Contains(p) {
			return true
		}
	}
	return false
}

// Sample returns a concrete member, or ok=false if the set is empty.
func (s PrefixSet) Sample() (netcfg.Prefix, bool) {
	for _, a := range s {
		if !a.Empty() {
			return a.Sample(), true
		}
	}
	return netcfg.Prefix{}, false
}

// Union returns s ∪ t.
func (s PrefixSet) Union(t PrefixSet) PrefixSet {
	out := make(PrefixSet, 0, len(s)+len(t))
	for _, a := range s {
		if !a.Empty() {
			out = append(out, a)
		}
	}
	for _, a := range t {
		if !a.Empty() {
			out = append(out, a)
		}
	}
	return out
}

// Intersect returns s ∩ t.
func (s PrefixSet) Intersect(t PrefixSet) PrefixSet {
	var out PrefixSet
	for _, a := range s {
		for _, b := range t {
			if i := a.Intersect(b); !i.Empty() {
				out = append(out, i)
			}
		}
	}
	return out
}

// Subtract returns s \ t.
func (s PrefixSet) Subtract(t PrefixSet) PrefixSet {
	cur := make(PrefixSet, 0, len(s))
	for _, a := range s {
		if !a.Empty() {
			cur = append(cur, a)
		}
	}
	for _, b := range t {
		if b.Empty() {
			continue
		}
		var next PrefixSet
		for _, a := range cur {
			next = append(next, a.Subtract(b)...)
		}
		cur = next
	}
	return cur
}

// Equal reports set equality (both differences empty).
func (s PrefixSet) Equal(t PrefixSet) bool {
	return s.Subtract(t).Empty() && t.Subtract(s).Empty()
}

// String implements fmt.Stringer.
func (s PrefixSet) String() string {
	var parts []string
	for _, a := range s {
		if !a.Empty() {
			parts = append(parts, a.String())
		}
	}
	if len(parts) == 0 {
		return "∅"
	}
	return strings.Join(parts, " ∪ ")
}

// MatchedSet computes the exact set of announced prefixes a prefix list
// permits, honouring first-match-wins ordering and deny entries.
func MatchedSet(pl *netcfg.PrefixList) PrefixSet {
	if pl == nil {
		return nil
	}
	remaining := FullPrefixSet()
	var matched PrefixSet
	for _, e := range pl.Entries {
		eSet := PrefixSet{AtomFromEntry(e)}
		if e.Action == netcfg.Permit {
			matched = matched.Union(remaining.Intersect(eSet))
		}
		remaining = remaining.Subtract(eSet)
	}
	return matched
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
