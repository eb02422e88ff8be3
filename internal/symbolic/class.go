package symbolic

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/netcfg"
)

// CommCond is a conjunction of community constraints: every community in
// Req must be present on the route, every community in Forbid absent.
// Both slices are sorted and duplicate-free, and no slice is written after
// the condition that owns it is built, so conditions share them freely:
// And hands back an operand's slice when the other side adds nothing.
type CommCond struct {
	Req    []netcfg.Community
	Forbid []netcfg.Community
}

// TrueComm is the unconstrained community condition.
func TrueComm() CommCond { return CommCond{} }

// RequireComm returns a condition requiring a single community.
func RequireComm(c netcfg.Community) CommCond {
	return CommCond{Req: []netcfg.Community{c}}
}

// ForbidComm returns a condition forbidding a single community.
func ForbidComm(c netcfg.Community) CommCond {
	return CommCond{Forbid: []netcfg.Community{c}}
}

// Consistent reports whether the condition is satisfiable: no community is
// both required and forbidden. It is one merge-style scan of the two
// sorted slices.
func (c CommCond) Consistent() bool {
	i, j := 0, 0
	for i < len(c.Req) && j < len(c.Forbid) {
		switch {
		case c.Req[i] < c.Forbid[j]:
			i++
		case c.Req[i] > c.Forbid[j]:
			j++
		default:
			return false
		}
	}
	return true
}

// And conjoins two conditions; ok=false when the result is unsatisfiable.
func (c CommCond) And(d CommCond) (CommCond, bool) {
	out := CommCond{Req: mergeComms(c.Req, d.Req), Forbid: mergeComms(c.Forbid, d.Forbid)}
	return out, out.Consistent()
}

// insertComm returns the sorted, duplicate-free slice s with x added: s
// itself when it holds x, else a new slice one longer, so s is never
// written. It is mergeComms(s, []netcfg.Community{x}) with one allocation.
func insertComm(s []netcfg.Community, x netcfg.Community) []netcfg.Community {
	i, found := slices.BinarySearch(s, x)
	if found {
		return s
	}
	out := make([]netcfg.Community, len(s)+1)
	copy(out, s[:i])
	out[i] = x
	copy(out[i+1:], s[i:])
	return out
}

// mergeComms returns the sorted union of two sorted, duplicate-free
// slices. When one side is empty the other is returned as is.
func mergeComms(a, b []netcfg.Community) []netcfg.Community {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]netcfg.Community, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// Negations returns the disjuncts of ¬c: one single-literal condition per
// literal in c, negated.
func (c CommCond) Negations() []CommCond {
	out := make([]CommCond, 0, len(c.Req)+len(c.Forbid))
	for _, comm := range c.Req {
		out = append(out, ForbidComm(comm))
	}
	for _, comm := range c.Forbid {
		out = append(out, RequireComm(comm))
	}
	return out
}

// Holds evaluates the condition on a concrete community set.
func (c CommCond) Holds(comms map[netcfg.Community]bool) bool {
	for _, comm := range c.Req {
		if !comms[comm] {
			return false
		}
	}
	for _, comm := range c.Forbid {
		if comms[comm] {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer.
func (c CommCond) String() string {
	var parts []string
	for _, comm := range c.Req {
		parts = append(parts, "+"+comm.String())
	}
	for _, comm := range c.Forbid {
		parts = append(parts, "-"+comm.String())
	}
	if len(parts) == 0 {
		return "any-community"
	}
	return strings.Join(parts, " ")
}

// ProtoMask is a bitmask over route protocols.
type ProtoMask uint8

// Per-protocol mask bits.
const (
	MaskConnected ProtoMask = 1 << iota
	MaskStatic
	MaskOSPF
	MaskBGP
	MaskAll = MaskConnected | MaskStatic | MaskOSPF | MaskBGP
)

// MaskOf returns the mask bit for a redistribution protocol.
func MaskOf(p netcfg.RedistProtocol) ProtoMask {
	switch p {
	case netcfg.RedistConnected:
		return MaskConnected
	case netcfg.RedistStatic:
		return MaskStatic
	case netcfg.RedistOSPF:
		return MaskOSPF
	default:
		return MaskBGP
	}
}

// Protocols enumerates the protocols in the mask.
func (m ProtoMask) Protocols() []netcfg.RouteProtocol {
	var out []netcfg.RouteProtocol
	if m&MaskConnected != 0 {
		out = append(out, netcfg.ProtoConnected)
	}
	if m&MaskStatic != 0 {
		out = append(out, netcfg.ProtoStatic)
	}
	if m&MaskOSPF != 0 {
		out = append(out, netcfg.ProtoOSPF)
	}
	if m&MaskBGP != 0 {
		out = append(out, netcfg.ProtoBGP)
	}
	return out
}

// String implements fmt.Stringer.
func (m ProtoMask) String() string {
	if m == MaskAll {
		return "any-protocol"
	}
	var parts []string
	for _, p := range m.Protocols() {
		parts = append(parts, p.String())
	}
	if len(parts) == 0 {
		return "no-protocol"
	}
	return strings.Join(parts, "|")
}

// Class is a symbolic set of routes: a prefix set × a community condition
// × a protocol mask.
type Class struct {
	Prefixes PrefixSet
	Comms    CommCond
	Protos   ProtoMask
}

// FullClass matches every route.
func FullClass() Class {
	return Class{Prefixes: FullPrefixSet(), Comms: TrueComm(), Protos: MaskAll}
}

// Empty reports whether the class matches no route.
func (c Class) Empty() bool {
	return c.Prefixes.Empty() || !c.Comms.Consistent() || c.Protos == 0
}

// Contains evaluates membership of a concrete route.
func (c Class) Contains(r *netcfg.Route) bool {
	return c.Prefixes.Contains(r.Prefix) && c.Comms.Holds(r.Communities) &&
		c.Protos&MaskOf(r.Protocol.RedistSource()) != 0
}

// Sample produces a concrete route from the class: the minimal prefix,
// exactly the required communities, and the first allowed protocol.
func (c Class) Sample() (*netcfg.Route, bool) {
	if c.Empty() {
		return nil, false
	}
	p, ok := c.Prefixes.Sample()
	if !ok {
		return nil, false
	}
	r := netcfg.NewRoute(p)
	for _, comm := range c.Comms.Req {
		r.AddCommunity(comm)
	}
	protos := c.Protos.Protocols()
	// Prefer BGP samples when allowed: they are valid inputs to every
	// policy attachment point.
	r.Protocol = protos[0]
	for _, pr := range protos {
		if pr == netcfg.ProtoBGP {
			r.Protocol = pr
		}
	}
	return r, true
}

// String implements fmt.Stringer.
func (c Class) String() string {
	return fmt.Sprintf("{%s; %s; %s}", c.Prefixes, c.Comms, c.Protos)
}

// Intersect returns c ∩ d.
func (c Class) Intersect(d Class) Class {
	comms, ok := c.Comms.And(d.Comms)
	if !ok {
		return Class{}
	}
	return Class{
		Prefixes: c.Prefixes.Intersect(d.Prefixes),
		Comms:    comms,
		Protos:   c.Protos & d.Protos,
	}
}

// Subtract returns c \ d as a union of classes.
func (c Class) Subtract(d Class) Space {
	if c.Empty() {
		return nil
	}
	if d.Empty() {
		return Space{c}
	}
	var out Space
	// Routes in c whose prefix is outside d's prefixes. When d admits
	// every prefix there are none, and the shared prefix region is c's
	// own: the full atom's intersection leaves an in-range atom as it is.
	inter := c.Prefixes
	if !d.Prefixes.full() {
		if ps := c.Prefixes.Subtract(d.Prefixes); !ps.Empty() {
			out = append(out, Class{Prefixes: ps, Comms: c.Comms, Protos: c.Protos})
		}
		inter = c.Prefixes.Intersect(d.Prefixes)
		if inter.Empty() {
			return out
		}
	}
	// Routes in the shared prefix region violating d's community
	// condition: one class per literal of d, negated, skipped when c
	// already holds the literal itself (c.Comms.And(neg) would fail).
	for _, comm := range d.Comms.Req {
		if _, conflict := slices.BinarySearch(c.Comms.Req, comm); !conflict {
			comms := CommCond{Req: c.Comms.Req, Forbid: insertComm(c.Comms.Forbid, comm)}
			out = append(out, Class{Prefixes: inter, Comms: comms, Protos: c.Protos})
		}
	}
	for _, comm := range d.Comms.Forbid {
		if _, conflict := slices.BinarySearch(c.Comms.Forbid, comm); !conflict {
			comms := CommCond{Req: insertComm(c.Comms.Req, comm), Forbid: c.Comms.Forbid}
			out = append(out, Class{Prefixes: inter, Comms: comms, Protos: c.Protos})
		}
	}
	// Routes in the shared prefix region satisfying both community
	// conditions but outside d's protocols.
	if protos := c.Protos &^ d.Protos; protos != 0 {
		if both, ok := c.Comms.And(d.Comms); ok {
			out = append(out, Class{Prefixes: inter, Comms: both, Protos: protos})
		}
	}
	return out
}

// Space is a union of classes.
type Space []Class

// FullSpace matches every route.
func FullSpace() Space { return Space{FullClass()} }

// Empty reports whether the space matches no route.
func (s Space) Empty() bool {
	for _, c := range s {
		if !c.Empty() {
			return false
		}
	}
	return true
}

// Contains evaluates membership of a concrete route.
func (s Space) Contains(r *netcfg.Route) bool {
	for _, c := range s {
		if c.Contains(r) {
			return true
		}
	}
	return false
}

// Sample produces a concrete route from the space.
func (s Space) Sample() (*netcfg.Route, bool) {
	for _, c := range s {
		if r, ok := c.Sample(); ok {
			return r, true
		}
	}
	return nil, false
}

// Union returns s ∪ t.
func (s Space) Union(t Space) Space {
	out := make(Space, 0, len(s)+len(t))
	for _, c := range s {
		if !c.Empty() {
			out = append(out, c)
		}
	}
	for _, c := range t {
		if !c.Empty() {
			out = append(out, c)
		}
	}
	return out
}

// Intersect returns s ∩ t.
func (s Space) Intersect(t Space) Space {
	var out Space
	for _, a := range s {
		for _, b := range t {
			if i := a.Intersect(b); !i.Empty() {
				out = append(out, i)
			}
		}
	}
	return out
}

// Subtract returns s \ t. A space whose classes are all non-empty is
// not copied, and subtracting from a single class returns that class's
// own difference.
func (s Space) Subtract(t Space) Space {
	cur := s
	for _, c := range s {
		if c.Empty() {
			cur = s.Union(nil) // drops the empty classes
			break
		}
	}
	for _, b := range t {
		if b.Empty() {
			continue
		}
		if len(cur) == 1 {
			cur = cur[0].Subtract(b)
			continue
		}
		var next Space
		for _, a := range cur {
			next = append(next, a.Subtract(b)...)
		}
		cur = next
	}
	return cur
}
