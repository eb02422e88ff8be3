package symbolic

import (
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/netcfg"
)

// mapCond is a map-based community condition, the reference the
// sorted-slice CommCond is checked against.
type mapCond struct {
	req, forbid map[netcfg.Community]bool
}

func (c mapCond) and(d mapCond) (mapCond, bool) {
	out := mapCond{req: map[netcfg.Community]bool{}, forbid: map[netcfg.Community]bool{}}
	maps.Copy(out.req, c.req)
	maps.Copy(out.req, d.req)
	maps.Copy(out.forbid, c.forbid)
	maps.Copy(out.forbid, d.forbid)
	return out, out.consistent()
}

func (c mapCond) consistent() bool {
	for comm := range c.req {
		if c.forbid[comm] {
			return false
		}
	}
	return true
}

func (c mapCond) holds(comms map[netcfg.Community]bool) bool {
	for comm := range c.req {
		if !comms[comm] {
			return false
		}
	}
	for comm := range c.forbid {
		if comms[comm] {
			return false
		}
	}
	return true
}

func (c mapCond) negations() []mapCond {
	var out []mapCond
	for _, comm := range slices.Sorted(maps.Keys(c.req)) {
		out = append(out, mapCond{forbid: map[netcfg.Community]bool{comm: true}})
	}
	for _, comm := range slices.Sorted(maps.Keys(c.forbid)) {
		out = append(out, mapCond{req: map[netcfg.Community]bool{comm: true}})
	}
	return out
}

func (c mapCond) String() string {
	var parts []string
	for _, comm := range slices.Sorted(maps.Keys(c.req)) {
		parts = append(parts, "+"+comm.String())
	}
	for _, comm := range slices.Sorted(maps.Keys(c.forbid)) {
		parts = append(parts, "-"+comm.String())
	}
	if len(parts) == 0 {
		return "any-community"
	}
	return strings.Join(parts, " ")
}

// sameCond reports whether a slice condition holds exactly the reference's
// literals, in sorted order without duplicates.
func sameCond(c CommCond, m mapCond) bool {
	return slices.Equal(c.Req, slices.Sorted(maps.Keys(m.req))) &&
		slices.Equal(c.Forbid, slices.Sorted(maps.Keys(m.forbid)))
}

// randomConds builds a condition in both forms by conjoining up to five
// random literals over a five-community alphabet, so overlaps and
// contradictions are common.
func randomConds(r *rand.Rand) (CommCond, mapCond) {
	c, m := TrueComm(), mapCond{}
	for range r.Intn(6) {
		comm := netcfg.NewCommunity(100, uint16(r.Intn(5)))
		lit, ref := RequireComm(comm), mapCond{req: map[netcfg.Community]bool{comm: true}}
		if r.Intn(2) == 0 {
			lit, ref = ForbidComm(comm), mapCond{forbid: map[netcfg.Community]bool{comm: true}}
		}
		c, _ = c.And(lit)
		m, _ = m.and(ref)
	}
	return c, m
}

// TestCommCondMatchesMapReference checks And, Consistent, Holds, Negations
// and String of the sorted-slice condition against the map-based
// reference on seeded random conditions, and that And never writes to its
// operands, whose slices the result may share.
func TestCommCondMatchesMapReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := range 2000 {
		a, am := randomConds(r)
		b, bm := randomConds(r)
		if !sameCond(a, am) || !sameCond(b, bm) {
			t.Fatalf("case %d: built %v and %v, reference %v and %v", i, a, b, am, bm)
		}
		aReq, aForbid := slices.Clone(a.Req), slices.Clone(a.Forbid)
		got, ok := a.And(b)
		want, wantOK := am.and(bm)
		if ok != wantOK || !sameCond(got, want) {
			t.Fatalf("case %d: %v AND %v = %v (%v), reference %v (%v)", i, a, b, got, ok, want, wantOK)
		}
		if !slices.Equal(a.Req, aReq) || !slices.Equal(a.Forbid, aForbid) {
			t.Fatalf("case %d: And wrote to its operand %v", i, a)
		}
		if a.Consistent() != am.consistent() {
			t.Fatalf("case %d: Consistent(%v) = %v, reference %v", i, a, a.Consistent(), am.consistent())
		}
		if a.String() != am.String() {
			t.Fatalf("case %d: String %q, reference %q", i, a.String(), am.String())
		}
		negs, wantNegs := a.Negations(), am.negations()
		if len(negs) != len(wantNegs) {
			t.Fatalf("case %d: %d negations of %v, reference %d", i, len(negs), a, len(wantNegs))
		}
		for k := range negs {
			if !sameCond(negs[k], wantNegs[k]) {
				t.Fatalf("case %d: negation %d of %v is %v, reference %v", i, k, a, negs[k], wantNegs[k])
			}
		}
		comms := map[netcfg.Community]bool{}
		for low := range uint16(5) {
			if r.Intn(2) == 0 {
				comms[netcfg.NewCommunity(100, low)] = true
			}
		}
		if a.Holds(comms) != am.holds(comms) {
			t.Fatalf("case %d: %v holds on %v = %v, reference %v", i, a, comms, a.Holds(comms), am.holds(comms))
		}
	}
}
