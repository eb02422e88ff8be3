package lightyear

import (
	"strings"
	"testing"

	"repro/internal/netcfg"
	"repro/internal/netgen"
	"repro/internal/topology"
)

func scenarioTopos(t *testing.T) []*topology.Topology {
	t.Helper()
	var out []*topology.Topology
	for _, gen := range []struct {
		make func(int) (*topology.Topology, error)
		n    int
	}{
		{netgen.Star, 7},
		{netgen.Ring, 6},
		{netgen.FullMesh, 5},
		{netgen.FatTree, 4},
		{netgen.DualHomed, 5},
		{netgen.MultiCustomer, 6},
		{netgen.Random, 10},
	} {
		topo, err := gen.make(gen.n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, topo)
	}
	return out
}

// TestSpecForCoverageComplete is the modular proof obligation on every
// scenario: the derived local specification must imply the global
// no-transit policy (for every ordered pair of ISP attachment points the
// tag is added at one and dropped at the other).
func TestSpecForCoverageComplete(t *testing.T) {
	for _, topo := range scenarioTopos(t) {
		if err := CoverageComplete(topo, SpecFor(topo)); err != nil {
			t.Errorf("%s: coverage incomplete: %v", topo.Name, err)
		}
	}
}

// TestSpecForDispatch pins the spec-derivation split: stars keep the
// paper's hub-centric requirements on R1; other graphs place requirements
// at the ISP attachment points only.
func TestSpecForDispatch(t *testing.T) {
	star, _ := netgen.Star(5)
	for _, r := range SpecFor(star) {
		if r.Router != "R1" {
			t.Errorf("star requirement on %s, want all on the hub R1", r.Router)
		}
	}

	ring, _ := netgen.Ring(5)
	reqs := SpecFor(ring)
	byRouter := map[string]int{}
	for _, r := range reqs {
		byRouter[r.Router]++
		if !strings.Contains(r.Policy, "ISP") {
			t.Errorf("ring policy %q should be named after the ISP peer", r.Policy)
		}
	}
	if byRouter["R1"] != 0 {
		t.Errorf("R1 has %d requirements, want 0 (customer attachment only)", byRouter["R1"])
	}
	for _, router := range []string{"R2", "R3", "R4", "R5"} {
		// One ingress, one egress-drop (of the three other ISPs'
		// communities), one clean.
		if byRouter[router] != 3 {
			t.Errorf("%s has %d requirements, want 3", router, byRouter[router])
		}
	}
}

// TestCoverageIncompleteDetected removes one egress-drop requirement and
// expects the proof obligation to fail.
func TestCoverageIncompleteDetected(t *testing.T) {
	for _, topo := range scenarioTopos(t) {
		reqs := SpecFor(topo)
		var pruned []Requirement
		dropped := false
		for _, r := range reqs {
			if !dropped && r.Kind == EgressDropsCommunity {
				dropped = true
				continue
			}
			pruned = append(pruned, r)
		}
		if !dropped {
			t.Fatalf("%s: no egress-drop requirement to prune", topo.Name)
		}
		if err := CoverageComplete(topo, pruned); err == nil {
			t.Errorf("%s: pruned spec should be incomplete", topo.Name)
		}
	}
}

// TestSingleAttachmentNeedsNoEgressFilter: with one ISP there is no
// transit to prevent, so the spec must not require an egress route-map
// the modularizer never prompts for (an undefined route-map would be an
// unfixable violation). fat-tree k=2 is the minimal such topology.
func TestSingleAttachmentNeedsNoEgressFilter(t *testing.T) {
	topo, err := netgen.FatTree(2)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ISPAttachments(topo)); got != 1 {
		t.Fatalf("attachments = %d, want 1", got)
	}
	for _, r := range SpecFor(topo) {
		if r.Kind != IngressAddsCommunity {
			t.Errorf("single-ISP topology has non-ingress requirement %+v", r)
		}
	}
	if err := CoverageComplete(topo, SpecFor(topo)); err != nil {
		t.Errorf("coverage: %v", err)
	}
}

// TestHandBuiltNamesGetDistinctTags: a hand-built dictionary whose
// routers are not named R<i> must still derive one distinct community
// per ISP (keyed on the peer AS), not collide on index 0.
func TestHandBuiltNamesGetDistinctTags(t *testing.T) {
	topo := &topology.Topology{Name: "custom", Routers: []topology.RouterSpec{
		{Name: "edge-west", ASN: 1, Neighbors: []topology.NeighborSpec{
			{PeerName: "ISP-A", PeerIP: "20.1.0.2", PeerAS: 300, External: true},
			{PeerName: "edge-east", PeerIP: "10.1.2.2", PeerAS: 2},
		}},
		{Name: "edge-east", ASN: 2, Neighbors: []topology.NeighborSpec{
			{PeerName: "ISP-B", PeerIP: "20.2.0.2", PeerAS: 301, External: true},
			{PeerName: "edge-west", PeerIP: "10.1.2.1", PeerAS: 1},
		}},
	}}
	atts := ISPAttachments(topo)
	if len(atts) != 2 {
		t.Fatalf("attachments = %d, want 2", len(atts))
	}
	if atts[0].Community() == atts[1].Community() {
		t.Errorf("tags collide: both %s", atts[0].Community())
	}
	if err := CoverageComplete(topo, SpecFor(topo)); err != nil {
		t.Errorf("coverage: %v", err)
	}
}

// TestDualHomedSpecDerivation is the per-attachment acceptance test: two
// ISPs homed on one router must get distinct communities and distinct
// ingress/egress policies, each obligation carrying its own attachment
// identity, and the egress of each attachment must drop the *other
// same-router* attachment's tag — the no-transit pair the per-router
// model could not express.
func TestDualHomedSpecDerivation(t *testing.T) {
	topo, err := netgen.DualHomed(4)
	if err != nil {
		t.Fatal(err)
	}
	atts := ISPAttachments(topo)
	if len(atts) != 6 {
		t.Fatalf("attachments = %d, want 6", len(atts))
	}
	// R2 holds attachments 1 and 2.
	var r2 []Attachment
	for _, a := range atts {
		if a.Router == "R2" {
			r2 = append(r2, a)
		}
	}
	if len(r2) != 2 {
		t.Fatalf("R2 attachments = %d, want 2", len(r2))
	}
	if r2[0].Community() == r2[1].Community() {
		t.Errorf("same-router attachments share the tag %s", r2[0].Community())
	}
	if r2[0].Community() != netgen.AttachmentCommunity(1) ||
		r2[1].Community() != netgen.AttachmentCommunity(2) {
		t.Errorf("tags = %s / %s, want the ordinal-keyed pair %s / %s",
			r2[0].Community(), r2[1].Community(),
			netgen.AttachmentCommunity(1), netgen.AttachmentCommunity(2))
	}
	if r2[0].IngressPolicy() == r2[1].IngressPolicy() ||
		r2[0].EgressPolicy() == r2[1].EgressPolicy() {
		t.Errorf("same-router attachments share policies: %s/%s and %s/%s",
			r2[0].IngressPolicy(), r2[0].EgressPolicy(),
			r2[1].IngressPolicy(), r2[1].EgressPolicy())
	}

	reqs := SpecFor(topo)
	// Each attachment gets its own ingress-tag obligation with its own
	// identity.
	ingressByRef := map[AttachmentRef]netcfg.Community{}
	for _, r := range reqs {
		if r.Kind == IngressAddsCommunity {
			if r.Attachment == (AttachmentRef{}) {
				t.Errorf("requirement %q lacks an attachment identity", r.Description)
			}
			ingressByRef[r.Attachment] = r.Community
		}
	}
	if len(ingressByRef) != len(atts) {
		t.Errorf("ingress obligations = %d, want one per attachment (%d)",
			len(ingressByRef), len(atts))
	}
	// The egress of R2's first attachment must drop the second's tag.
	found := false
	for _, r := range reqs {
		if r.Kind != EgressDropsCommunity || r.Attachment != r2[0].Ref(DirOut) {
			continue
		}
		for k, c := range r.Communities {
			if c == r2[1].Community() && r.LearnedFrom[k] == r2[1].Peer.PeerName {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no egress obligation drops the same-router sibling tag %s at %s",
			r2[1].Community(), r2[0].EgressPolicy())
	}
	if err := CoverageComplete(topo, reqs); err != nil {
		t.Errorf("coverage: %v", err)
	}
}

// TestAttachmentDerivation pins the attachment collection: topology
// order, one attachment per ISP-facing router, customers excluded.
func TestAttachmentDerivation(t *testing.T) {
	ring, _ := netgen.Ring(4)
	atts := ISPAttachments(ring)
	if len(atts) != 3 {
		t.Fatalf("attachments = %d, want 3", len(atts))
	}
	for i, want := range []string{"R2", "R3", "R4"} {
		if atts[i].Router != want {
			t.Errorf("attachment[%d] = %s, want %s", i, atts[i].Router, want)
		}
	}
	a := atts[0]
	if a.IngressPolicy() != "ADD_COMM_ISP2" || a.EgressPolicy() != "FILTER_COMM_OUT_ISP2" {
		t.Errorf("policy names = %s / %s", a.IngressPolicy(), a.EgressPolicy())
	}
	if a.Community() != netgen.ISPCommunity(2) {
		t.Errorf("community = %s", a.Community())
	}
}
