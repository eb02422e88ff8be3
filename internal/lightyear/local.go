package lightyear

import (
	"fmt"

	"repro/internal/netcfg"
	"repro/internal/netgen"
	"repro/internal/topology"
)

// Attachment is one ISP attachment point: a (router, external neighbor)
// pair. On non-star topologies the no-transit policy is enforced at the
// attachment points — each tags at its ISP ingress and filters at its ISP
// egress — instead of at a central hub, since transit routes may cross
// arbitrarily many internal hops. Community tags, policy names, and
// requirement identities are all keyed on the attachment, never the
// router alone, so a router may hold any number of attachments
// (dual-homing) without the tags colliding.
type Attachment struct {
	// Router is the attaching router's name (R<Index> for generated
	// topologies; hand-built dictionaries may use any name).
	Router string
	// Index is the router's numeric index (0 when the name is not of the
	// generators' R<i> form), which keys the community tag for legacy
	// single-attachment topologies whose neighbors carry no attachment
	// ordinal.
	Index int
	// Peer is the external ISP neighbor; its Attachment ordinal, when
	// set, keys the community tag.
	Peer topology.NeighborSpec
}

// Community returns the tag this attachment point adds at ingress, in
// precedence order:
//
//  1. the attachment-ordinal scheme when the neighbor spec declares a
//     first-class attachment ordinal — one distinct tag per attachment,
//     however many share a router;
//  2. the generators' legacy router-index scheme for R<i> routers with
//     implicit single attachments;
//  3. the ISP's AS number otherwise — so hand-built topologies with
//     arbitrary router names still get one distinct tag per ISP (ISP AS
//     numbers are unique in any sane dictionary) instead of all colliding
//     on index 0.
func (a Attachment) Community() netcfg.Community {
	switch {
	case a.Peer.Attachment > 0:
		return netgen.AttachmentCommunity(a.Peer.Attachment)
	case a.Index > 0:
		return netgen.ISPCommunity(a.Index)
	default:
		return netcfg.NewCommunity(uint16(a.Peer.PeerAS), 1)
	}
}

// IngressPolicy names the route map applied on routes from the ISP. Peer
// names are unique per attachment (ISP<ordinal> on attachment-keyed
// topologies), so dual-homed routers get one ingress policy per ISP.
func (a Attachment) IngressPolicy() string { return "ADD_COMM_" + a.Peer.PeerName }

// EgressPolicy names the route map applied on routes toward the ISP.
func (a Attachment) EgressPolicy() string { return "FILTER_COMM_OUT_" + a.Peer.PeerName }

// Ref returns the attachment's requirement identity for one direction.
func (a Attachment) Ref(direction string) AttachmentRef {
	return AttachmentRef{Router: a.Router, Peer: a.Peer.PeerName, Direction: direction}
}

// ISPAttachments collects the ISP attachment points of a topology in
// topology order: every external neighbor that is not a customer network,
// via the dictionary's first-class attachment listing.
func ISPAttachments(t *topology.Topology) []Attachment {
	var out []Attachment
	for _, ap := range t.ExternalAttachments() {
		if !netgen.IsCustomerPeer(ap.Peer.PeerName) {
			out = append(out, Attachment{Router: ap.Router, Index: indexOf(ap.Router), Peer: ap.Peer})
		}
	}
	return out
}

// SpecFor derives the per-router local no-transit specification for any
// topology: the paper's hub-centric specification for stars (§4.1,
// byte-compatible with the seed), the attachment-point specification for
// every other graph.
func SpecFor(t *topology.Topology) []Requirement {
	if netgen.IsStar(t) {
		return NoTransitSpec(t)
	}
	return LocalNoTransitSpec(t)
}

// LocalNoTransitSpec derives the attachment-point local specification of
// the no-transit policy for an arbitrary topology: every ISP attachment
// tags incoming routes with its own community at ingress, and at egress
// denies routes carrying any other attachment's community while
// permitting untagged (customer) routes: three requirements per
// attachment, one of them dropping every other attachment's community.
// Because the BGP simulation propagates communities across internal
// hops, the local obligations compose into the global no-transit
// guarantee on any graph.
func LocalNoTransitSpec(t *topology.Topology) []Requirement {
	attaches := ISPAttachments(t)
	var all []netcfg.Community
	for _, a := range attaches {
		all = append(all, a.Community())
	}
	var reqs []Requirement
	for _, a := range attaches {
		tag := a.Community()
		reqs = append(reqs, Requirement{
			Kind:       IngressAddsCommunity,
			Router:     a.Router,
			Attachment: a.Ref(DirIn),
			Policy:     a.IngressPolicy(),
			Community:  tag,
			Description: fmt.Sprintf(
				"Every route %s accepts from %s must carry community %s after ingress processing.",
				a.Router, a.Peer.PeerName, tag),
		})
		drops := Requirement{
			Kind:        EgressDropsCommunity,
			Router:      a.Router,
			Attachment:  a.Ref(DirOut),
			Policy:      a.EgressPolicy(),
			Communities: make([]netcfg.Community, 0, len(attaches)-1),
			LearnedFrom: make([]string, 0, len(attaches)-1),
		}
		for k, b := range attaches {
			// b ranges over every *other attachment*, including a second
			// ISP on the same router: the no-transit pair between two
			// ISPs homed on one router is enforced by this same egress
			// obligation.
			if b.Router == a.Router && b.Peer.PeerName == a.Peer.PeerName {
				continue
			}
			drops.Communities = append(drops.Communities, all[k])
			drops.LearnedFrom = append(drops.LearnedFrom, b.Peer.PeerName)
		}
		// A lone attachment has no transit to prevent, so no egress filter
		// is prompted for — and none must be required, or the undefined
		// route-map would be an unfixable violation (the modularizer emits
		// the egress sentence only when there is something to filter).
		if len(drops.Communities) > 0 {
			reqs = append(reqs, drops, Requirement{
				Kind:        EgressPermitsClean,
				Router:      a.Router,
				Attachment:  a.Ref(DirOut),
				Policy:      a.EgressPolicy(),
				Communities: all,
				Description: fmt.Sprintf(
					"%s must export to %s routes that carry no ISP community (customer routes).",
					a.Router, a.Peer.PeerName),
			})
		}
	}
	return reqs
}
