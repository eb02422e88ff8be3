// Package lightyear substitutes for Lightyear (SIGCOMM'23) in the role the
// paper uses it for: expressing a global policy as *local* per-router
// specifications, verifying each locally (via the Batfish substitute's
// SearchRoutePolicies), and checking that the local specs compose into the
// global no-transit guarantee. Modular verification is what lets the VPP
// loop localize semantic errors "to specific routers and specific route
// maps within those routers" (§4.1).
package lightyear

import (
	"fmt"

	"repro/internal/batfish"
	"repro/internal/netcfg"
	"repro/internal/netgen"
	"repro/internal/topology"
)

// ReqKind classifies a local requirement.
type ReqKind int

// Requirement kinds.
const (
	// IngressAddsCommunity: every route accepted by the policy must carry
	// the community after evaluation.
	IngressAddsCommunity ReqKind = iota
	// EgressDropsCommunity: the policy must deny every route carrying any
	// of the listed communities. One requirement covers one egress
	// route-map: all of a route-map's obligations share its slice, so
	// they are one check, scanned in list order.
	EgressDropsCommunity
	// EgressPermitsClean: the policy must permit routes carrying none of
	// the listed communities.
	EgressPermitsClean
)

// Attachment flow directions for AttachmentRef.
const (
	// DirIn marks an obligation on routes flowing in from the peer.
	DirIn = "in"
	// DirOut marks an obligation on routes flowing out toward the peer.
	DirOut = "out"
)

// AttachmentRef is the per-attachment identity of a requirement: the
// router holding the attachment, the peer whose route flow the obligation
// constrains, and the direction of that flow. It is the unit the spec
// derivation allocates communities and policies for — one ingress-tag and
// one egress-filter obligation family per (router, peer) attachment, not
// per router — which is what admits several external attachments on one
// router. On the paper's hub-centric star the peer is the internal spoke
// standing in for its ISP; everywhere else it is the external ISP itself.
// The zero value marks a requirement built before the attachment model
// (hand-built requirement literals keep working; the verifier never
// dispatches on the identity).
type AttachmentRef struct {
	Router    string `json:"router,omitempty"`
	Peer      string `json:"peer,omitempty"`
	Direction string `json:"direction,omitempty"` // DirIn or DirOut
}

// String renders the identity for keys and diagnostics.
func (a AttachmentRef) String() string {
	arrow := "<-"
	if a.Direction == DirOut {
		arrow = "->"
	}
	return a.Router + arrow + a.Peer
}

// String names the kind as the Go constant does.
func (k ReqKind) String() string {
	switch k {
	case IngressAddsCommunity:
		return "IngressAddsCommunity"
	case EgressDropsCommunity:
		return "EgressDropsCommunity"
	case EgressPermitsClean:
		return "EgressPermitsClean"
	}
	return fmt.Sprintf("ReqKind(%d)", int(k))
}

// Requirement is one locally-checkable obligation on one route policy at
// one attachment point. Router is kept alongside the Attachment identity
// because transcripts, violation phrasings, and the repair loop's
// per-target accounting address configurations by router name.
type Requirement struct {
	Kind   ReqKind
	Router string
	// Attachment is the per-attachment identity (zero on hand-built
	// requirements), omitted from JSON when zero.
	Attachment AttachmentRef `json:",omitzero"`
	Policy     string
	Community  netcfg.Community // for IngressAdds
	// Communities are, for EgressDrops, the communities to drop in scan
	// order and, for EgressPermitsClean, the ones a clean route lacks.
	Communities []netcfg.Community
	// LearnedFrom names, for EgressDrops, the peer each of Communities is
	// learned from; it is rendered into the Description of the one
	// community a violation names.
	LearnedFrom []string `json:",omitempty"`
	// Description is the NL rendering for specs and prompts. An
	// EgressDrops requirement has none of its own: each community gets
	// one when a violation names it (see dropsAt).
	Description string
}

// dropsAt narrows an EgressDropsCommunity requirement to its i-th
// community and renders that community's Description: the requirement a
// violation of that community reports, so its finding key and prompt
// read as those of a one-community obligation.
func (r Requirement) dropsAt(i int) Requirement {
	c := r.Communities[i]
	var from string
	if i < len(r.LearnedFrom) {
		from = r.LearnedFrom[i]
	}
	r.Communities = []netcfg.Community{c}
	r.LearnedFrom = []string{from}
	r.Description = fmt.Sprintf("%s must not export to %s any route carrying community %s (learned from %s).",
		r.Router, r.Attachment.Peer, c, from)
	return r
}

// Violation reports a requirement that does not hold, with a witness route.
type Violation struct {
	Requirement Requirement
	Witness     *netcfg.Route
	// Explanation phrases the violation like the paper's Table 3 semantic
	// error ("The route-map DROP_COMMUNITY permits routes that have the
	// community 100:1. However, they should be denied.").
	Explanation string
}

// String implements fmt.Stringer.
func (v Violation) String() string { return v.Requirement.Router + ": " + v.Explanation }

// NoTransitSpec derives the per-router local specification implementing the
// no-transit policy on a star topology (§4.1): the hub R1 adds a distinct
// community at the ingress from each ISP-facing router and drops routes
// carrying any other router's community at the egress toward each ISP
// router.
//
// Policy naming matches the paper's examples: ADD_COMM_R<i> at ingress and
// FILTER_COMM_OUT_R<i> at egress.
func NoTransitSpec(t *topology.Topology) []Requirement {
	var reqs []Requirement
	hub := t.Router("R1")
	if hub == nil {
		return nil
	}
	var spokes []int
	for i := range t.Routers {
		if t.Routers[i].Name != "R1" {
			spokes = append(spokes, indexOf(t.Routers[i].Name))
		}
	}
	var all []netcfg.Community
	for _, i := range spokes {
		all = append(all, netgen.ISPCommunity(i))
	}
	for _, i := range spokes {
		tag := netgen.ISPCommunity(i)
		// The hub enforces each spoke's attachment, so the attachment
		// identity names the spoke peering the obligation rides on.
		spoke := fmt.Sprintf("R%d", i)
		reqs = append(reqs, Requirement{
			Kind:       IngressAddsCommunity,
			Router:     "R1",
			Attachment: AttachmentRef{Router: "R1", Peer: spoke, Direction: DirIn},
			Policy:     IngressPolicyName(i),
			Community:  tag,
			Description: fmt.Sprintf(
				"Every route R1 accepts from R%d must carry community %s after ingress processing.",
				i, tag),
		})
		drops := Requirement{
			Kind:       EgressDropsCommunity,
			Router:     "R1",
			Attachment: AttachmentRef{Router: "R1", Peer: spoke, Direction: DirOut},
			Policy:     EgressPolicyName(i),
		}
		for _, j := range spokes {
			if j != i {
				drops.Communities = append(drops.Communities, netgen.ISPCommunity(j))
				drops.LearnedFrom = append(drops.LearnedFrom, fmt.Sprintf("R%d", j))
			}
		}
		if len(drops.Communities) > 0 {
			reqs = append(reqs, drops)
		}
		reqs = append(reqs, Requirement{
			Kind:        EgressPermitsClean,
			Router:      "R1",
			Attachment:  AttachmentRef{Router: "R1", Peer: spoke, Direction: DirOut},
			Policy:      EgressPolicyName(i),
			Communities: all,
			Description: fmt.Sprintf(
				"R1 must export to R%d routes that carry no ISP community (customer routes).", i),
		})
	}
	return reqs
}

// IngressPolicyName is the route map R1 applies on routes from Ri.
func IngressPolicyName(i int) string { return fmt.Sprintf("ADD_COMM_R%d", i) }

// EgressPolicyName is the route map R1 applies on routes toward Ri.
func EgressPolicyName(i int) string { return fmt.Sprintf("FILTER_COMM_OUT_R%d", i) }

func indexOf(name string) int {
	var i int
	if _, err := fmt.Sscanf(name, "R%d", &i); err != nil {
		return 0
	}
	return i
}

// Check verifies one requirement against a configuration revision,
// returning a violation with a witness route if it fails. The revision's
// compiled policies are shared by every check of it (see
// batfish.SearchRoutePolicies); a hand-built device is checked as
// &netcfg.Parsed{Device: dev}, wrapped afresh after each edit. An
// EgressDropsCommunity requirement reports its first violated community
// in list order, narrowed to that community (dropsAt); an undefined
// route-map violates its first community. Both egress kinds ask their
// question once, with the communities as values: the drops list is one
// scan of the compiled accept classes (batfish.FirstPermitted), and the
// clean-permit condition one search (batfish.DeniesLacking).
func Check(rev *netcfg.Parsed, req Requirement) (Violation, bool) {
	dev := rev.Device
	pol := dev.RoutePolicies[req.Policy]
	if pol == nil {
		if req.Kind == EgressDropsCommunity && len(req.Communities) > 0 {
			req = req.dropsAt(0)
		}
		return Violation{
			Requirement: req,
			Explanation: fmt.Sprintf("The route-map %s is not defined, so the local policy %q cannot hold.",
				req.Policy, req.Description),
		}, true
	}
	switch req.Kind {
	case IngressAddsCommunity:
		return checkIngressAdds(dev, pol, req)
	case EgressDropsCommunity:
		i, res, err := batfish.FirstPermitted(rev, req.Policy, req.Communities)
		if err == nil && res.Found {
			return Violation{
				Requirement: req.dropsAt(i),
				Witness:     witnessRoute(res),
				Explanation: fmt.Sprintf(
					"The route-map %s permits routes that have the community %s. However, they should be denied.",
					req.Policy, req.Communities[i]),
			}, true
		}
	case EgressPermitsClean:
		res, err := batfish.DeniesLacking(rev, req.Policy, req.Communities)
		if err == nil && res.Found {
			return Violation{
				Requirement: req,
				Witness:     witnessRoute(res),
				Explanation: fmt.Sprintf(
					"The route-map %s denies routes that carry no ISP community (for example %s). "+
						"However, customer routes should be permitted.",
					req.Policy, res.WitnessPrefix),
			}, true
		}
	}
	return Violation{}, false
}

// checkIngressAdds verifies that every accept path of the policy results
// in a route carrying the required community, by applying each accept
// region's transforms to a sample route.
func checkIngressAdds(dev *netcfg.Device, pol *netcfg.RoutePolicy, req Requirement) (Violation, bool) {
	for _, cl := range pol.Clauses {
		if cl.Action != netcfg.Permit {
			continue
		}
		sample := sampleForClause(dev, cl)
		if sample == nil {
			continue
		}
		res := netcfg.EvalPolicy(pol, dev, sample)
		if res.Permitted && !res.Route.HasCommunity(req.Community) {
			return Violation{
				Requirement: req,
				Witness:     sample,
				Explanation: fmt.Sprintf(
					"The route-map %s permits the route %s without adding the community %s. "+
						"Every route accepted at this ingress must carry %s.",
					req.Policy, sample.Prefix, req.Community, req.Community),
			}, true
		}
		// The paper's "Adding Communities" pitfall: a non-additive set
		// wipes existing communities. Check with a pre-tagged route.
		tagged := sample.Clone()
		probe := netcfg.NewCommunity(65000, 999)
		tagged.AddCommunity(probe)
		res = netcfg.EvalPolicy(pol, dev, tagged)
		if res.Permitted && !res.Route.HasCommunity(probe) {
			return Violation{
				Requirement: req,
				Witness:     tagged,
				Explanation: fmt.Sprintf(
					"The route-map %s replaces the communities already present on the route instead of "+
						"adding %s. Use the 'additive' keyword so existing communities are preserved.",
					req.Policy, req.Community),
			}, true
		}
	}
	return Violation{}, false
}

// sampleForClause produces a concrete route matching a clause, or nil.
func sampleForClause(dev *netcfg.Device, cl *netcfg.PolicyClause) *netcfg.Route {
	r := netcfg.NewRoute(netcfg.MustPrefix("150.0.0.0/16"))
	for _, m := range cl.Matches {
		switch m := m.(type) {
		case netcfg.MatchPrefixList:
			pl := dev.PrefixLists[m.List]
			if pl == nil {
				return nil
			}
			for _, e := range pl.Entries {
				if e.Action == netcfg.Permit {
					min, _ := e.Bounds()
					r.Prefix = netcfg.NewPrefix(e.Prefix.Addr, min)
					break
				}
			}
		case netcfg.MatchRouteFilter:
			r.Prefix = netcfg.NewPrefix(m.Prefix.Addr, m.MinLen)
		case netcfg.MatchCommunityList:
			cml := dev.CommunityLists[m.List]
			if cml == nil {
				return nil
			}
			for _, e := range cml.Entries {
				if e.Action == netcfg.Permit {
					r.AddCommunity(e.Community)
					break
				}
			}
		case netcfg.MatchCommunityLiteral:
			r.AddCommunity(m.Community)
		case netcfg.MatchProtocol:
			switch m.Protocol {
			case netcfg.RedistOSPF:
				r.Protocol = netcfg.ProtoOSPF
			case netcfg.RedistConnected:
				r.Protocol = netcfg.ProtoConnected
			case netcfg.RedistStatic:
				r.Protocol = netcfg.ProtoStatic
			default:
				r.Protocol = netcfg.ProtoBGP
			}
		}
	}
	if !clauseAccepts(dev, cl, r) {
		return nil
	}
	return r
}

func clauseAccepts(dev *netcfg.Device, cl *netcfg.PolicyClause, r *netcfg.Route) bool {
	for _, m := range cl.Matches {
		if !netcfg.EvalMatch(m, dev, r) {
			return false
		}
	}
	return true
}

func witnessRoute(res batfish.SearchResult) *netcfg.Route {
	p, err := netcfg.ParsePrefix(res.WitnessPrefix)
	if err != nil {
		p = netcfg.MustPrefix("10.0.0.0/8")
	}
	r := netcfg.NewRoute(p)
	for _, cs := range res.WitnessCommunities {
		if c, err := netcfg.ParseCommunity(cs); err == nil {
			r.AddCommunity(c)
		}
	}
	return r
}

// CheckAll verifies every requirement against the revisions (keyed by
// router name), returning all violations.
func CheckAll(reqs []Requirement, revs map[string]*netcfg.Parsed) []Violation {
	var out []Violation
	for _, req := range reqs {
		rev := revs[req.Router]
		if rev == nil {
			out = append(out, Violation{Requirement: req,
				Explanation: "router " + req.Router + " has no configuration"})
			continue
		}
		if v, bad := Check(rev, req); bad {
			out = append(out, v)
		}
	}
	return out
}

// CoverageComplete is the modular proof obligation: the requirement set
// implies global no-transit iff for every ordered pair of distinct ISP
// attachment points (i, j) there is an ingress-tag requirement at i and
// an egress-drop requirement listing i's tag at j's egress. This is the
// "local policies imply the global one" check the paper attributes to
// Lightyear's proof technique. Star topologies check the paper's
// hub-centric scheme; all other graphs check the attachment-point scheme.
func CoverageComplete(t *topology.Topology, reqs []Requirement) error {
	if !netgen.IsStar(t) {
		return coverageCompleteLocal(t, reqs)
	}
	return coverageCompleteStar(t, reqs)
}

// coverageCompleteLocal checks the attachment-point scheme: each
// attachment tags its own ingress and drops every other attachment's tag
// at its egress.
func coverageCompleteLocal(t *topology.Topology, reqs []Requirement) error {
	type key struct{ router, policy string }
	ingress := map[key]map[netcfg.Community]bool{}
	egress := map[key]map[netcfg.Community]bool{}
	for _, r := range reqs {
		k := key{r.Router, r.Policy}
		switch r.Kind {
		case IngressAddsCommunity:
			if ingress[k] == nil {
				ingress[k] = map[netcfg.Community]bool{}
			}
			ingress[k][r.Community] = true
		case EgressDropsCommunity:
			if egress[k] == nil {
				egress[k] = map[netcfg.Community]bool{}
			}
			for _, c := range r.Communities {
				egress[k][c] = true
			}
		}
	}
	attaches := ISPAttachments(t)
	for _, a := range attaches {
		if !ingress[key{a.Router, a.IngressPolicy()}][a.Community()] {
			return fmt.Errorf("no ingress requirement tags routes from %s with %s at %s",
				a.Peer.PeerName, a.Community(), a.Router)
		}
		for _, b := range attaches {
			if b.Router == a.Router && b.Peer.PeerName == a.Peer.PeerName {
				continue
			}
			if !egress[key{b.Router, b.EgressPolicy()}][a.Community()] {
				return fmt.Errorf("egress to %s at %s does not drop community %s of %s",
					b.Peer.PeerName, b.Router, a.Community(), a.Peer.PeerName)
			}
		}
	}
	return nil
}

// coverageCompleteStar checks the paper's hub-centric scheme.
func coverageCompleteStar(t *topology.Topology, reqs []Requirement) error {
	ingress := map[netcfg.Community]bool{}
	egress := map[string]map[netcfg.Community]bool{}
	for _, r := range reqs {
		switch r.Kind {
		case IngressAddsCommunity:
			ingress[r.Community] = true
		case EgressDropsCommunity:
			if egress[r.Policy] == nil {
				egress[r.Policy] = map[netcfg.Community]bool{}
			}
			for _, c := range r.Communities {
				egress[r.Policy][c] = true
			}
		}
	}
	for i := range t.Routers {
		ri := indexOf(t.Routers[i].Name)
		if t.Routers[i].Name == "R1" {
			continue
		}
		tag := netgen.ISPCommunity(ri)
		if !ingress[tag] {
			return fmt.Errorf("no ingress requirement tags routes from R%d with %s", ri, tag)
		}
		for j := range t.Routers {
			rj := indexOf(t.Routers[j].Name)
			if t.Routers[j].Name == "R1" || ri == rj {
				continue
			}
			if !egress[EgressPolicyName(rj)][tag] {
				return fmt.Errorf("egress to R%d does not drop community %s of R%d", rj, tag, ri)
			}
		}
	}
	return nil
}
