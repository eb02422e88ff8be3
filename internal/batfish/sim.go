package batfish

import (
	"fmt"
	"sort"

	"repro/internal/netcfg"
)

// Sim is the BGP control-plane simulator: the paper's final global check
// ("we simulate the entire BGP communication using Batfish as a final
// step, in order to ensure that the global policy is satisfied", §4.1).
//
// The model: every configured device and every external stub is a BGP
// speaker; eBGP sessions form between speakers that declare each other;
// announcements flow through the sender's export route map and the
// receiver's import route map; AS-path loop detection drops looped routes;
// best-path selection is local-pref, then AS-path length, then MED, then
// lowest peer address. Propagation iterates to a fixpoint.
type Sim struct {
	nodes   map[string]*simNode
	byAddr  map[uint32]*simNode
	maxIter int
}

type simNode struct {
	name     string
	asn      uint32
	external bool
	dev      *netcfg.Device // nil for external stubs
	addrs    []uint32
	origin   []*netcfg.Route // self-originated routes

	// rib maps prefix -> selected best candidate.
	rib map[netcfg.Prefix]*candidate
	// sessions to peers.
	sessions []*session
}

type candidate struct {
	route *netcfg.Route
	from  string // peer node name ("" = originated locally)
}

type session struct {
	peer      *simNode
	peerAddr  uint32 // address we dial (for policy lookup on our side)
	localAddr uint32
	exportPol *netcfg.RoutePolicy
	importPol *netcfg.RoutePolicy
	envExport netcfg.PolicyEnv
	envImport netcfg.PolicyEnv
}

// NewSim returns an empty simulator.
func NewSim() *Sim {
	return &Sim{nodes: map[string]*simNode{}, byAddr: map[uint32]*simNode{}, maxIter: 64}
}

// AddDevice adds a configured router. Its interface addresses become
// dialable endpoints and its BGP network statements become originated
// routes.
func (s *Sim) AddDevice(name string, dev *netcfg.Device) error {
	if _, dup := s.nodes[name]; dup {
		return fmt.Errorf("duplicate node %s", name)
	}
	n := &simNode{name: name, dev: dev, rib: map[netcfg.Prefix]*candidate{}}
	if dev.BGP != nil {
		n.asn = dev.BGP.ASN
		for _, p := range dev.BGP.Networks {
			r := netcfg.NewRoute(p)
			r.Protocol = netcfg.ProtoBGP
			n.origin = append(n.origin, r)
		}
	}
	for _, ifc := range dev.Interfaces {
		if ifc.HasAddress && !ifc.Shutdown {
			n.addrs = append(n.addrs, ifc.Address.Addr)
			s.byAddr[ifc.Address.Addr] = n
		}
	}
	s.nodes[name] = n
	return nil
}

// AddExternal adds an unconfigured stub speaker (an ISP or customer): it
// originates the given prefixes, accepts everything, and filters nothing.
func (s *Sim) AddExternal(name string, addr uint32, asn uint32, originates []netcfg.Prefix) error {
	if _, dup := s.nodes[name]; dup {
		return fmt.Errorf("duplicate node %s", name)
	}
	n := &simNode{name: name, asn: asn, external: true, rib: map[netcfg.Prefix]*candidate{}}
	n.addrs = append(n.addrs, addr)
	s.byAddr[addr] = n
	for _, p := range originates {
		r := netcfg.NewRoute(p)
		n.origin = append(n.origin, r)
	}
	s.nodes[name] = n
	return nil
}

// connect resolves sessions. A device-device session requires both sides
// to declare each other; a device-external session requires the device to
// declare the external stub's address. A router with no usable interface
// address opens no session: nothing could reach it, so its neighbor
// declarations stay down and the verdict reports the lost reachability.
func (s *Sim) connect() {
	for _, n := range s.nodes {
		n.sessions = nil
	}
	names := s.nodeNames()
	for _, name := range names {
		n := s.nodes[name]
		if n.dev == nil || n.dev.BGP == nil || len(n.addrs) == 0 {
			continue
		}
		for _, nb := range n.dev.BGP.Neighbors {
			peer := s.byAddr[nb.Addr]
			if peer == nil || peer == n {
				continue
			}
			if !peer.external && !declares(peer, n) {
				continue // one-sided peering never comes up
			}
			sess := &session{
				peer:      peer,
				peerAddr:  nb.Addr,
				exportPol: n.dev.RoutePolicies[nb.ExportPolicy],
				importPol: n.dev.RoutePolicies[nb.ImportPolicy],
				envExport: n.dev,
				envImport: n.dev,
			}
			if nb.ExportPolicy != "" && sess.exportPol == nil {
				// Undefined policy: announce nothing (fail closed).
				sess.exportPol = &netcfg.RoutePolicy{Name: nb.ExportPolicy,
					Clauses: []*netcfg.PolicyClause{{Seq: 10, Action: netcfg.Deny}}}
			}
			if nb.ImportPolicy != "" && sess.importPol == nil {
				sess.importPol = &netcfg.RoutePolicy{Name: nb.ImportPolicy,
					Clauses: []*netcfg.PolicyClause{{Seq: 10, Action: netcfg.Deny}}}
			}
			n.sessions = append(n.sessions, sess)
			// External stubs get a mirror session (accept-all).
			if peer.external {
				peer.sessions = append(peer.sessions, &session{peer: n, peerAddr: n.addrs[0]})
			}
		}
	}
	// Deduplicate external mirror sessions.
	for _, n := range s.nodes {
		if !n.external {
			continue
		}
		seen := map[string]bool{}
		var uniq []*session
		for _, sess := range n.sessions {
			if !seen[sess.peer.name] {
				seen[sess.peer.name] = true
				uniq = append(uniq, sess)
			}
		}
		n.sessions = uniq
	}
}

func declares(n *simNode, peer *simNode) bool {
	if n.dev == nil || n.dev.BGP == nil {
		return true
	}
	for _, nb := range n.dev.BGP.Neighbors {
		for _, a := range peer.addrs {
			if nb.Addr == a {
				return true
			}
		}
	}
	return false
}

// Result holds the converged state.
type Result struct {
	// RIB maps node -> prefix -> best route (post-import attributes).
	RIB map[string]map[netcfg.Prefix]*netcfg.Route
	// Iterations is the number of propagation rounds to convergence.
	Iterations int
	// Converged is false if maxIter was hit (a propagation oscillation).
	Converged bool
}

// Run propagates announcements to a fixpoint and returns per-node RIBs.
func (s *Sim) Run() *Result {
	s.connect()
	// Install originated routes.
	for _, n := range s.nodes {
		n.rib = map[netcfg.Prefix]*candidate{}
		for _, r := range n.origin {
			n.rib[r.Prefix] = &candidate{route: r.Clone(), from: ""}
		}
	}
	iter := 0
	converged := false
	for ; iter < s.maxIter; iter++ {
		if !s.step() {
			converged = true
			break
		}
	}
	res := &Result{RIB: map[string]map[netcfg.Prefix]*netcfg.Route{}, Iterations: iter, Converged: converged}
	for name, n := range s.nodes {
		ribs := map[netcfg.Prefix]*netcfg.Route{}
		for p, c := range n.rib {
			ribs[p] = c.route.Clone()
		}
		res.RIB[name] = ribs
	}
	return res
}

// step performs one synchronous propagation round; it reports whether
// any node's RIB changed (false once the round reached a fixpoint).
func (s *Sim) step() bool {
	type incoming struct {
		to    *simNode
		from  *simNode
		route *netcfg.Route
	}
	var inbox []incoming
	for _, name := range s.nodeNames() {
		n := s.nodes[name]
		if len(n.sessions) == 0 {
			continue
		}
		// One sort per node per round: every session announces the same
		// round-start RIB.
		prefixes := sortedPrefixes(n.rib)
		for _, sess := range n.sessions {
			sess := sess
			announce(n, sess, prefixes, func(r *netcfg.Route) {
				inbox = append(inbox, incoming{to: sess.peer, from: n, route: r})
			})
		}
	}
	changed := false
	for _, msg := range inbox {
		if deliver(msg.to, msg.from, msg.route) {
			changed = true
		}
	}
	return changed
}

// announce generates the routes node n offers on one session from its
// round-start RIB, in sorted prefix order, calling emit for each route
// that survives split horizon and the export policy.
func announce(n *simNode, sess *session, prefixes []netcfg.Prefix, emit func(*netcfg.Route)) {
	for _, p := range prefixes {
		c := n.rib[p]
		// Split horizon: do not send a route back to the peer that
		// supplied it.
		if c.from == sess.peer.name {
			continue
		}
		out := c.route.Clone()
		if !n.external && sess.exportPol != nil {
			res := netcfg.EvalPolicy(sess.exportPol, sess.envExport, out)
			if !res.Permitted {
				continue
			}
			out = res.Route
		}
		// eBGP: prepend sender AS, reset local preference.
		out.ASPath = append([]uint32{n.asn}, out.ASPath...)
		out.LocalPref = 100
		emit(out)
	}
}

// deliver processes one incoming announcement against the receiver's RIB
// — loop detection, import policy, best-path selection — and reports
// whether the RIB changed.
func deliver(to *simNode, from *simNode, r *netcfg.Route) bool {
	// AS-path loop detection.
	if to.asn != 0 && r.HasASInPath(to.asn) {
		return false
	}
	if !to.external {
		if sess := to.sessionTo(from); sess != nil && sess.importPol != nil {
			res := netcfg.EvalPolicy(sess.importPol, sess.envImport, r)
			if !res.Permitted {
				return false
			}
			r = res.Route
		}
	}
	cur := to.rib[r.Prefix]
	if cur != nil && cur.from == "" {
		return false // locally originated always wins
	}
	cand := &candidate{route: r, from: from.name}
	if cur == nil || better(cand, cur) {
		if cur == nil || !routesEqual(cur.route, cand.route) || cur.from != cand.from {
			to.rib[r.Prefix] = cand
			return true
		}
	}
	return false
}

func (n *simNode) sessionTo(peer *simNode) *session {
	for _, sess := range n.sessions {
		if sess.peer == peer {
			return sess
		}
	}
	return nil
}

// better implements BGP best-path comparison between a new candidate and
// the incumbent.
func better(a, b *candidate) bool {
	if a.route.LocalPref != b.route.LocalPref {
		return a.route.LocalPref > b.route.LocalPref
	}
	if len(a.route.ASPath) != len(b.route.ASPath) {
		return len(a.route.ASPath) < len(b.route.ASPath)
	}
	if a.route.MED != b.route.MED {
		return a.route.MED < b.route.MED
	}
	return a.from < b.from
}

func routesEqual(a, b *netcfg.Route) bool {
	if a.Prefix != b.Prefix || a.MED != b.MED || a.LocalPref != b.LocalPref ||
		len(a.ASPath) != len(b.ASPath) || len(a.Communities) != len(b.Communities) {
		return false
	}
	for i := range a.ASPath {
		if a.ASPath[i] != b.ASPath[i] {
			return false
		}
	}
	for c := range a.Communities {
		if !b.Communities[c] {
			return false
		}
	}
	return true
}

func (s *Sim) nodeNames() []string {
	names := make([]string, 0, len(s.nodes))
	for n := range s.nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func sortedPrefixes(rib map[netcfg.Prefix]*candidate) []netcfg.Prefix {
	out := make([]netcfg.Prefix, 0, len(rib))
	for p := range rib {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addr != out[j].Addr {
			return out[i].Addr < out[j].Addr
		}
		return out[i].Len < out[j].Len
	})
	return out
}

// CanReach reports whether node has a route covering the prefix.
func (r *Result) CanReach(node string, p netcfg.Prefix) bool {
	rib := r.RIB[node]
	if rib == nil {
		return false
	}
	for got := range rib {
		if got.Contains(p) || got == p {
			return true
		}
	}
	return false
}
