package batfish

import (
	"cmp"
	"fmt"
	"slices"
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
// the lowest peer node name. Propagation runs in synchronous rounds to a
// fixpoint.
//
// Each round announces only the RIB entries the previous round changed
// (the first round announces every originated route), and reaches exactly
// the RIBs, Iterations and Converged that re-announcing every entry every
// round would. Three facts make these delta rounds exact:
//
//   - deliver replaces an entry only with a strictly better candidate, so
//     each entry moves along a chain of ever better routes;
//   - better compares (local-pref, AS-path length, MED, peer node name)
//     lexicographically, so it is irreflexive and transitive;
//   - the export policy, the import policy and the loop check are pure
//     functions of the route within one Run.
//
// So once an announcement has been delivered, delivering it again changes
// nothing: a rejection by the loop check, the import policy or a locally
// originated entry repeats, and otherwise the receiver's entry is the
// candidate itself or one the candidate is not better than, which later
// deliveries only improve. Re-announcing an unchanged entry, wherever it
// lands in a later round, is a no-op.
//
// Each of these changes would break the argument:
//
//   - comparing MED only between routes from the same neighbor AS, as
//     deployed BGP does: better stops being transitive, and the selected
//     route can depend on the order candidates arrive in;
//   - withdrawals, or replacing an entry with its own peer's newer but
//     worse route: an entry could get worse, and a receiver would need an
//     unchanged entry announced again;
//   - a policy outcome that depends on RIB state, such as conditional
//     advertisement: an unchanged entry could then announce differently.
//
// A RIB route is never written after it is installed, so routes are
// copied only where they are written (see announce).
type Sim struct {
	nodes  map[string]*simNode
	byAddr map[uint32]*simNode
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
	return &Sim{nodes: map[string]*simNode{}, byAddr: map[uint32]*simNode{}}
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
	// Converged is false if the round cap was hit before a fixpoint.
	Converged bool
}

// delta lists RIB entries by node. A prefix may be listed more than once.
type delta map[*simNode][]netcfg.Prefix

// Run propagates announcements to a fixpoint and returns per-node RIBs.
func (s *Sim) Run() *Result {
	changed := s.reset()
	order := s.sortedNodes()
	iter := 0
	converged := false
	for ; iter < s.maxRounds(); iter++ {
		if changed = s.step(order, changed); len(changed) == 0 {
			converged = true
			break
		}
	}
	return s.result(iter, converged)
}

// reset resolves the sessions and installs each node's originated routes
// as its whole RIB. It returns the installed entries: the first round's
// announcements.
func (s *Sim) reset() delta {
	s.connect()
	installed := delta{}
	for _, n := range s.nodes {
		n.rib = map[netcfg.Prefix]*candidate{}
		for _, r := range n.origin {
			n.rib[r.Prefix] = &candidate{route: r.Clone(), from: ""}
			installed[n] = append(installed[n], r.Prefix)
		}
	}
	return installed
}

// maxRounds caps a run's rounds. Every run terminates without it: each
// accepted delivery strictly improves its entry under better, and no
// entry improves forever, since local-pref and MED take finitely many
// values (their defaults and the constants policies set), an AS-path
// length cannot fall forever, and there are finitely many peers. The cap
// is a safety net, sized past the propagation depth of any topology,
// which is below the speaker count (a ring of n routers needs about n/2
// rounds).
func (s *Sim) maxRounds() int {
	return max(64, 2*len(s.nodes))
}

// result deep-copies every RIB, so callers own what Run returns.
func (s *Sim) result(iter int, converged bool) *Result {
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

// step performs one synchronous round. Every node announces its entries
// listed in changed, as they stood at the start of the round, and each
// announcement is delivered in turn: nodes in name order, then each
// node's sessions in order, then prefixes in address order. Entries are
// immutable once installed, so holding the round-start entries lets each
// announcement be delivered as soon as it is made. step returns the
// entries the deliveries changed.
func (s *Sim) step(order []*simNode, changed delta) delta {
	type offer struct {
		from    *simNode
		entries []*candidate
	}
	var offers []offer
	for _, n := range order {
		prefixes := changed[n]
		if len(prefixes) == 0 || len(n.sessions) == 0 {
			continue
		}
		slices.SortFunc(prefixes, comparePrefixes)
		prefixes = slices.Compact(prefixes)
		entries := make([]*candidate, len(prefixes))
		for i, p := range prefixes {
			entries[i] = n.rib[p]
		}
		offers = append(offers, offer{from: n, entries: entries})
	}
	next := delta{}
	for _, o := range offers {
		for _, sess := range o.from.sessions {
			for _, c := range o.entries {
				if r := announce(o.from, sess, c); r != nil && deliver(sess.peer, o.from, r) {
					next[sess.peer] = append(next[sess.peer], r.Prefix)
				}
			}
		}
	}
	return next
}

// announce returns the route node n offers on one session for its entry
// c, or nil when split horizon or the export policy withholds it. The
// offered route is a copy only where it is written: a permitting export
// policy already returns a fresh clone, and the unfiltered path copies
// the struct and shares the entry's read-only community set. The AS-path
// prepend builds a fresh slice either way.
func announce(n *simNode, sess *session, c *candidate) *netcfg.Route {
	// Split horizon: do not send a route back to the peer that supplied
	// it.
	if c.from == sess.peer.name {
		return nil
	}
	var out *netcfg.Route
	if !n.external && sess.exportPol != nil {
		res := netcfg.EvalPolicy(sess.exportPol, sess.envExport, c.route)
		if !res.Permitted {
			return nil
		}
		out = res.Route
	} else {
		cp := *c.route
		out = &cp
	}
	// eBGP: prepend sender AS, reset local preference.
	out.ASPath = append([]uint32{n.asn}, out.ASPath...)
	out.LocalPref = 100
	return out
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
	// cand stays on the stack: only an installed candidate is allocated.
	cand := candidate{route: r, from: from.name}
	if cur == nil || better(&cand, cur) {
		if cur == nil || !routesEqual(cur.route, cand.route) || cur.from != cand.from {
			to.rib[r.Prefix] = &candidate{route: r, from: from.name}
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
// the incumbent: higher local-pref, then shorter AS path, then lower MED,
// then the lower peer node name. Delta rounds rely on it staying
// irreflexive and transitive (see Sim).
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

// sortedNodes returns the nodes in name order.
func (s *Sim) sortedNodes() []*simNode {
	order := make([]*simNode, 0, len(s.nodes))
	for _, name := range s.nodeNames() {
		order = append(order, s.nodes[name])
	}
	return order
}

// comparePrefixes orders prefixes by address, then length.
func comparePrefixes(a, b netcfg.Prefix) int {
	return cmp.Or(cmp.Compare(a.Addr, b.Addr), cmp.Compare(a.Len, b.Len))
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
