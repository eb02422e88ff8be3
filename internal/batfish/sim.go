package batfish

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/netcfg"
)

// MaxRIBSlots bounds the RIB rows one Run allocates. Every speaker keeps
// one slot per simulated prefix (each originated prefix in the Run's
// slice), whatever propagates, so a Run costs speakers × simulated
// prefixes pointers: 1<<26 slots is 512 MiB. The global check's slice of
// the largest registry network, dual-homed:1000 (2,999 speakers, 1,999 of
// its 4,998 originated prefixes), needs about 6.0 M slots, and of
// random:1000 (1,896 speakers, 896 of 3,290 prefixes) about 1.7 M;
// simulating every originated prefix would take 15 M and 6.2 M.
const MaxRIBSlots = 1 << 26

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
// A Run simulates a slice of the network: the originated prefixes that
// equal or contain one of the prefixes its caller will query, which are
// the only entries CanReach reads to answer for a queried prefix. A
// prefix's propagation never reads another prefix's entries (the slicing
// argument Panda et al. verify isolation with): deliver reads and writes
// only the announced prefix's entry, and the route-maps are pure
// functions of the route. So every simulated prefix ends with the routes,
// in every node, that simulating every originated prefix gives it, and
// the prefixes left out change no answer about a queried one. Each
// simulated prefix also changes in the same rounds it would alone, so a
// Run's rounds are the most any one simulated prefix needs.
//
// Each round announces only the RIB entries the previous round changed
// (the first round announces every simulated originated route), and
// reaches exactly the RIBs, Iterations and Converged that re-announcing
// every entry every round would. Three facts make these delta rounds
// exact:
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
// Each Run compiles the network before its first round:
//
//   - Every session's export and import route-maps are compiled against
//     their device (simPolicy), once per route-map, and each session
//     holds the peer's session back to it, whose import route-map filters
//     what the session announces. A compiled route-map reads only the
//     route and its own device's lists, so the policies stay pure
//     functions of the route within a Run, and the argument above holds.
//   - The simulated prefixes are numbered in address order, and each
//     node's RIB is a row indexed by that number, as is each round's
//     delta. A prefix's propagation never reads another prefix's entries,
//     so the numbering changes no outcome, and sorting a node's changed
//     numbers yields the address order rounds deliver in.
//
// A RIB route is never written after it is installed, so a route is built
// only where one is installed (see deliver). When neither an export set
// nor an import route-map touches an announcement, deliver compares its
// attributes with the incumbent first and builds nothing for a loser.
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

	// id is the node's position in name order, set by each Run.
	id int
	// rib holds the selected candidate per prefix number, nil where the
	// node has no route.
	rib []*candidate
	// sessions to peers.
	sessions []*session
}

// candidate is a RIB entry: the selected route and the peer it came from.
// It holds the route by value, so installing a route allocates the entry
// and its AS path, and no separate route.
type candidate struct {
	route netcfg.Route
	from  *simNode // nil = originated locally
}

type session struct {
	peer *simNode
	// exportPol and importPol are the route-maps this side applies, nil
	// when none is attached; export and imprt are their compiled forms.
	exportPol, importPol *netcfg.RoutePolicy
	export, imprt        *simPolicy
	// back is the peer's session towards this side, whose import
	// route-map filters what this session announces; nil when the peer
	// opened none.
	back *session
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
	n := &simNode{name: name, dev: dev}
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
	n := &simNode{name: name, asn: asn, external: true}
	n.addrs = append(n.addrs, addr)
	s.byAddr[addr] = n
	for _, p := range originates {
		r := netcfg.NewRoute(p)
		n.origin = append(n.origin, r)
	}
	s.nodes[name] = n
	return nil
}

// connect resolves sessions and compiles their route-maps. A device-device
// session requires both sides to declare each other; a device-external
// session requires the device to declare the external stub's address. A
// router with no usable interface address opens no session: nothing could
// reach it, so its neighbor declarations stay down and the verdict reports
// the lost reachability.
func (s *Sim) connect(order []*simNode) {
	type policyKey struct {
		pol *netcfg.RoutePolicy
		dev *netcfg.Device
	}
	compiled := map[policyKey]*simPolicy{}
	compile := func(pol *netcfg.RoutePolicy, dev *netcfg.Device) *simPolicy {
		if pol == nil {
			return nil
		}
		k := policyKey{pol, dev}
		if compiled[k] == nil {
			compiled[k] = compileSimPolicy(pol, dev)
		}
		return compiled[k]
	}
	for _, n := range order {
		n.sessions = nil
	}
	for _, n := range order {
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
				exportPol: n.dev.RoutePolicies[nb.ExportPolicy],
				importPol: n.dev.RoutePolicies[nb.ImportPolicy],
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
			sess.export = compile(sess.exportPol, n.dev)
			sess.imprt = compile(sess.importPol, n.dev)
			n.sessions = append(n.sessions, sess)
			// External stubs get a mirror session (accept-all).
			if peer.external {
				peer.sessions = append(peer.sessions, &session{peer: n})
			}
		}
	}
	// Deduplicate external mirror sessions.
	for _, n := range order {
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
	for _, n := range order {
		for _, sess := range n.sessions {
			sess.back = sess.peer.sessionTo(n)
		}
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

// sessionTo returns the node's first session to peer, or nil.
func (n *simNode) sessionTo(peer *simNode) *session {
	for _, sess := range n.sessions {
		if sess.peer == peer {
			return sess
		}
	}
	return nil
}

// Result holds a Run's converged state. It shares the routes the Run
// installed instead of copying them: an installed route is never written
// again, and a later Run on the same Sim builds fresh rows, so a Result
// stays valid and unchanged for as long as it is held. Callers must not
// modify the routes it returns.
type Result struct {
	// Iterations is the number of propagation rounds the simulated
	// prefixes took to reach a fixpoint: the most any one of them needs.
	Iterations int
	// Converged is false if the round cap was hit before every simulated
	// prefix reached a fixpoint.
	Converged bool

	// index numbers the simulated prefixes, lens lists their distinct
	// lengths in increasing order, and rows holds each node's RIB by
	// prefix number.
	index map[netcfg.Prefix]int32
	lens  []int
	rows  map[string][]*candidate
}

// delta lists RIB entries by node id and prefix number. A node's list may
// repeat a number.
type delta [][]int32

// Run propagates the slice of the network that answers for the queried
// prefixes to a fixpoint, and returns per-node RIBs. It simulates each
// originated prefix that equals or contains a queried one, and leaves
// every other originated prefix out: the Result holds no route for it. It
// refuses a slice whose RIB rows would take more than MaxRIBSlots slots.
func (s *Sim) Run(queried []netcfg.Prefix) (*Result, error) {
	order := s.sortedNodes()
	res, changed, err := s.reset(order, queried)
	if err != nil {
		return nil, err
	}
	for ; res.Iterations < s.maxRounds(); res.Iterations++ {
		if changed = s.step(order, changed); changed == nil {
			res.Converged = true
			break
		}
	}
	return res, nil
}

// reset numbers the slice's prefixes (the originated prefixes that equal
// or contain a queried one), resolves the sessions, and installs each
// node's originated routes in the slice as its whole RIB, in fresh rows.
// It returns the Result those rows belong to and the installed entries:
// the first round's announcements.
func (s *Sim) reset(order []*simNode, queried []netcfg.Prefix) (*Result, delta, error) {
	var originated []netcfg.Prefix
	for _, n := range order {
		for _, r := range n.origin {
			originated = append(originated, r.Prefix)
		}
	}
	prefixes := slice(originated, queried)
	if need := len(order) * len(prefixes); need > MaxRIBSlots {
		return nil, nil, fmt.Errorf("the BGP simulation needs %d RIB slots (%d speakers × %d simulated prefixes), over the bound of %d (MaxRIBSlots)",
			need, len(order), len(prefixes), MaxRIBSlots)
	}
	slices.SortFunc(prefixes, comparePrefixes)
	res := &Result{index: make(map[netcfg.Prefix]int32, len(prefixes)), lens: lengths(prefixes),
		rows: make(map[string][]*candidate, len(order))}
	for i, p := range prefixes {
		res.index[p] = int32(i)
	}
	s.connect(order)
	slots := make([]*candidate, len(order)*len(prefixes))
	installed := make(delta, len(order))
	for id, n := range order {
		n.id = id
		n.rib = slots[id*len(prefixes) : (id+1)*len(prefixes) : (id+1)*len(prefixes)]
		res.rows[n.name] = n.rib
		for _, r := range n.origin {
			if i, ok := res.index[r.Prefix]; ok {
				n.rib[i] = &candidate{route: *r.Clone()}
				installed[id] = append(installed[id], i)
			}
		}
	}
	return res, installed, nil
}

// slice returns the originated prefixes that equal or contain one of the
// queried prefixes, each once, reusing originated's array. It finds them
// as CanReach does, probing each queried prefix and its masks to the
// originated lengths, and marks them in a set of the originated prefixes,
// so what it allocates grows with those and not with queries × lengths.
func slice(originated, queried []netcfg.Prefix) []netcfg.Prefix {
	read := make(map[netcfg.Prefix]bool, len(originated))
	for _, q := range originated {
		read[q] = false
	}
	mark := func(q netcfg.Prefix) {
		if _, ok := read[q]; ok {
			read[q] = true
		}
	}
	lens := lengths(originated)
	for _, p := range queried {
		mark(p)
		for _, l := range lens {
			if l > p.Len {
				break
			}
			mark(netcfg.Prefix{Addr: p.Addr & netcfg.Mask(l), Len: l})
		}
	}
	return slices.DeleteFunc(originated, func(q netcfg.Prefix) bool {
		keep := read[q]
		delete(read, q) // a later copy of q is a repeat
		return !keep
	})
}

// lengths returns the distinct lengths of the prefixes, in increasing
// order.
func lengths(prefixes []netcfg.Prefix) []int {
	lens := make([]int, len(prefixes))
	for i, p := range prefixes {
		lens[i] = p.Len
	}
	slices.Sort(lens)
	return slices.Compact(lens)
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

// step performs one synchronous round. Every node announces its entries
// listed in changed, as they stood at the start of the round, and each
// announcement is delivered in turn: nodes in name order, then each
// node's sessions in order, then prefixes in address order. Entries are
// immutable once installed, so holding the round-start entries lets each
// announcement be delivered as soon as it is made. step returns the
// entries the deliveries changed, or nil when they changed none.
func (s *Sim) step(order []*simNode, changed delta) delta {
	type offer struct {
		from     *simNode
		prefixes []int32
		entries  []*candidate
	}
	var offers []offer
	for _, n := range order {
		prefixes := changed[n.id]
		if len(prefixes) == 0 || len(n.sessions) == 0 {
			continue
		}
		slices.Sort(prefixes)
		prefixes = slices.Compact(prefixes)
		entries := make([]*candidate, len(prefixes))
		for k, i := range prefixes {
			entries[k] = n.rib[i]
		}
		offers = append(offers, offer{from: n, prefixes: prefixes, entries: entries})
	}
	var next delta
	for _, o := range offers {
		for _, sess := range o.from.sessions {
			for k, c := range o.entries {
				i := o.prefixes[k]
				if !deliver(o.from, sess, i, c) {
					continue
				}
				if next == nil {
					next = make(delta, len(order))
				}
				next[sess.peer.id] = append(next[sess.peer.id], i)
			}
		}
	}
	return next
}

// deliver announces node n's entry c, for prefix number i, on one session
// and processes it at the receiving peer — split horizon, the export
// route-map, eBGP's AS-path prepend and local-pref reset, loop detection,
// the import route-map, and best-path selection — and reports whether the
// peer's RIB changed.
//
// The announced route is built only when it is needed: before the import
// route-map, which reads it, or when the export clause sets attributes.
// Otherwise its attributes are base's, with a path one AS longer and
// local-pref 100, and the route is built only if those beat the
// incumbent.
func deliver(n *simNode, sess *session, i int32, c *candidate) bool {
	to := sess.peer
	// Split horizon: do not send a route back to the peer that supplied
	// it.
	if c.from == to {
		return false
	}
	base := &c.route
	// AS-path loop detection, on the path with n's AS prepended.
	if to.asn != 0 && (to.asn == n.asn || base.HasASInPath(to.asn)) {
		return false
	}
	cur := to.rib[i]
	if cur != nil && cur.from == nil {
		return false // locally originated always wins
	}
	var ex *simClause
	if sess.export != nil {
		if ex = sess.export.decide(base); ex == nil || !ex.permit {
			return false
		}
	}
	var imp *simPolicy
	if sess.back != nil {
		imp = sess.back.imprt
	}
	if imp == nil && (ex == nil || len(ex.sets) == 0) {
		if cur != nil && !better(100, len(base.ASPath)+1, base.MED, n, cur) {
			return false
		}
		to.rib[i] = announced(n, base, nil)
		return true
	}
	cand := announced(n, base, ex)
	r := &cand.route
	if imp != nil {
		cl := imp.decide(r)
		if cl == nil || !cl.permit {
			return false
		}
		cl.apply(r)
	}
	if cur != nil && !better(r.LocalPref, len(r.ASPath), r.MED, n, cur) {
		return false
	}
	to.rib[i] = cand
	return true
}

// announced builds the candidate n offers for base: base with the export
// clause's sets applied (ex may be nil), n's AS prepended to the path and
// local-pref reset to 100, as eBGP does. The route shares base's
// community set unless a set writes it.
func announced(n *simNode, base *netcfg.Route, ex *simClause) *candidate {
	cand := &candidate{route: *base, from: n}
	r := &cand.route
	if ex != nil {
		ex.apply(r)
	}
	r.ASPath = make([]uint32, len(base.ASPath)+1)
	r.ASPath[0] = n.asn
	copy(r.ASPath[1:], base.ASPath)
	r.LocalPref = 100
	return cand
}

// better implements BGP best-path comparison between a candidate from
// peer from with the given attributes and the incumbent cur, which was
// learned from a peer: higher local-pref, then shorter AS path, then
// lower MED, then the lower peer node name. Delta rounds rely on it
// staying irreflexive and transitive (see Sim).
func better(localPref, pathLen, med int, from *simNode, cur *candidate) bool {
	if localPref != cur.route.LocalPref {
		return localPref > cur.route.LocalPref
	}
	if pathLen != len(cur.route.ASPath) {
		return pathLen < len(cur.route.ASPath)
	}
	if med != cur.route.MED {
		return med < cur.route.MED
	}
	return from.name < cur.from.name
}

// sortedNodes returns the nodes in name order.
func (s *Sim) sortedNodes() []*simNode {
	names := make([]string, 0, len(s.nodes))
	for n := range s.nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	order := make([]*simNode, len(names))
	for i, name := range names {
		order[i] = s.nodes[name]
	}
	return order
}

// comparePrefixes orders prefixes by address, then length.
func comparePrefixes(a, b netcfg.Prefix) int {
	return cmp.Or(cmp.Compare(a.Addr, b.Addr), cmp.Compare(a.Len, b.Len))
}

// Route returns node's selected route for exactly the prefix p, with its
// post-import attributes, or nil when it has none or the Run did not
// simulate p.
func (r *Result) Route(node string, p netcfg.Prefix) *netcfg.Route {
	if c := r.entry(r.rows[node], p); c != nil {
		return &c.route
	}
	return nil
}

func (r *Result) entry(row []*candidate, p netcfg.Prefix) *candidate {
	i, ok := r.index[p]
	if !ok || row == nil {
		return nil
	}
	return row[i]
}

// CanReach reports whether node has a route covering the prefix: one for
// p itself, or for a prefix containing it. For a prefix the Run was given,
// it answers as a Run of every originated prefix would. A RIB prefix q
// contains p exactly when q.Len <= p.Len and q is p masked to q.Len, so
// CanReach probes p and p masked to each length up to p.Len that some
// simulated prefix has: at most 34 lookups, whatever the size of the RIB,
// and usually three or four, since a network originates few lengths. The
// global check asks about every pair of ISPs, so at random:200 probing
// all 33 lengths took a fifth of the check.
func (r *Result) CanReach(node string, p netcfg.Prefix) bool {
	row := r.rows[node]
	if r.entry(row, p) != nil {
		return true
	}
	for _, l := range r.lens {
		if l > p.Len {
			break
		}
		if r.entry(row, netcfg.Prefix{Addr: p.Addr & netcfg.Mask(l), Len: l}) != nil {
			return true
		}
	}
	return false
}
