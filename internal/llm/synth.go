package llm

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cisco"
	"repro/internal/netcfg"
	"repro/internal/obs"
)

// SynthError enumerates the synthesis error classes of §4.
type SynthError int

// Synthesis error classes.
const (
	// SErrCLIKeywords: CLI/session keywords in the config (suppressed by
	// the "no-cli-keywords" and "cfg-files-only" IIPs).
	SErrCLIKeywords SynthError = iota
	// SErrMatchCommunityLiteral: "match community 100:1" instead of a
	// community list (suppressed by the "match-community-list" IIP).
	SErrMatchCommunityLiteral
	// SErrMissingAdditive: "set community" without 'additive' (suppressed
	// by the "additive-communities" IIP).
	SErrMissingAdditive
	// SErrCommunityListRegex: a community-list entry holding a regex —
	// Table 3's syntax example.
	SErrCommunityListRegex
	// SErrTopoWrongIP: an interface configured with the wrong address.
	SErrTopoWrongIP
	// SErrTopoMissingNetwork: a required network statement omitted.
	SErrTopoMissingNetwork
	// SErrNeighborOutsideBGP: neighbor/network commands emitted outside
	// the "router bgp" block; Batfish flags it but its output is "not
	// informative enough for GPT-4 to be able to fix the issue" (§4.2).
	SErrNeighborOutsideBGP
	// SErrAndOr: the egress filter puts every community match in a single
	// deny stanza (AND semantics) instead of one stanza per community (OR)
	// — the paper's second human-intervention case.
	SErrAndOr
	// SErrEgressDenyAll: the egress filter's final catch-all clause denies
	// instead of permits, so clean customer routes are dropped. Neither
	// the rectification formulas nor the paper's operator prompts
	// (PaperHuman) have a recipe for it — it models the give-up regime
	// §4.2 reports, where the loop exhausts its attempts and the human
	// declines. The fuzz campaign uses it to seed deliberate oracle
	// violations: a plan carrying it can never verify.
	SErrEgressDenyAll

	numSynthErrors
)

// String implements fmt.Stringer.
func (e SynthError) String() string {
	switch e {
	case SErrCLIKeywords:
		return "cli-keywords"
	case SErrMatchCommunityLiteral:
		return "match-community-literal"
	case SErrMissingAdditive:
		return "missing-additive"
	case SErrCommunityListRegex:
		return "community-list-regex"
	case SErrTopoWrongIP:
		return "topology-wrong-ip"
	case SErrTopoMissingNetwork:
		return "topology-missing-network"
	case SErrNeighborOutsideBGP:
		return "neighbor-outside-bgp"
	case SErrAndOr:
		return "and-or-semantics"
	case SErrEgressDenyAll:
		return "egress-deny-all"
	default:
		return fmt.Sprintf("synth-error(%d)", int(e))
	}
}

// SynthConfig controls the simulated GPT-4 for the local-synthesis task.
type SynthConfig struct {
	Seed int64
	// Errors assigns injected error classes per router name. Nil selects
	// the paper's default scenario: the AND/OR error on R1, a wrong
	// interface address on R4, and a community-list regex on R6 (clamped
	// to the routers that exist).
	Errors map[string][]SynthError
	// Plan assigns injected error classes per attachment site instead of
	// per router name — the seam the fuzz campaign engine drives. A
	// non-nil plan (even an empty one) replaces both Errors and the
	// default scenario: attachment-scoped classes corrupt only the
	// addressed site's ingress tag or egress filter, router-scoped
	// classes fire once per addressed router. Sites whose policies the
	// prompt never asked for are inert, so one plan replays against any
	// topology that contains its sites.
	Plan []SiteErrors
	// RespectIIP: when true (default behaviour of DefaultSynthConfig),
	// the IIP-suppressed classes are only injected if the corresponding
	// IIP entry is absent from the conversation.
	RespectIIP bool
}

// DefaultSynthConfig is the paper's deterministic no-transit scenario.
func DefaultSynthConfig() SynthConfig {
	return SynthConfig{Seed: 1, RespectIIP: true}
}

// defaultErrors returns the default per-router injection plan. The three
// IIP-suppressed classes are *attempted* here and filtered out when the
// corresponding IIP entry is in the conversation — which is how the IIP
// ablation (E8) measures the database's effect. The classes that need a
// configuration feature to exist (the AND/OR error needs an egress
// filter) silently skip routers without it, so the same plan serves every
// topology scenario: on the star only R1 has egress filters and gets the
// AND/OR error, while on attachment-point topologies R3's own egress
// filter triggers it there.
func defaultErrors(router string) []SynthError {
	switch router {
	case "R1":
		return []SynthError{SErrAndOr, SErrMatchCommunityLiteral, SErrMissingAdditive}
	case "R2":
		return []SynthError{SErrCLIKeywords}
	case "R3":
		return []SynthError{SErrAndOr}
	case "R4":
		return []SynthError{SErrTopoWrongIP}
	case "R5":
		return []SynthError{SErrCLIKeywords}
	case "R6":
		return []SynthError{SErrCommunityListRegex}
	default:
		return nil
	}
}

// routerState is the model's memory of one router it has generated.
type routerState struct {
	name   string
	golden *netcfg.Device
	// egress maps policy name -> communities to filter (for AND/OR fix).
	egress map[string][]netcfg.Community
	active map[SynthError]bool
	// scoped tracks attachment-scoped error instances injected by a
	// SynthConfig.Plan: class -> the peers whose policies it fires on.
	// Router-wide activation (active) and scoped instances compose; a
	// correction that names a policy clears only that peer's instance.
	scoped map[SynthError]map[string]bool
	// ingressPols / egressPols map an attachment's peer name to the
	// route-map the prompt assigned it, parsed from the formulaic policy
	// names (ADD_COMM_<peer>, FILTER_COMM_OUT_<peer>).
	ingressPols map[string]string
	egressPols  map[string]string
	// interfere: an incremental change accidentally dropped an existing
	// neighbor attachment (the §6 non-interference hazard).
	interfere bool
}

// clearError reacts to a correction for an error class: when the prompt
// names a policy belonging to one scoped instance, only that peer's
// instance is fixed; otherwise the model fixes every occurrence on the
// router — the scoped instances and any router-wide activation alike
// (a generic "use separate stanzas" prompt plausibly repairs all the
// router's filters at once).
func (st *routerState) clearError(e SynthError, content string) {
	pols := st.ingressPols
	if e.ScopeDirection() == "out" {
		pols = st.egressPols
	}
	// The longest matching policy name wins: FILTER_COMM_OUT_R2 is a
	// prefix of FILTER_COMM_OUT_R20, so a substring hit alone could
	// misattribute the correction on large topologies.
	best := ""
	for _, peer := range st.scopedPeers(e) {
		if strings.Contains(content, pols[peer]) && len(pols[peer]) > len(pols[best]) {
			best = peer
		}
	}
	if best != "" {
		delete(st.scoped[e], best)
		return
	}
	delete(st.active, e)
	delete(st.scoped, e)
}

// scopedPeers returns the peers a class fires on, sorted for
// deterministic rendering.
func (st *routerState) scopedPeers(e SynthError) []string {
	if len(st.scoped[e]) == 0 {
		return nil
	}
	peers := make([]string, 0, len(st.scoped[e]))
	for p := range st.scoped[e] {
		peers = append(peers, p)
	}
	sort.Strings(peers)
	return peers
}

// Synthesizer is the simulated GPT-4 for the no-transit use case. It
// parses the modularizer's formulaic prompts back into structure (a
// deliberately "savant" capability), generates a per-router Cisco config,
// and injects the configured errors.
type Synthesizer struct {
	cfg     SynthConfig
	routers map[string]*routerState
	// policyOwner maps route-map names to the router that defines them,
	// so correction prompts that only mention a policy can be routed.
	policyOwner map[string]string
	last        string // most recently (re)generated router
	// draws counts random draws (see RNGCursor). The synthesizer's
	// current error model is fully deterministic — the plan decides
	// everything — so it holds no random source and the cursor stays 0;
	// the cursor exists so checkpoint/resume can verify replayed
	// stochastic state the day a probabilistic knob is added.
	draws int64
	// tracer is the optional trace sink (nil = off), adopted through
	// SetObs — the engine forwards its own sink when the run is traced —
	// and carried into forks. Rendering is deterministic; the tracer only
	// reports where its time went.
	tracer *obs.Tracer
}

// SetObs adopts the run's trace sink, arming per-render spans. The
// engine calls it through an interface assertion when SynthOptions.Trace
// is set; outputs are byte-identical with or without it.
func (s *Synthesizer) SetObs(reg *obs.Registry, tr *obs.Tracer) { s.tracer = tr }

// NewSynthesizer returns a fresh simulated model.
func NewSynthesizer(cfg SynthConfig) *Synthesizer {
	return &Synthesizer{
		cfg:         cfg,
		routers:     map[string]*routerState{},
		policyOwner: map[string]string{},
	}
}

// Fork implements Forker: the synthesizer's state — generated routers,
// policy ownership, the last-addressed router — is keyed per router, and
// its error model is a pure function of the configuration and the
// addressed site, so a fresh session with the same configuration behaves
// byte-identically on any single router's conversation. The parallel
// repair loop forks one session per router, which removes the shared-model
// mutex and makes the per-worker "most recently addressed router" state
// trivially private. The fork shares the parent's trace sink (obs.Tracer
// is safe for concurrent use), so parallel runs report their renders too.
func (s *Synthesizer) Fork() Model {
	f := NewSynthesizer(s.cfg)
	f.tracer = s.tracer
	return f
}

// RNGCursor reports how many random draws the model has made — the
// stochastic position a checkpoint records and a resume's replay must land
// back on. The engine compares cursors after reconstructing a model from a
// checkpointed conversation; a mismatch means the replayed model made
// different stochastic choices than the run being resumed.
func (s *Synthesizer) RNGCursor() int64 { return s.draws }

// ActiveErrors lists the live error classes for a router — router-wide
// activations and attachment-scoped instances alike — in class order.
// The enumeration is deterministic (sorted by class), which the fuzz
// shrinker's replay comparisons depend on.
func (s *Synthesizer) ActiveErrors(router string) []SynthError {
	st := s.routers[router]
	if st == nil {
		return nil
	}
	var out []SynthError
	for e := SynthError(0); e < numSynthErrors; e++ {
		if st.active[e] || len(st.scoped[e]) > 0 {
			out = append(out, e)
		}
	}
	return out
}

var (
	reRouterIn  = regexp.MustCompile(`router (R\d+)`)
	reAddPolicy = regexp.MustCompile(`Add to router R1 a new route-map (\S+) that adds the community (\S+) additively to every route received from the CUSTOMER neighbor ([\d.]+)`)
)

// Complete implements Model.
func (s *Synthesizer) Complete(messages []Message) (string, error) {
	last := LastMessage(messages)
	content := last.Content
	if m := sGenerate.find(content); m != nil {
		return s.generate(messages, content, m[1])
	}
	if strings.Contains(content, "no-transit") && len(s.routers) == 0 {
		// The human kickoff prompt (§4.1): acknowledge and wait for the
		// modularizer's per-router prompts.
		return "Understood. Send each router's details and I will generate its " +
			"Cisco IOS configuration file.", nil
	}
	if m := reAddPolicy.FindStringSubmatch(content); m != nil {
		return s.addPolicy(m[1], m[2], m[3])
	}
	if IsPrintRequest(content) {
		if st := s.routers[s.last]; st != nil {
			return s.render(st), nil
		}
		return "", fmt.Errorf("print request before any router was generated")
	}
	return s.correct(content)
}

// generate builds the golden device for a router from the prompt and
// injects the configured errors.
func (s *Synthesizer) generate(messages []Message, content, router string) (string, error) {
	st := &routerState{
		name:        router,
		active:      map[SynthError]bool{},
		scoped:      map[SynthError]map[string]bool{},
		egress:      map[string][]netcfg.Community{},
		ingressPols: map[string]string{},
		egressPols:  map[string]string{},
	}
	dev := netcfg.NewDevice(router, netcfg.VendorCisco)

	if m := sASRouter.find(content); m != nil {
		asn, _ := strconv.ParseUint(m[2], 10, 32)
		b := dev.EnsureBGP(uint32(asn))
		if id, err := netcfg.ParseIP(m[3]); err == nil {
			b.RouterID = id
		}
	} else {
		return "", fmt.Errorf("prompt for %s lacks the AS/router-ID sentence", router)
	}
	for _, m := range sIfc.findAll(content) {
		addr, length, err := splitCIDR(m[2])
		if err != nil {
			return "", fmt.Errorf("prompt interface %q: %v", m[2], err)
		}
		ifc := dev.EnsureInterface(m[1])
		ifc.Address = netcfg.Prefix{Addr: addr, Len: length}
		ifc.HasAddress = true
	}
	for _, m := range sNeighbor.findAll(content) {
		ip, err := netcfg.ParseIP(m[2])
		if err != nil {
			return "", fmt.Errorf("prompt neighbor %q: %v", m[2], err)
		}
		asn, _ := strconv.ParseUint(m[3], 10, 32)
		nb := dev.BGP.EnsureNeighbor(ip)
		nb.RemoteAS = uint32(asn)
		nb.Description = m[1]
	}
	if m := sNetworks.find(content); m != nil {
		for _, p := range strings.Split(m[1], ", ") {
			pfx, err := netcfg.ParsePrefix(strings.TrimSpace(p))
			if err != nil {
				return "", fmt.Errorf("prompt network %q: %v", p, err)
			}
			dev.BGP.Networks = append(dev.BGP.Networks, pfx)
		}
	}

	// Policy instructions (hub only).
	for _, m := range sIngress.findAll(content) {
		ip, _ := netcfg.ParseIP(m[1])
		comm, err := netcfg.ParseCommunity(m[3])
		if err != nil {
			return "", fmt.Errorf("prompt ingress community %q: %v", m[3], err)
		}
		pol := &netcfg.RoutePolicy{Name: m[2], Clauses: []*netcfg.PolicyClause{{
			Seq: 10, Action: netcfg.Permit,
			Sets: []netcfg.SetAction{netcfg.SetCommunity{
				Communities: []netcfg.Community{comm}, Additive: true,
			}},
		}}}
		dev.RoutePolicies[pol.Name] = pol
		dev.BGP.EnsureNeighbor(ip).ImportPolicy = pol.Name
		s.policyOwner[pol.Name] = router
		st.ingressPols[strings.TrimPrefix(pol.Name, "ADD_COMM_")] = pol.Name
	}
	for _, m := range sEgress.findAll(content) {
		ip, _ := netcfg.ParseIP(m[1])
		var comms []netcfg.Community
		for _, cs := range strings.Fields(m[3]) {
			c, err := netcfg.ParseCommunity(cs)
			if err != nil {
				return "", fmt.Errorf("prompt egress community %q: %v", cs, err)
			}
			comms = append(comms, c)
		}
		st.egress[m[2]] = comms
		buildEgressPolicy(dev, m[2], comms, false)
		dev.BGP.EnsureNeighbor(ip).ExportPolicy = m[2]
		s.policyOwner[m[2]] = router
		st.egressPols[strings.TrimPrefix(m[2], "FILTER_COMM_OUT_")] = m[2]
	}

	st.golden = dev
	s.routers[router] = st
	s.last = router

	// Choose errors: the attachment-keyed plan when one is configured,
	// the per-router-name map (or the paper's default scenario) otherwise.
	if s.cfg.Plan != nil {
		s.applyPlan(st, messages)
		return s.render(st), nil
	}
	classes := s.cfg.Errors[router]
	if s.cfg.Errors == nil {
		classes = defaultErrors(router)
	}
	iipDB := DefaultIIPDatabase()
	for _, e := range classes {
		if s.cfg.RespectIIP && suppressedByIIP(e, messages, iipDB) {
			continue
		}
		if e == SErrAndOr && len(st.egress) == 0 {
			continue // nothing to get wrong
		}
		st.active[e] = true
	}
	return s.render(st), nil
}

// applyPlan resolves the configured attachment-keyed plan against a
// freshly generated router: attachment-scoped classes latch onto the
// addressed peer's ingress tag or egress filter (inert when the prompt
// asked for no such policy), router-scoped classes fire router-wide
// whether the site names a peer or not. IIP suppression applies exactly
// as it does to the per-router map, so the ablation semantics carry over.
func (s *Synthesizer) applyPlan(st *routerState, messages []Message) {
	iipDB := DefaultIIPDatabase()
	for _, se := range s.cfg.Plan {
		if se.Site.Router != st.name {
			continue
		}
		for _, e := range se.Classes {
			if s.cfg.RespectIIP && suppressedByIIP(e, messages, iipDB) {
				continue
			}
			if e.AttachmentScoped() && se.Site.Peer != "" {
				pols := st.ingressPols
				if e.ScopeDirection() == "out" {
					pols = st.egressPols
				}
				if pols[se.Site.Peer] == "" {
					continue // the prompt asked for no such policy
				}
				if st.scoped[e] == nil {
					st.scoped[e] = map[string]bool{}
				}
				st.scoped[e][se.Site.Peer] = true
				continue
			}
			if (e == SErrAndOr || e == SErrEgressDenyAll) && len(st.egress) == 0 {
				continue // nothing to get wrong
			}
			st.active[e] = true
		}
	}
}

// suppressedByIIP reports whether an error class is prevented by an IIP
// entry present in the conversation.
func suppressedByIIP(e SynthError, messages []Message, db []IIP) bool {
	switch e {
	case SErrCLIKeywords:
		return HasIIP(messages, db, "no-cli-keywords") || HasIIP(messages, db, "cfg-files-only")
	case SErrMatchCommunityLiteral:
		return HasIIP(messages, db, "match-community-list")
	case SErrMissingAdditive:
		return HasIIP(messages, db, "additive-communities")
	default:
		return false
	}
}

// correct reacts to a correction prompt, locating the router it concerns.
func (s *Synthesizer) correct(content string) (string, error) {
	st := s.target(content)
	if st == nil {
		return "", fmt.Errorf("correction prompt does not identify a known router or policy: %q",
			firstLine(content))
	}
	s.last = st.name
	c := strings.ToLower(content)
	switch {
	case strings.Contains(c, "community-list") && (strings.Contains(c, ".+") ||
		strings.Contains(c, "wrong syntax") || strings.Contains(c, "invalid community")):
		delete(st.active, SErrCommunityListRegex)
	case strings.Contains(c, "ip address does not match"):
		delete(st.active, SErrTopoWrongIP)
	case strings.Contains(c, "not declared") || strings.Contains(c, "incorrect network"):
		delete(st.active, SErrTopoMissingNetwork)
	case strings.Contains(c, "separate") && strings.Contains(c, "stanza"):
		// The paper's human prompt: "declare each match statement in a
		// separate route-map stanza" (§4.2).
		st.clearError(SErrAndOr, content)
	case strings.Contains(c, "inside the \"router bgp\"") ||
		strings.Contains(c, "inside the router bgp block"):
		delete(st.active, SErrNeighborOutsideBGP)
	case strings.Contains(c, "not a top-level command"):
		// Batfish catches the misplaced neighbor command but the warning
		// is not actionable for the model (§4.2): no change.
	case strings.Contains(c, "additive") || strings.Contains(c, "replaces the communities"):
		st.clearError(SErrMissingAdditive, content)
	case strings.Contains(c, "cli") || strings.Contains(c, "session keyword"):
		delete(st.active, SErrCLIKeywords)
	case strings.Contains(c, "must reference a community-list"):
		st.clearError(SErrMatchCommunityLiteral, content)
	case strings.Contains(c, "interferes with the existing") ||
		strings.Contains(c, "restore the existing"):
		st.interfere = false
	case strings.Contains(c, "permits routes that have the community"):
		// The counterexample prompt for the AND/OR error: GPT-4 "failed to
		// rectify the issue" (§4.2) — no change.
	}
	return s.render(st), nil
}

// addPolicy performs the §6 incremental-change task: add a customer
// ingress tagging route-map on R1. Faithfully to the paper's worry, the
// edit also (once) drops an existing neighbor attachment — interference
// the non-regression verification must catch.
func (s *Synthesizer) addPolicy(policy, community, neighborIP string) (string, error) {
	st := s.routers["R1"]
	if st == nil {
		return "", fmt.Errorf("incremental change requested before R1 was generated")
	}
	s.last = "R1"
	comm, err := netcfg.ParseCommunity(community)
	if err != nil {
		return "", fmt.Errorf("incremental prompt community %q: %v", community, err)
	}
	ip, err := netcfg.ParseIP(neighborIP)
	if err != nil {
		return "", fmt.Errorf("incremental prompt neighbor %q: %v", neighborIP, err)
	}
	st.golden.RoutePolicies[policy] = &netcfg.RoutePolicy{Name: policy,
		Clauses: []*netcfg.PolicyClause{{
			Seq: 10, Action: netcfg.Permit,
			Sets: []netcfg.SetAction{netcfg.SetCommunity{
				Communities: []netcfg.Community{comm}, Additive: true,
			}},
		}}}
	st.golden.BGP.EnsureNeighbor(ip).ImportPolicy = policy
	s.policyOwner[policy] = "R1"
	st.interfere = true
	return s.render(st), nil
}

// target resolves which router a correction prompt refers to. Policy
// mentions resolve to the longest matching policy name with a
// lexicographic tie-break: FILTER_COMM_OUT_ISP1 is a substring of
// FILTER_COMM_OUT_ISP10, so a first-match scan over the map would route
// the correction to whichever owner the map iteration happened to visit
// — a nondeterminism the fuzz campaigns surfaced on topologies with ten
// or more attachments.
func (s *Synthesizer) target(content string) *routerState {
	if m := reRouterIn.FindStringSubmatch(content); m != nil {
		if st := s.routers[m[1]]; st != nil {
			return st
		}
	}
	best, owner := "", ""
	for pol, router := range s.policyOwner {
		if !strings.Contains(content, pol) {
			continue
		}
		if len(pol) > len(best) || (len(pol) == len(best) && pol < best) {
			best, owner = pol, router
		}
	}
	if best != "" {
		return s.routers[owner]
	}
	if st := s.routers[s.last]; st != nil {
		return st
	}
	return nil
}

// render prints the router's config with its live errors applied. The
// golden device is printed as it stands unless a fault mutates the device;
// then a clone takes the mutations. The text-level faults are added to
// the printed text either way.
func (s *Synthesizer) render(st *routerState) string {
	var start time.Time
	if s.tracer != nil {
		start = time.Now()
	}
	dev := st.golden
	if st.mutates() {
		dev = dev.Clone()
		st.mutate(dev)
	}
	text := st.print(dev)
	if s.tracer != nil {
		s.tracer.Span(start, obs.Event{Stage: obs.StageRender, Router: st.name,
			Bytes: int64(len(text))})
	}
	return text
}

// mutates reports whether a live fault changes the device before it is
// printed, i.e. whether mutate has anything to do.
func (st *routerState) mutates() bool {
	if st.interfere {
		return true
	}
	for _, e := range [...]SynthError{SErrTopoWrongIP, SErrTopoMissingNetwork,
		SErrMissingAdditive, SErrAndOr, SErrEgressDenyAll, SErrMatchCommunityLiteral} {
		if st.active[e] || len(st.scoped[e]) > 0 {
			return true
		}
	}
	return false
}

// mutate applies the live device-level faults to dev, a clone of the
// golden device.
func (st *routerState) mutate(dev *netcfg.Device) {
	if st.active[SErrTopoWrongIP] {
		if len(dev.Interfaces) > 0 {
			dev.Interfaces[0].Address.Addr++ // off-by-one address
		}
	}
	if st.active[SErrTopoMissingNetwork] && dev.BGP != nil && len(dev.BGP.Networks) > 0 {
		dev.BGP.Networks = dev.BGP.Networks[:len(dev.BGP.Networks)-1]
	}
	if st.active[SErrMissingAdditive] {
		for _, name := range dev.PolicyNames() {
			stripAdditive(dev.RoutePolicies[name])
		}
	} else {
		for _, peer := range st.scopedPeers(SErrMissingAdditive) {
			stripAdditive(dev.RoutePolicies[st.ingressPols[peer]])
		}
	}
	if st.active[SErrAndOr] {
		for pol, comms := range st.egress {
			buildEgressPolicy(dev, pol, comms, true)
		}
	} else {
		for _, peer := range st.scopedPeers(SErrAndOr) {
			pol := st.egressPols[peer]
			buildEgressPolicy(dev, pol, st.egress[pol], true)
		}
	}
	if st.active[SErrEgressDenyAll] {
		for pol := range st.egress {
			denyAllEgress(dev.RoutePolicies[pol])
		}
	} else {
		for _, peer := range st.scopedPeers(SErrEgressDenyAll) {
			denyAllEgress(dev.RoutePolicies[st.egressPols[peer]])
		}
	}
	if st.active[SErrMatchCommunityLiteral] {
		useLiteralCommunityMatches(dev)
	} else if peers := st.scopedPeers(SErrMatchCommunityLiteral); len(peers) > 0 {
		var pols []string
		for _, peer := range peers {
			pols = append(pols, st.egressPols[peer])
		}
		useLiteralCommunityMatchesIn(dev, pols)
	}
	if st.interfere && dev.BGP != nil {
		// The careless incremental edit: the first egress attachment to a
		// peer router silently disappears.
		for _, nb := range dev.BGP.Neighbors {
			if nb.ExportPolicy != "" {
				nb.ExportPolicy = ""
				break
			}
		}
	}
}

// print renders dev in Cisco syntax with the live text-level faults
// added; it only reads dev.
func (st *routerState) print(dev *netcfg.Device) string {
	text := cisco.Print(dev)
	if st.active[SErrCommunityListRegex] {
		text += "ip community-list standard COMM_LIST_" + st.name + "_OUT permit .+\n"
	}
	if st.active[SErrNeighborOutsideBGP] && dev.BGP != nil && len(dev.BGP.Neighbors) > 0 {
		nb := dev.BGP.Neighbors[0]
		if nb.ImportPolicy != "" {
			// Re-emit the attachment outside any block: the misplacement.
			text += "neighbor " + netcfg.FormatIP(nb.Addr) + " route-map " + nb.ImportPolicy + " in\n"
		}
	}
	if st.active[SErrCLIKeywords] {
		text = "configure terminal\n" + text + "exit\nwrite\nend\n"
	}
	return text
}

// buildEgressPolicy (re)builds an egress community filter on the device.
// Correct form (andSemantics=false): one deny stanza per community, each
// matching its own community list, then a final permit. Erroneous form
// (andSemantics=true): a single deny stanza carrying every match — which
// only filters routes carrying *all* the communities (§4.2).
func buildEgressPolicy(dev *netcfg.Device, name string, comms []netcfg.Community, andSemantics bool) {
	for _, c := range comms {
		ln := egressListName(c)
		if dev.CommunityLists[ln] == nil {
			dev.CommunityLists[ln] = &netcfg.CommunityList{Name: ln, Entries: []netcfg.CommunityListEntry{
				{Action: netcfg.Permit, Community: c},
			}}
		}
	}
	pol := &netcfg.RoutePolicy{Name: name}
	if andSemantics {
		cl := &netcfg.PolicyClause{Seq: 10, Action: netcfg.Deny}
		for _, c := range comms {
			cl.Matches = append(cl.Matches, netcfg.MatchCommunityList{List: egressListName(c)})
		}
		pol.Clauses = append(pol.Clauses, cl,
			&netcfg.PolicyClause{Seq: 20, Action: netcfg.Permit})
	} else {
		seq := 10
		for _, c := range comms {
			pol.Clauses = append(pol.Clauses, &netcfg.PolicyClause{
				Seq: seq, Action: netcfg.Deny,
				Matches: []netcfg.Match{netcfg.MatchCommunityList{List: egressListName(c)}},
			})
			seq += 10
		}
		pol.Clauses = append(pol.Clauses, &netcfg.PolicyClause{Seq: seq, Action: netcfg.Permit})
	}
	dev.RoutePolicies[name] = pol
}

// egressListName is the community-list index per the paper: list k holds
// (99+k):1, i.e. R2's tag 100:1 lives in list 1.
func egressListName(c netcfg.Community) string {
	return strconv.Itoa(int(uint32(c)>>16) - 99)
}

// stripAdditive removes the 'additive' keyword from every set-community
// action of one policy (the "Adding Communities" pitfall of §4.2).
func stripAdditive(pol *netcfg.RoutePolicy) {
	if pol == nil {
		return
	}
	for _, cl := range pol.Clauses {
		for i, set := range cl.Sets {
			if sc, ok := set.(netcfg.SetCommunity); ok {
				sc.Additive = false
				cl.Sets[i] = sc
			}
		}
	}
}

// denyAllEgress flips an egress filter's final catch-all permit into a
// deny, dropping clean customer routes (SErrEgressDenyAll).
func denyAllEgress(pol *netcfg.RoutePolicy) {
	if pol == nil || len(pol.Clauses) == 0 {
		return
	}
	last := pol.Clauses[len(pol.Clauses)-1]
	if last.Action == netcfg.Permit && len(last.Matches) == 0 {
		last.Action = netcfg.Deny
	}
}

// useLiteralCommunityMatches rewrites community-list matches into literal
// community matches (invalid Cisco syntax) and drops the list definitions.
func useLiteralCommunityMatches(dev *netcfg.Device) {
	for _, name := range dev.PolicyNames() {
		rewriteLiteralMatches(dev, dev.RoutePolicies[name])
	}
	dev.CommunityLists = map[string]*netcfg.CommunityList{}
}

// useLiteralCommunityMatchesIn applies the literal-match rewrite to the
// named policies only (the attachment-scoped form), then drops the
// community lists no policy references any more.
func useLiteralCommunityMatchesIn(dev *netcfg.Device, pols []string) {
	for _, name := range pols {
		rewriteLiteralMatches(dev, dev.RoutePolicies[name])
	}
	referenced := map[string]bool{}
	for _, name := range dev.PolicyNames() {
		for _, cl := range dev.RoutePolicies[name].Clauses {
			for _, m := range cl.Matches {
				if mcl, ok := m.(netcfg.MatchCommunityList); ok {
					referenced[mcl.List] = true
				}
			}
		}
	}
	for ln := range dev.CommunityLists {
		if !referenced[ln] {
			delete(dev.CommunityLists, ln)
		}
	}
}

// rewriteLiteralMatches swaps one policy's community-list matches for
// literal community matches.
func rewriteLiteralMatches(dev *netcfg.Device, pol *netcfg.RoutePolicy) {
	if pol == nil {
		return
	}
	for _, cl := range pol.Clauses {
		for i, m := range cl.Matches {
			if mcl, ok := m.(netcfg.MatchCommunityList); ok {
				if list := dev.CommunityLists[mcl.List]; list != nil && len(list.Entries) > 0 {
					cl.Matches[i] = netcfg.MatchCommunityLiteral{Community: list.Entries[0].Community}
				}
			}
		}
	}
}

func splitCIDR(s string) (uint32, int, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return 0, 0, fmt.Errorf("missing /len")
	}
	addr, err := netcfg.ParseIP(s[:slash])
	if err != nil {
		return 0, 0, err
	}
	length, err := strconv.Atoi(s[slash+1:])
	if err != nil || length < 0 || length > 32 {
		return 0, 0, fmt.Errorf("bad length")
	}
	return addr, length, nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
