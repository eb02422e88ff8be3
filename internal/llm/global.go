package llm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cisco"
	"repro/internal/netcfg"
)

// GlobalSynthesizer simulates GPT-4 under *global* policy prompting — the
// paper's failed first attempt (§4.1): given the whole topology and the
// global no-transit sentence at once, "GPT-4 generated two innovative
// strategies: filtering routes using AS path regular expressions, and
// denying ISP prefixes from being advertised to other routers from the
// customer router", and when fed counterexample packets it "was confused
// and kept oscillating between incorrect strategies".
//
// This model reproduces exactly that: two plausible-but-wrong filtering
// strategies, toggled on every counterexample prompt, never converging.
type GlobalSynthesizer struct {
	specs    []globalRouterSpec
	strategy int // 0 = AS-path regex filtering, 1 = customer-side prefix denial
	started  bool
	// StrategySwitches counts oscillations (introspected by benches).
	StrategySwitches int
}

type globalRouterSpec struct {
	name     string
	asn      uint32
	routerID string
	ifcs     []struct{ name, cidr string }
	nbrs     []struct {
		ip  string
		as  uint32
		ext bool
	}
	networks []string
}

// NewGlobalSynthesizer returns a fresh model.
func NewGlobalSynthesizer() *GlobalSynthesizer { return &GlobalSynthesizer{} }

// ConfigSeparator delimits per-router configs in the model's multi-config
// response.
const ConfigSeparator = "! ==== router %s ====\n"

// SplitConfigs parses a multi-config response back into per-router texts.
func SplitConfigs(response string) map[string]string {
	out := map[string]string{}
	var cur string
	var buf strings.Builder
	for _, line := range strings.SplitAfter(response, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "! ==== router ") {
			if cur != "" {
				out[cur] = buf.String()
				buf.Reset()
			}
			cur = strings.TrimSuffix(strings.TrimPrefix(trimmed, "! ==== router "), " ====")
			continue
		}
		if cur != "" {
			buf.WriteString(line)
		}
	}
	if cur != "" {
		out[cur] = buf.String()
	}
	return out
}

// Complete implements Model.
func (g *GlobalSynthesizer) Complete(messages []Message) (string, error) {
	last := LastMessage(messages)
	content := last.Content
	switch {
	case strings.Contains(content, "Generate Cisco IOS configuration files for all routers"):
		if err := g.parseTopology(content); err != nil {
			return "", err
		}
		g.started = true
	case strings.Contains(content, "can reach") || strings.Contains(content, "cannot reach"):
		// Counterexample feedback from the global verifier: switch to the
		// other incorrect strategy.
		g.strategy = 1 - g.strategy
		g.StrategySwitches++
	}
	if !g.started {
		return "", fmt.Errorf("global synthesizer has no topology yet")
	}
	return g.render(), nil
}

var errMissingSentence = fmt.Errorf("topology description missing expected sentences")

func (g *GlobalSynthesizer) parseTopology(content string) error {
	g.specs = nil
	for _, m := range sASRouter.findAll(content) {
		asn, _ := strconv.ParseUint(m[2], 10, 32)
		g.specs = append(g.specs, globalRouterSpec{name: m[1], asn: uint32(asn), routerID: m[3]})
	}
	if len(g.specs) == 0 {
		return errMissingSentence
	}
	// Per-router sentences all start "Router <name> ..."; attribute them.
	byName := map[string]*globalRouterSpec{}
	for i := range g.specs {
		byName[g.specs[i].name] = &g.specs[i]
	}
	for _, line := range strings.Split(content, "\n") {
		var name string
		if _, err := fmt.Sscanf(line, "Router %s", &name); err != nil {
			continue
		}
		name = strings.TrimSuffix(name, ",")
		spec := byName[name]
		if spec == nil {
			continue
		}
		if m := sIfc.find(line); m != nil {
			spec.ifcs = append(spec.ifcs, struct{ name, cidr string }{m[1], m[2]})
		}
		if m := sNeighbor.find(line); m != nil {
			asn, _ := strconv.ParseUint(m[3], 10, 32)
			ext := strings.Contains(line, "external peer")
			spec.nbrs = append(spec.nbrs, struct {
				ip  string
				as  uint32
				ext bool
			}{m[2], uint32(asn), ext})
		}
		if m := sNetworks.find(line); m != nil {
			spec.networks = strings.Split(m[1], ", ")
		}
	}
	return nil
}

// render emits all router configs under the current (incorrect) strategy.
func (g *GlobalSynthesizer) render() string {
	var b strings.Builder
	for _, spec := range g.specs {
		fmt.Fprintf(&b, ConfigSeparator, spec.name)
		b.WriteString(cisco.Print(g.buildRouter(spec)))
	}
	return b.String()
}

func (g *GlobalSynthesizer) buildRouter(spec globalRouterSpec) *netcfg.Device {
	dev := netcfg.NewDevice(spec.name, netcfg.VendorCisco)
	for _, ifc := range spec.ifcs {
		addr, length, err := splitCIDR(ifc.cidr)
		if err != nil {
			continue
		}
		i := dev.EnsureInterface(ifc.name)
		i.Address = netcfg.Prefix{Addr: addr, Len: length}
		i.HasAddress = true
	}
	b := dev.EnsureBGP(spec.asn)
	if id, err := netcfg.ParseIP(spec.routerID); err == nil {
		b.RouterID = id
	}
	for _, n := range spec.networks {
		if p, err := netcfg.ParsePrefix(strings.TrimSpace(n)); err == nil {
			b.Networks = append(b.Networks, p)
		}
	}
	for _, nb := range spec.nbrs {
		ip, err := netcfg.ParseIP(nb.ip)
		if err != nil {
			continue
		}
		neighbor := b.EnsureNeighbor(ip)
		neighbor.RemoteAS = nb.as
	}
	if spec.name == "R1" {
		g.applyStrategy(dev, spec)
	}
	return dev
}

// applyStrategy installs the current incorrect global-filtering strategy
// on the hub.
func (g *GlobalSynthesizer) applyStrategy(dev *netcfg.Device, spec globalRouterSpec) {
	switch g.strategy {
	case 0:
		// Strategy A: AS-path regex filtering at every ISP-facing egress —
		// but keyed on the wrong AS (the customer's), so customer routes
		// are dropped and ISP routes still transit.
		pol := &netcfg.RoutePolicy{Name: "FILTER_ASPATH", Clauses: []*netcfg.PolicyClause{
			{Seq: 10, Action: netcfg.Deny,
				Matches: []netcfg.Match{netcfg.MatchASPathRegex{Regex: "_65500_"}}},
			{Seq: 20, Action: netcfg.Permit},
		}}
		dev.RoutePolicies[pol.Name] = pol
		for _, nb := range dev.BGP.Neighbors {
			if !isCustomerPeer(spec, nb.Addr) {
				nb.ExportPolicy = pol.Name
			}
		}
	case 1:
		// Strategy B: deny ISP prefixes toward the customer router only —
		// transit between ISPs is not blocked at all.
		pol := &netcfg.RoutePolicy{Name: "DENY_ISP_TO_CUSTOMER", Clauses: []*netcfg.PolicyClause{
			{Seq: 10, Action: netcfg.Deny,
				Matches: []netcfg.Match{netcfg.MatchRouteFilter{
					Prefix: netcfg.MustPrefix("150.0.0.0/8"), MinLen: 8, MaxLen: 32}}},
			{Seq: 20, Action: netcfg.Permit},
		}}
		dev.RoutePolicies[pol.Name] = pol
		for _, nb := range dev.BGP.Neighbors {
			if isCustomerPeer(spec, nb.Addr) {
				nb.ExportPolicy = pol.Name
			} else {
				nb.ExportPolicy = ""
			}
		}
	}
}

func isCustomerPeer(spec globalRouterSpec, addr uint32) bool {
	for _, nb := range spec.nbrs {
		if ip, err := netcfg.ParseIP(nb.ip); err == nil && ip == addr {
			return nb.ext
		}
	}
	return false
}
