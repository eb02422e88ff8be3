package lightyear

import (
	"fmt"
	"slices"

	"repro/internal/batfish"
	"repro/internal/netcfg"
	"repro/internal/netgen"
	"repro/internal/topology"
)

// GlobalResult reports the whole-network check of the global no-transit
// policy, produced by the BGP simulation (CheckGlobalNoTransit).
type GlobalResult struct {
	// Violations lists transit paths that must not exist (ISP i reaches
	// ISP j's prefix through the customer network).
	Violations []string
	// MissingReachability lists required connectivity that is absent
	// (an ISP cannot reach the customer, or vice versa).
	MissingReachability []string
	// Converged is false if the simulation hit its round cap before the
	// prefixes it simulated, the stub prefixes' slice, reached a fixpoint.
	Converged bool
}

// OK reports whether the global policy holds.
func (g *GlobalResult) OK() bool {
	return g.Converged && len(g.Violations) == 0 && len(g.MissingReachability) == 0
}

// externalStub is one external BGP speaker derived from the topology
// dictionary: a customer network or an ISP.
type externalStub struct {
	name     string
	addr     uint32
	asn      uint32
	prefixes []netcfg.Prefix
	customer bool
}

// CheckGlobalNoTransit runs the BGP simulation on any topology and
// verifies the global policy: no two ISPs can reach each other through
// the network, while every ISP and every customer can reach each other
// (§4.1). External speakers are derived from the topology dictionary's
// external neighbors — their originated prefixes come from the spec's
// prefixes field, falling back to the star generator's conventions
// (CUSTOMER originates CustomerPrefix, ISP behind Ri originates
// ISPPrefix(i)) when the field is absent. The verdict reads only those
// stub prefixes, so the simulation is the slice of the network they need
// (batfish.Sim.Run): the originated prefixes that equal or contain a stub
// prefix. The routers' other networks, such as their link subnets, are
// left out, which changes no verdict. A network whose slice would need
// more than batfish.MaxRIBSlots RIB slots is refused with an error.
func CheckGlobalNoTransit(t *topology.Topology, devs map[string]*netcfg.Device) (*GlobalResult, error) {
	sim, isps, customers, err := globalSim(t, devs)
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(stubPrefixes(isps, customers))
	if err != nil {
		return nil, err
	}
	return evalNoTransit(res, isps, customers), nil
}

// globalSim builds the network the global check simulates: every router
// of the topology, and one external stub per external neighbor, returned
// split into ISPs and customers.
func globalSim(t *topology.Topology, devs map[string]*netcfg.Device) (sim *batfish.Sim, isps, customers []externalStub, err error) {
	sim = batfish.NewSim()
	var stubs []externalStub
	for i := range t.Routers {
		spec := &t.Routers[i]
		dev := devs[spec.Name]
		if dev == nil {
			return nil, nil, nil, fmt.Errorf("router %s has no configuration", spec.Name)
		}
		if err := sim.AddDevice(spec.Name, dev); err != nil {
			return nil, nil, nil, err
		}
		ispPeers := 0
		for _, nb := range spec.Neighbors {
			if nb.External && !netgen.IsCustomerPeer(nb.PeerName) {
				ispPeers++
			}
		}
		for _, nb := range spec.Neighbors {
			if !nb.External {
				continue
			}
			stub, err := stubFor(spec, nb, ispPeers)
			if err != nil {
				return nil, nil, nil, err
			}
			stubs = append(stubs, stub)
		}
	}
	for _, s := range stubs {
		if err := sim.AddExternal(s.name, s.addr, s.asn, s.prefixes); err != nil {
			return nil, nil, nil, err
		}
		if s.customer {
			customers = append(customers, s)
		} else {
			isps = append(isps, s)
		}
	}
	return sim, isps, customers, nil
}

// stubPrefixes lists every stub's own prefixes: all that evalNoTransit
// asks CanReach about, and so all the simulation needs to answer.
func stubPrefixes(isps, customers []externalStub) []netcfg.Prefix {
	var out []netcfg.Prefix
	for _, s := range slices.Concat(isps, customers) {
		out = append(out, s.prefixes...)
	}
	return out
}

// evalNoTransit derives the global verdict from a converged simulation. It
// queries only the stubs' own prefixes (stubPrefixes).
func evalNoTransit(res *batfish.Result, isps, customers []externalStub) *GlobalResult {
	out := &GlobalResult{Converged: res.Converged}
	for _, isp := range isps {
		// Positive requirements: every ISP and every customer reach each
		// other.
		for _, cust := range customers {
			for _, p := range cust.prefixes {
				if !res.CanReach(isp.name, p) {
					out.MissingReachability = append(out.MissingReachability,
						fmt.Sprintf("%s cannot reach the customer prefix %s", isp.name, p))
				}
			}
			for _, p := range isp.prefixes {
				if !res.CanReach(cust.name, p) {
					out.MissingReachability = append(out.MissingReachability,
						fmt.Sprintf("%s cannot reach %s's prefix %s", cust.name, isp.name, p))
				}
			}
		}
		// No-transit: ISP i must not see ISP j's prefix.
		for _, other := range isps {
			if other.name == isp.name {
				continue
			}
			for _, p := range other.prefixes {
				if res.CanReach(isp.name, p) {
					out.Violations = append(out.Violations,
						fmt.Sprintf("transit violation: %s can reach %s's prefix %s",
							isp.name, other.name, p))
				}
			}
		}
	}
	return out
}

// stubFor derives the external speaker behind one external neighbor.
// ispPeers is the number of ISP attachments on the router: the
// index-keyed star fallback prefix is only safe when the router has a
// single ISP, otherwise dual-homed peers would share one stub prefix.
func stubFor(spec *topology.RouterSpec, nb topology.NeighborSpec, ispPeers int) (externalStub, error) {
	addr, err := netcfg.ParseIP(nb.PeerIP)
	if err != nil {
		return externalStub{}, fmt.Errorf("external peer %s of %s: %w", nb.PeerName, spec.Name, err)
	}
	s := externalStub{
		name:     nb.PeerName,
		addr:     addr,
		asn:      nb.PeerAS,
		customer: netgen.IsCustomerPeer(nb.PeerName),
	}
	for _, ps := range nb.Prefixes {
		p, err := netcfg.ParsePrefix(ps)
		if err != nil {
			return externalStub{}, fmt.Errorf("external peer %s of %s: prefix %q: %w",
				nb.PeerName, spec.Name, ps, err)
		}
		s.prefixes = append(s.prefixes, p)
	}
	if len(s.prefixes) == 0 {
		// Star-generator conventions; for hand-built dictionaries (names
		// not of the R<i> form with i fitting an address octet, or several
		// ISPs on one router) key the fallback prefix on the peer AS so
		// distinct ISPs never share a stub prefix.
		idx := RouterIndex(spec.Name)
		switch {
		case s.customer:
			s.prefixes = []netcfg.Prefix{netgen.CustomerPrefix()}
		case idx > 0 && idx <= 255 && ispPeers == 1:
			s.prefixes = []netcfg.Prefix{netgen.ISPPrefix(idx)}
		default:
			s.prefixes = []netcfg.Prefix{netcfg.MustPrefix(fmt.Sprintf(
				"150.%d.%d.0/24", (nb.PeerAS>>8)&0xff, nb.PeerAS&0xff))}
		}
	}
	return s, nil
}
