package lightyear

import (
	"repro/internal/netcfg"
	"repro/internal/topology"
)

// CheckGlobalNoTransitUnsliced is CheckGlobalNoTransit over a simulation
// of every originated prefix, the routers' networks included: the
// reference the slice to the stub prefixes is held to.
func CheckGlobalNoTransitUnsliced(t *topology.Topology, devs map[string]*netcfg.Device) (*GlobalResult, error) {
	sim, isps, customers, err := globalSim(t, devs)
	if err != nil {
		return nil, err
	}
	queried := stubPrefixes(isps, customers)
	for _, r := range t.Routers {
		if bgp := devs[r.Name].BGP; bgp != nil {
			queried = append(queried, bgp.Networks...)
		}
	}
	res, err := sim.Run(queried)
	if err != nil {
		return nil, err
	}
	return evalNoTransit(res, isps, customers), nil
}

// StubPrefixes returns the ISP stubs' and the customer stubs' prefixes,
// as the global check derives them.
func StubPrefixes(t *topology.Topology, devs map[string]*netcfg.Device) (isp, customer []netcfg.Prefix, err error) {
	_, isps, customers, err := globalSim(t, devs)
	if err != nil {
		return nil, nil, err
	}
	return stubPrefixes(isps, nil), stubPrefixes(nil, customers), nil
}
