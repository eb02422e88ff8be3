package rest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/batfish"
	"repro/internal/core"
	"repro/internal/lightyear"
	"repro/internal/llm"
	"repro/internal/netcfg"
	"repro/internal/netgen"
	"repro/internal/topology"
)

// scenarioConfigs synthesizes a topology's configurations with an
// error-free model: deterministic, realistic configs for the no-transit
// tests, without a global check.
func scenarioConfigs(t testing.TB, topo *topology.Topology) map[string]string {
	t.Helper()
	res, err := core.Synthesize(topo, core.SynthOptions{
		Model:           llm.NewSynthesizer(llm.SynthConfig{Seed: 1, Errors: map[string][]llm.SynthError{}}),
		SkipGlobalCheck: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Configs
}

// starConfigs generates an n-router star and its error-free configs.
func starConfigs(t testing.TB, n int) (*topology.Topology, map[string]string) {
	t.Helper()
	topo, err := netgen.Star(n)
	if err != nil {
		t.Fatal(err)
	}
	return topo, scenarioConfigs(t, topo)
}

// addresslessR2 returns star:3's golden configs with every interface
// address removed from R2, which keeps its BGP neighbor declarations.
func addresslessR2(t testing.TB) (*topology.Topology, map[string]string) {
	t.Helper()
	topo, configs := starConfigs(t, 3)
	lines := strings.Split(configs["R2"], "\n")
	kept := slices.DeleteFunc(slices.Clone(lines), func(line string) bool {
		return strings.HasPrefix(strings.TrimSpace(line), "ip address ")
	})
	if len(kept) == len(lines) {
		t.Fatal("R2's config has no ip address line to remove")
	}
	configs["R2"] = strings.Join(kept, "\n")
	return topo, configs
}

// bgplessHub returns a copy of star configs whose hub, R1, runs no BGP:
// a set that cannot satisfy the no-transit policy.
func bgplessHub(golden map[string]string) map[string]string {
	broken := maps.Clone(golden)
	broken["R1"] = "hostname R1\n"
	return broken
}

// inProcessNoTransit is the reference answer: the global check run in
// process on freshly parsed devices.
func inProcessNoTransit(t *testing.T, topo *topology.Topology, configs map[string]string) *lightyear.GlobalResult {
	t.Helper()
	devs := make(map[string]*netcfg.Device, len(configs))
	for name, text := range configs {
		devs[name], _ = batfish.ParseConfig(text)
	}
	res, err := lightyear.CheckGlobalNoTransit(topo, devs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestNoTransitRoundTrip checks golden and broken star:5 configs over the
// wire, through one client and through a 2-shard ring: every answer must
// equal the in-process check of the same configs.
func TestNoTransitRoundTrip(t *testing.T) {
	topo, golden := starConfigs(t, 5)
	broken := bgplessHub(golden)

	srv1 := httptest.NewServer(NewHandler())
	srv2 := httptest.NewServer(NewHandler())
	t.Cleanup(srv1.Close)
	t.Cleanup(srv2.Close)
	sc, err := NewShardedClient([]string{srv1.URL, srv2.URL})
	if err != nil {
		t.Fatal(err)
	}
	verifiers := []struct {
		name string
		v    core.Verifier
	}{{"client", NewClient(srv1.URL)}, {"sharded", sc}}

	for _, set := range []struct {
		name    string
		configs map[string]string
		ok      bool
	}{{"golden", golden, true}, {"broken", broken, false}} {
		want := inProcessNoTransit(t, topo, set.configs)
		if want.OK() != set.ok {
			t.Fatalf("%s: in-process verdict OK=%v, want %v", set.name, want.OK(), set.ok)
		}
		for _, v := range verifiers {
			got, err := v.v.GlobalNoTransit(topo, set.configs)
			if err != nil {
				t.Fatalf("%s over %s: %v", set.name, v.name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s over %s diverges from the in-process check\ngot:  %+v\nwant: %+v",
					set.name, v.name, got, want)
			}
		}
	}
}

// TestNoTransitIncrementalMatchesStateless sends an incremental edit
// sequence — golden, broken, golden, broken, one router changing per
// step — to one live handler, whose parse cache persists across requests,
// and pins every response against the in-process check of the same
// configurations: what an earlier request left behind must not change a
// later verdict.
func TestNoTransitIncrementalMatchesStateless(t *testing.T) {
	topo, golden := starConfigs(t, 5)
	broken := bgplessHub(golden)
	c := newTestClient(t)

	for i, set := range []struct {
		configs map[string]string
		ok      bool
	}{{golden, true}, {broken, false}, {golden, true}, {broken, false}} {
		want := inProcessNoTransit(t, topo, set.configs)
		if want.OK() != set.ok {
			t.Fatalf("step %d: in-process verdict OK=%v, want %v", i, want.OK(), set.ok)
		}
		got, err := c.GlobalNoTransit(topo, set.configs)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("step %d diverges from the in-process check\ngot:  %+v\nwant: %+v", i, got, want)
		}
	}
}

// TestShardedNoTransitIncremental sends an incremental edit sequence
// through a 2-shard ring. The checks of one topology stay on its owner
// shard; once that shard dies, the next check fails over to the survivor,
// and since no shard keeps state between checks, every answer still
// equals the in-process check.
func TestShardedNoTransitIncremental(t *testing.T) {
	topo, golden := starConfigs(t, 4)
	broken := bgplessHub(golden)
	shards, sc := newShardFleet(t, 2)

	check := func(label string, configs map[string]string) {
		t.Helper()
		got, err := sc.GlobalNoTransit(topo, configs)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if want := inProcessNoTransit(t, topo, configs); !reflect.DeepEqual(got, want) {
			t.Errorf("%s diverges from the in-process check\ngot:  %+v\nwant: %+v", label, got, want)
		}
	}
	check("golden", golden)
	check("broken", broken)

	owner := -1
	for i, ks := range shards {
		if ks.served.Load() == 0 {
			continue
		}
		if owner >= 0 {
			t.Fatal("the checks of one topology were spread over both shards")
		}
		owner = i
	}
	if owner < 0 {
		t.Fatal("no shard served the global checks")
	}
	survivor := 1 - owner

	shards[owner].Kill()
	check("golden after failover", golden)
	check("broken after failover", broken)
	if shards[survivor].served.Load() == 0 {
		t.Error("the survivor served nothing after its peer died")
	}
	if !sc.Stats()[owner].Dead {
		t.Errorf("owner shard stats = %+v, want dead", sc.Stats()[owner])
	}
}

// TestNoTransitAddresslessRouter sends a router that declares BGP
// neighbors but has no interface address: the server must answer with a
// verdict reporting the lost reachability, not drop the connection.
func TestNoTransitAddresslessRouter(t *testing.T) {
	topo, configs := addresslessR2(t)
	c := newTestClient(t)
	got, err := c.GlobalNoTransit(topo, configs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.MissingReachability) == 0 {
		t.Errorf("an address-less R2 cut off its ISP, yet no missing reachability: %+v", got)
	}
	if want := inProcessNoTransit(t, topo, configs); !reflect.DeepEqual(got, want) {
		t.Errorf("REST verdict diverges from the in-process check\ngot:  %+v\nwant: %+v", got, want)
	}
}

// TestNoTransitRefusesOversizedNetwork posts one router with 8,200
// external neighbors, one prefix each, to /v1/notransit. Its simulation
// would need 8,201 × 8,200 RIB slots, just over batfish.MaxRIBSlots, so
// the server must answer 422 with an error naming the bound.
func TestNoTransitRefusesOversizedNetwork(t *testing.T) {
	r := topology.RouterSpec{Name: "R1", ASN: 65000}
	for i := range 8200 {
		r.Neighbors = append(r.Neighbors, topology.NeighborSpec{
			PeerName: fmt.Sprintf("ISP%d", i),
			PeerIP:   netcfg.FormatIP(10<<24 | uint32(i)),
			PeerAS:   uint32(100000 + i),
			External: true,
			Prefixes: []string{netcfg.NewPrefix(150<<24|uint32(i)<<8, 24).String()},
		})
	}
	body, err := json.Marshal(NoTransitRequest{
		Topology: &topology.Topology{Name: "oversized", Routers: []topology.RouterSpec{r}},
		Configs:  map[string]string{"R1": "hostname R1\n"},
	})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, PathNoTransit, bytes.NewReader(body))
	req.Header.Set(ProtocolHeader, protocolVersion)
	rec := httptest.NewRecorder()
	NewHandler().ServeHTTP(rec, req)
	if rec.Code != http.StatusUnprocessableEntity || !strings.Contains(rec.Body.String(), strconv.Itoa(batfish.MaxRIBSlots)) {
		t.Fatalf("got %d %s, want 422 naming the bound %d", rec.Code, rec.Body.Bytes(), batfish.MaxRIBSlots)
	}
}
