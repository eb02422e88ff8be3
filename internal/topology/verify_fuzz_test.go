package topology_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/cisco"
	"repro/internal/llm"
	"repro/internal/modularizer"
	"repro/internal/netgen"
	"repro/internal/topology"
)

// maxVerifyFuzzText bounds the fuzzed spec and configuration texts.
const maxVerifyFuzzText = 16 << 10

// mangledCases are specs that list their neighbors and networks out of
// order, repeat and mangle addresses, against a device that declares some
// of them twice, one with another AS, and some the spec lacks; the second
// spec's interfaces are valid, so its connected subnets are checked too.
var mangledCases = [][2]string{mangled(`"1.0.0.9/ 24"`, `"x/8"`), mangled(`"1.0.0.9/24"`, `"7.0.0.1/8"`)}

func mangled(e0, e1 string) [2]string {
	return [2]string{`{"name":"R1","asn":1,"router_id":"1.0.0.1",` +
		`"interfaces":[{"name":"e0","address":"1.0.0.1/24"},{"name":"e0","address":` + e0 + `},{"name":"e1","address":` + e1 + `}],` +
		`"neighbors":[{"peer_name":"D","peer_ip":"9.0.0.2","peer_as":9},{"peer_name":"A","peer_ip":"1.0.0.2","peer_as":2},` +
		`{"peer_name":"B","peer_ip":"1.0.0.2","peer_as":3},{"peer_name":"C","peer_ip":"1.0.0","peer_as":4},{"peer_name":"E","peer_ip":"5.0.0.2","peer_as":5}],` +
		`"networks":["9.0.0.0/24","1.0.0.0/24","1.0.0.0/24","1.0.0.1/24","bad","5.0.0.0/16"]}`,
		"interface e0\n ip address 1.0.0.1 255.255.255.0\ninterface e0\n ip address 1.0.0.9 255.255.255.0\n" +
			"router bgp 1\n neighbor 9.0.0.2 remote-as 9\n neighbor 1.0.0.2 remote-as 3\n neighbor 1.0.0.3 remote-as 3\n neighbor 5.0.0.2 remote-as 5\n" +
			" network 9.0.0.0 mask 255.255.255.0\n network 1.0.0.0 mask 255.255.255.0\n network 1.0.0.0 mask 255.255.255.0\n network 7.0.0.0\n network 5.0.0.0 mask 255.255.0.0\n"}
}

// verifyCases returns mangledCases and a (spec JSON, config text) pair for
// every router of every registry scenario at its default size: the
// simulated LLM's draft with no fault, and with each fault the topology
// check reports.
func verifyCases(t testing.TB) [][2]string {
	faults := [][]llm.SynthError{nil, {llm.SErrTopoWrongIP}, {llm.SErrTopoMissingNetwork},
		{llm.SErrNeighborOutsideBGP}, {llm.SErrCLIKeywords}}
	out := mangledCases
	for _, sc := range netgen.Scenarios() {
		topo, err := sc.Generate(sc.DefaultSize)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		for _, fault := range faults {
			errs := map[string][]llm.SynthError{}
			for _, r := range topo.Routers {
				errs[r.Name] = fault
			}
			model := llm.NewSynthesizer(llm.SynthConfig{Seed: 1, Errors: errs})
			for _, task := range modularizer.Tasks(topo) {
				text, err := model.Complete([]llm.Message{{Role: llm.RoleAutomated, Content: task.Prompt}})
				if err != nil {
					t.Fatalf("%s %s: %v", sc.Name, task.Router, err)
				}
				spec, err := json.Marshal(topo.Router(task.Router))
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, [2]string{string(spec), text})
			}
		}
	}
	return out
}

// checkVerify holds Verify to the quadratic reference kept in the tests:
// the same findings in the same order.
func checkVerify(t *testing.T, specJSON, text string) {
	var spec topology.RouterSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		return
	}
	dev, _ := cisco.Parse(text)
	if got, want := topology.Verify(&spec, dev), topology.RefVerify(&spec, dev); !reflect.DeepEqual(got, want) {
		t.Fatalf("Verify:\n%v\nreference:\n%v", got, want)
	}
}

func TestVerifyMatchesReference(t *testing.T) {
	for _, c := range verifyCases(t) {
		checkVerify(t, c[0], c[1])
	}
}

// FuzzVerifyReference holds Verify to its reference on an arbitrary spec
// (JSON) and configuration text, seeded with verifyCases.
func FuzzVerifyReference(f *testing.F) {
	for _, c := range verifyCases(f) {
		f.Add(c[0], c[1])
	}
	f.Fuzz(func(t *testing.T, specJSON, text string) {
		if len(specJSON) > maxVerifyFuzzText || len(text) > maxVerifyFuzzText {
			return
		}
		checkVerify(t, specJSON, text)
	})
}
