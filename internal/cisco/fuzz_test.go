package cisco_test

import (
	"testing"

	"repro/internal/cisco"
	"repro/internal/exampledata"
	"repro/internal/fuzz"
)

// FuzzParse feeds arbitrary text to the parser: it must never panic, must
// always return a device whose route-maps list their clauses in strictly
// ascending sequence order, and one Print∘Parse round trip must be a fixpoint
// (Print(Parse(Print(Parse(x)))) == Print(Parse(x))) — the printer emits
// only what the parser accepts. The seeds are the translation example, the
// simulated model's first drafts and repaired configs with every
// synthesis error class injected, and a route-map whose clauses arrive in
// descending sequence order, one of them re-entered, then an implicit one.
func FuzzParse(f *testing.F) {
	f.Add("")
	f.Add(exampledata.CiscoExample)
	f.Add("ip community-list 1 permit 100:1\n!\n" +
		"route-map m deny 40\n match community 1\nroute-map m deny 30\n" +
		"route-map m permit 20\n set metric 5\nroute-map m deny 10\n" +
		"route-map m permit 30\n set local-preference 200\nroute-map m permit\n!\n")
	seeds, err := fuzz.ParserSeeds()
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		dev, _ := cisco.Parse(text)
		if dev == nil {
			t.Fatal("nil device")
		}
		for _, name := range dev.PolicyNames() {
			cls := dev.RoutePolicies[name].Clauses
			for i := 1; i < len(cls); i++ {
				if cls[i-1].Seq >= cls[i].Seq {
					t.Fatalf("route-map %s: clause %d follows %d", name, cls[i].Seq, cls[i-1].Seq)
				}
			}
		}
		text1 := cisco.Print(dev)
		dev2, _ := cisco.Parse(text1)
		if text2 := cisco.Print(dev2); text2 != text1 {
			t.Fatalf("not a fixpoint:\nfirst print:\n%s\nsecond print:\n%s", text1, text2)
		}
	})
}
