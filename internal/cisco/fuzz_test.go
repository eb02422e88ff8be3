package cisco_test

import (
	"reflect"
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
	addSeeds(f)
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

// addSeeds adds the parser seeds every target here shares, and lines at
// the text path's edges: signed addresses and communities, which IOS
// refuses, and words split by Unicode white space.
func addSeeds(f *testing.F) {
	f.Add("")
	f.Add(exampledata.CiscoExample)
	f.Add("ip community-list 1 permit 100:1\n!\n" +
		"route-map m deny 40\n match community 1\nroute-map m deny 30\n" +
		"route-map m permit 20\n set metric 5\nroute-map m deny 10\n" +
		"route-map m permit 30\n set local-preference 200\nroute-map m permit\n!\n")
	f.Add("interface e0\n ip address +10.0.0.1 255.255.255.0\n!\n" +
		"ip community-list standard X permit +100:1\n" +
		"route-map\u00a0m permit 10\n set community 100:1\u2003additive\n" +
		"hostname\u0085R1\r\n\trouter bgp 1\v\n neighbor 1.2.3.4 remote-as\f2\n")
	f.Add(cisco.QuotedASPathConfig)
	seeds, err := fuzz.ParserSeeds()
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range seeds {
		f.Add(s)
	}
}

// FuzzPrintReference holds Print to the fmt printer it replaced
// (cisco.ReferencePrint, kept in ref_test.go) on every parsed device:
// the two must write the same bytes.
func FuzzPrintReference(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, text string) {
		dev, _ := cisco.Parse(text)
		if got, want := cisco.Print(dev), cisco.ReferencePrint(dev); got != want {
			t.Fatalf("Print differs from the reference:\ngot:\n%s\nwant:\n%s", got, want)
		}
	})
}

// FuzzParseReference holds Parse to the line loop it replaced
// (cisco.ReferenceParse: strings.Split into lines, strings.Fields into
// words): the same device and the same warnings, in order.
func FuzzParseReference(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, text string) {
		dev, warns := cisco.Parse(text)
		refDev, refWarns := cisco.ReferenceParse(text)
		if !reflect.DeepEqual(dev, refDev) {
			t.Fatalf("device differs from the reference:\ngot:\n%s\nwant:\n%s",
				cisco.ReferencePrint(dev), cisco.ReferencePrint(refDev))
		}
		if !reflect.DeepEqual(warns, refWarns) {
			t.Fatalf("warnings differ from the reference:\ngot:  %v\nwant: %v", warns, refWarns)
		}
	})
}
