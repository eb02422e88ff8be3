package cisco_test

import (
	"testing"

	"repro/internal/cisco"
	"repro/internal/exampledata"
	"repro/internal/fuzz"
)

// FuzzParse feeds arbitrary text to the parser: it must never panic, must
// always return a device, and one Print∘Parse round trip must be a fixpoint
// (Print(Parse(Print(Parse(x)))) == Print(Parse(x))) — the printer emits
// only what the parser accepts. The seeds are the translation example and
// the simulated model's first drafts and repaired configs with every
// synthesis error class injected.
func FuzzParse(f *testing.F) {
	f.Add("")
	f.Add(exampledata.CiscoExample)
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
		text1 := cisco.Print(dev)
		dev2, _ := cisco.Parse(text1)
		if text2 := cisco.Print(dev2); text2 != text1 {
			t.Fatalf("not a fixpoint:\nfirst print:\n%s\nsecond print:\n%s", text1, text2)
		}
	})
}
