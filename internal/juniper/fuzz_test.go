package juniper_test

import (
	"testing"

	"repro/internal/cisco"
	"repro/internal/exampledata"
	"repro/internal/fuzz"
	"repro/internal/juniper"
	"repro/internal/translate"
)

// FuzzParse feeds arbitrary text to the parser: it must never panic, must
// always return a device, and one Print∘Parse round trip must be a fixpoint
// even for garbage input — the printer emits only what the parser accepts.
// The seeds are hand-picked Junos shapes, the golden translation of the
// example configuration, and the simulated model's Cisco drafts and
// repaired configs (foreign-dialect text the parser must survive).
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		juniper.SampleJunos,
		"",
		"garbage { nested { x; } }",
		"interfaces { ge-0/0/0 { unit 0 { family inet { address 1.2.3.4/31; } } } }",
	} {
		f.Add(s)
	}
	src, _ := cisco.Parse(exampledata.CiscoExample)
	f.Add(juniper.Print(translate.Golden(src)))
	seeds, err := fuzz.ParserSeeds()
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		dev, _ := juniper.Parse(text)
		if dev == nil {
			t.Fatal("nil device")
		}
		text1 := juniper.Print(dev)
		dev2, _ := juniper.Parse(text1)
		if text2 := juniper.Print(dev2); text2 != text1 {
			t.Fatalf("not a fixpoint:\nfirst print:\n%s\nsecond print:\n%s", text1, text2)
		}
	})
}
