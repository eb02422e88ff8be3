package cisco_test

import (
	"sort"
	"testing"

	"repro/internal/cisco"
	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/netcfg"
	"repro/internal/netgen"
)

// textCorpus returns the final configurations of a synthesis run on
// random:75, the repair loop's largest routine texts (an attachment's
// egress route-map holds 73 deny clauses), in router order.
func textCorpus(b *testing.B) []string {
	topo, err := netgen.Random(75)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Synthesize(topo, core.SynthOptions{
		Model: llm.NewSynthesizer(llm.DefaultSynthConfig()), SkipGlobalCheck: true})
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, 0, len(res.Configs))
	for name := range res.Configs {
		names = append(names, name)
	}
	sort.Strings(names)
	texts := make([]string, len(names))
	for i, name := range names {
		texts[i] = res.Configs[name]
	}
	return texts
}

// BenchmarkPrint reports Print's throughput over the corpus, in bytes of
// text written.
func BenchmarkPrint(b *testing.B) {
	texts := textCorpus(b)
	devs := make([]*netcfg.Device, len(texts))
	size := 0
	for i, text := range texts {
		devs[i], _ = cisco.Parse(text)
		size += len(text)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, d := range devs {
			cisco.Print(d)
		}
	}
}

// BenchmarkParse reports Parse's throughput over the corpus, in bytes of
// text read.
func BenchmarkParse(b *testing.B) {
	texts := textCorpus(b)
	size := 0
	for _, text := range texts {
		size += len(text)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, text := range texts {
			cisco.Parse(text)
		}
	}
}
