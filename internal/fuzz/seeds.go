package fuzz

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/modularizer"
	"repro/internal/netgen"
	"repro/internal/topology"
)

// ParserSeeds returns configuration texts that seed the parsers' native fuzz
// targets (cisco.FuzzParse, juniper.FuzzParse): for every registry family at
// its smallest size and every synthesis error class, each router's first
// draft with that class injected and the repair loop's final configuration.
// The texts are deterministic and deduplicated, in generation order.
func ParserSeeds() ([]string, error) {
	var out []string
	seen := map[string]bool{}
	add := func(text string) {
		if !seen[text] {
			seen[text] = true
			out = append(out, text)
		}
	}
	for _, sc := range netgen.Scenarios() {
		topo, err := smallest(sc)
		if err != nil {
			return nil, err
		}
		tasks := modularizer.Tasks(topo)
		for _, e := range llm.AllSynthErrors() {
			errs := map[string][]llm.SynthError{}
			for _, task := range tasks {
				errs[task.Router] = []llm.SynthError{e}
			}
			cfg := llm.SynthConfig{Seed: 1, Errors: errs}
			drafts := llm.NewSynthesizer(cfg)
			for _, task := range tasks {
				text, err := drafts.Complete([]llm.Message{
					{Role: llm.RoleAutomated, Content: task.Prompt}})
				if err != nil {
					return nil, fmt.Errorf("%s/%s: %v", sc.Name, e, err)
				}
				add(text)
			}
			res, err := core.Synthesize(topo, core.SynthOptions{
				Model: llm.NewSynthesizer(cfg), SkipGlobalCheck: true})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %v", sc.Name, e, err)
			}
			for _, task := range tasks {
				add(res.Configs[task.Router])
			}
		}
	}
	return out, nil
}

// smallest generates a family at the smallest size its generator accepts.
func smallest(sc netgen.Scenario) (*topology.Topology, error) {
	for n := 1; n <= sc.MaxSize; n++ {
		if topo, err := sc.Generate(n); err == nil {
			return topo, nil
		}
	}
	return nil, fmt.Errorf("%s: no size up to %d generates", sc.Name, sc.MaxSize)
}
