package core

import (
	"fmt"

	"repro/internal/llm"
	"repro/internal/modularizer"
	"repro/internal/topology"
)

// GlobalSynthOptions configures the global-prompting ablation (§4.1).
type GlobalSynthOptions struct {
	Model    llm.Model
	Verifier Verifier
	// MaxAttempts bounds counterexample rounds before giving up
	// (default 6; the paper gave up too — that is the point).
	MaxAttempts int
}

// SynthesizeGlobal runs the paper's failed first approach: specify the
// global no-transit policy at once and feed back whole-network
// counterexamples (as a global verifier like Minesweeper would produce).
// With the oscillating simulated model this does not converge — the
// result documents the prompts consumed and Verified=false, motivating
// the local-specification approach of Synthesize.
func SynthesizeGlobal(topo *topology.Topology, opts GlobalSynthOptions) (*Result, error) {
	if opts.Model == nil {
		return nil, fmt.Errorf("synthesize-global: options require a model")
	}
	if opts.Verifier == nil {
		opts.Verifier = LocalVerifier{}
	}
	if opts.MaxAttempts == 0 {
		opts.MaxAttempts = 6
	}
	sess := newSession(opts.Model, nil)

	resp, _, err := sess.send(Human, StageTask, "network", modularizer.GlobalPrompt(topo))
	if err != nil {
		return nil, err
	}
	configs := llm.SplitConfigs(resp)

	verified := false
	for attempt := 0; attempt < opts.MaxAttempts; attempt++ {
		global, err := opts.Verifier.GlobalNoTransit(topo, configs)
		if err != nil {
			return nil, err
		}
		if global.OK() {
			verified = true
			break
		}
		// Counterexample feedback, as a global verifier would phrase it.
		var counterexample string
		if len(global.Violations) > 0 {
			counterexample = global.Violations[0]
		} else if len(global.MissingReachability) > 0 {
			counterexample = global.MissingReachability[0]
		} else {
			counterexample = "the BGP simulation did not converge"
		}
		prompt := fmt.Sprintf("The network does not satisfy the no-transit policy. "+
			"Counterexample: %s. Please fix the configurations and print all of them.",
			counterexample)
		resp, _, err := sess.send(Automated, StageSemantic, "network", prompt)
		if err != nil {
			return nil, err
		}
		configs = llm.SplitConfigs(resp)
	}
	return &Result{Verified: verified, Transcript: sess.transcript, Configs: configs}, nil
}
