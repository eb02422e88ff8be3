package core

import (
	"fmt"

	"repro/internal/lightyear"
	"repro/internal/llm"
	"repro/internal/netcfg"
	"repro/internal/topology"
)

// IncrementalOptions configures AddPolicyIncremental.
type IncrementalOptions struct {
	Model    llm.Model
	Verifier Verifier
	// MaxAttempts bounds correction rounds (default 8).
	MaxAttempts int
}

// CustomerTagPolicy is the route map the incremental task adds on R1.
const CustomerTagPolicy = "ADD_COMM_CUST"

// CustomerTag is the community the new policy must attach.
var CustomerTag = netcfg.MustCommunity("99:1")

// AddPolicyIncremental runs the paper's §6 open question as an experiment:
// "Can GPT-4 add a new policy incrementally without interfering with
// existing verified policy?" Starting from verified star configurations,
// it asks the model to add a customer-ingress tagging policy on R1, then
// re-verifies BOTH the new requirement and the entire pre-existing
// no-transit specification (local checks plus the global BGP simulation),
// feeding interference findings back as humanized prompts.
func AddPolicyIncremental(topo *topology.Topology, configs map[string]string,
	opts IncrementalOptions) (*Result, error) {
	if opts.Model == nil {
		return nil, fmt.Errorf("incremental: options require a model")
	}
	if opts.Verifier == nil {
		opts.Verifier = LocalVerifier{}
	}
	// The non-interference re-check re-verifies every requirement on each
	// attempt even though only R1's config changes; the cache makes each
	// (revision, requirement) pair cost one verification and each revision
	// one parse.
	opts.Verifier = NewCachedVerifier(opts.Verifier)
	if opts.MaxAttempts == 0 {
		opts.MaxAttempts = 8
	}
	sess := newSession(opts.Model, nil)
	current := map[string]string{}
	for k, v := range configs {
		current[k] = v
	}

	task := fmt.Sprintf("Add to router R1 a new route-map %s that adds the community %s "+
		"additively to every route received from the CUSTOMER neighbor 1.0.0.2, and apply "+
		"it at that ingress. Keep every existing route-map and neighbor attachment "+
		"unchanged. Print the entire corrected configuration for R1.",
		CustomerTagPolicy, CustomerTag)
	resp, _, err := sess.send(Human, StageTask, "R1", task)
	if err != nil {
		return nil, err
	}
	current["R1"] = resp

	// The old spec plus the one new requirement.
	reqs := append(lightyear.NoTransitSpec(topo), lightyear.Requirement{
		Kind:      lightyear.IngressAddsCommunity,
		Router:    "R1",
		Policy:    CustomerTagPolicy,
		Community: CustomerTag,
		Description: fmt.Sprintf("Every route R1 accepts from the CUSTOMER must carry "+
			"community %s after ingress processing.", CustomerTag),
	})

	verified := false
	for attempt := 0; attempt < opts.MaxAttempts; attempt++ {
		sess.iterations++
		prompt, done, err := nextIncrementalFinding(opts.Verifier, topo, reqs, current)
		if err != nil {
			return nil, err
		}
		if done {
			verified = true
			break
		}
		resp, _, err := sess.send(Automated, StageSemantic, "R1", prompt)
		if err != nil {
			return nil, err
		}
		current["R1"] = resp
	}
	return &Result{Verified: verified, Transcript: sess.transcript, Configs: current,
		Iterations: sess.iterations}, nil
}

// nextIncrementalFinding checks syntax on R1, every local requirement,
// and finally the global simulation — the non-interference re-check.
func nextIncrementalFinding(v Verifier, topo *topology.Topology,
	reqs []lightyear.Requirement, configs map[string]string) (string, bool, error) {
	res, err := v.Check(SuiteCheck{Kind: SuiteSyntax, Config: configs["R1"]})
	if err != nil {
		return "", false, err
	}
	if warns := res.Warnings; len(warns) > 0 {
		return fmt.Sprintf("In the configuration of router R1: there is a syntax error: '%s' (%s). "+
			"Please fix it and print the entire corrected configuration.",
			warns[0].Text, warns[0].Reason), false, nil
	}
	for i := range reqs {
		req := &reqs[i]
		res, err := v.Check(SuiteCheck{Kind: SuiteLocal, Req: req, Config: configs[req.Router]})
		if err != nil {
			return "", false, err
		}
		if res.Violated {
			return res.Violation.Explanation + " Please fix the route-map and print the entire " +
				"corrected configuration.", false, nil
		}
	}
	global, err := v.GlobalNoTransit(topo, configs)
	if err != nil {
		return "", false, err
	}
	if !global.OK() {
		counterexample := "the BGP simulation did not converge"
		if len(global.Violations) > 0 {
			counterexample = global.Violations[0]
		} else if len(global.MissingReachability) > 0 {
			counterexample = global.MissingReachability[0]
		}
		return fmt.Sprintf("The change interferes with the existing verified no-transit "+
			"policy: %s. Restore the existing policies and neighbor attachments on R1 while "+
			"keeping the new route-map, then print the entire corrected configuration.",
			counterexample), false, nil
	}
	return "", true, nil
}
