package core

import (
	"reflect"
	"testing"

	"repro/internal/llm"
	"repro/internal/netgen"
)

// plainVerifier hides the underlying verifier's concrete type behind the
// bare Verifier interface: CachedVerifier sees neither a LocalVerifier nor
// the incremental-global capability, so every global check runs cold
// through GlobalNoTransit — the pre-incremental behavior.
type plainVerifier struct{ Verifier }

// requireSameOutcome pins two runs' externally visible outcomes against
// each other: the incremental global session must never change what a run
// produces, only what it costs.
func requireSameOutcome(t *testing.T, with, without *Result) {
	t.Helper()
	if with.Verified != without.Verified {
		t.Errorf("Verified: incremental=%v cold=%v", with.Verified, without.Verified)
	}
	if with.Iterations != without.Iterations {
		t.Errorf("Iterations: incremental=%d cold=%d", with.Iterations, without.Iterations)
	}
	if !reflect.DeepEqual(with.Transcript, without.Transcript) {
		t.Errorf("transcripts diverge\nincremental:\n%s\ncold:\n%s",
			with.Transcript, without.Transcript)
	}
	if !reflect.DeepEqual(with.Configs, without.Configs) {
		t.Error("final configurations diverge between incremental and cold global checks")
	}
}

// TestAddPolicyIncrementalUnchangedByIncrementalGlobal runs the §6
// incremental-policy experiment twice — once with the default verifier
// (which carries the in-process incremental global session) and once with
// the capability hidden — and requires byte-identical transcripts and
// configurations.
func TestAddPolicyIncrementalUnchangedByIncrementalGlobal(t *testing.T) {
	topo, err := netgen.Star(5)
	if err != nil {
		t.Fatal(err)
	}
	run := func(v Verifier) *Result {
		model := llm.NewSynthesizer(llm.DefaultSynthConfig())
		base, err := Synthesize(topo, SynthOptions{Model: model})
		if err != nil {
			t.Fatal(err)
		}
		res, err := AddPolicyIncremental(topo, base.Configs, IncrementalOptions{
			Model: model, Verifier: v})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	requireSameOutcome(t, run(nil), run(plainVerifier{LocalVerifier{}}))
}

// TestSynthesizeGlobalUnchangedByIncrementalGlobal does the same for the
// global-prompting ablation, whose counterexample loop re-simulates the
// whole network every round — the loop the tracker's hints accelerate.
func TestSynthesizeGlobalUnchangedByIncrementalGlobal(t *testing.T) {
	topo, err := netgen.Star(4)
	if err != nil {
		t.Fatal(err)
	}
	run := func(v Verifier) *Result {
		res, err := SynthesizeGlobal(topo, GlobalSynthOptions{
			Model:       llm.NewGlobalSynthesizer(),
			Verifier:    v,
			MaxAttempts: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	requireSameOutcome(t, run(nil), run(plainVerifier{LocalVerifier{}}))
}
