package core_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/batfish"
	"repro/internal/core"
	"repro/internal/lightyear"
	"repro/internal/llm"
	"repro/internal/modularizer"
	"repro/internal/netgen"
)

// TestSharedRevisionConcurrentChecks races the lazily filled compiled-policy
// slot of a shared revision. Several goroutines check every requirement of
// a random:12 spec, each starting at a different requirement, through one
// ParseCache, so they share one revision per router and race on the first
// compile of each route-map. Each goroutine's verdicts must equal a
// sequential check on fresh parses, where every call compiles anew. The
// drafts carry one injected error class per router, cycling through the
// classes, so some verdicts are violations. Run it under the race detector:
//
//	go test -race -count=10 -run TestSharedRevisionConcurrentChecks ./internal/core
func TestSharedRevisionConcurrentChecks(t *testing.T) {
	topo, err := netgen.Generate("random", 12)
	if err != nil {
		t.Fatal(err)
	}
	tasks := modularizer.Tasks(topo)
	classes := llm.AllSynthErrors()
	errs := map[string][]llm.SynthError{}
	for i, task := range tasks {
		errs[task.Router] = []llm.SynthError{classes[i%len(classes)]}
	}
	model := llm.NewSynthesizer(llm.SynthConfig{Seed: 1, Errors: errs})
	configs := map[string]string{}
	for _, task := range tasks {
		text, err := model.Complete([]llm.Message{{Role: llm.RoleAutomated, Content: task.Prompt}})
		if err != nil {
			t.Fatal(err)
		}
		configs[task.Router] = text
	}
	reqs := lightyear.SpecFor(topo)

	check := func(v core.LocalVerifier, req lightyear.Requirement) core.SuiteResult {
		res, err := v.Check(core.SuiteCheck{Kind: core.SuiteLocal, Req: &req, Config: configs[req.Router]})
		if err != nil {
			t.Error(err)
		}
		return res
	}
	want := make([]core.SuiteResult, len(reqs))
	violations := 0
	for i, req := range reqs {
		want[i] = check(core.LocalVerifier{}, req)
		if want[i].Violated {
			violations++
		}
	}
	if violations == 0 {
		t.Fatal("the drafts violate no requirement; the comparison would be vacuous")
	}

	const workers = 4
	shared := core.LocalVerifier{Parses: batfish.NewParseCache()}
	got := make([][]core.SuiteResult, workers)
	var wg sync.WaitGroup
	for w := range workers {
		got[w] = make([]core.SuiteResult, len(reqs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range reqs {
				i := (k + w*len(reqs)/workers) % len(reqs)
				got[w][i] = check(shared, reqs[i])
			}
		}()
	}
	wg.Wait()
	routers := map[string]bool{}
	for _, req := range reqs {
		routers[req.Router] = true
	}
	if n := shared.Parses.Len(); n != len(routers) {
		t.Errorf("parse cache holds %d revisions, want one per checked router (%d)", n, len(routers))
	}
	for w := range got {
		for i := range reqs {
			if !reflect.DeepEqual(got[w][i], want[i]) {
				t.Errorf("worker %d, %s %q: shared revision gave %+v, fresh parse gave %+v",
					w, reqs[i].Router, reqs[i].Description, got[w][i], want[i])
			}
		}
	}
}
