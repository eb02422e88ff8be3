package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/netgen"
)

// synthModel returns the seed-1 simulated LLM the byte-identity gates
// all run against.
func synthModel() llm.Model {
	cfg := llm.DefaultSynthConfig()
	cfg.Seed = 1
	return llm.NewSynthesizer(cfg)
}

// opaqueModel hides a model's Forker capability, forcing the parallel
// loop onto its mutex-guarded shared-model fallback.
type opaqueModel struct{ m llm.Model }

func (o opaqueModel) Complete(messages []llm.Message) (string, error) {
	return o.m.Complete(messages)
}

// TestForkedParallelSynthesisByteIdentical is the acceptance gate for the
// forked per-router model sessions: on every registry scenario, the
// parallel-8 run on independent forked sessions must be byte-identical to
// the parallel-8 run on the serialized shared model it replaced. (The
// parallel transcript legitimately differs from the sequential one — the
// task prompt and repair loop interleave per router — so the gate pins
// forking against the lock, the two implementations of the same merge.)
func TestForkedParallelSynthesisByteIdentical(t *testing.T) {
	for _, s := range netgen.Scenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			topo := mustTopo(t, s.Name, s.DefaultSize)
			run := func(model llm.Model) *Result {
				res, err := core.Synthesize(topo, core.SynthOptions{
					Model:       model,
					Parallelism: 8,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			locked := run(opaqueModel{m: synthModel()})
			forked := run(synthModel())
			if _, ok := interface{}(synthModel()).(llm.Forker); !ok {
				t.Fatalf("synthesizer no longer implements llm.Forker; the gate is vacuous")
			}
			requireSameRun(t, s.Name, locked, forked)
		})
	}
}
