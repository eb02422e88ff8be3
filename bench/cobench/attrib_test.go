package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestAttributeSplitsOverlappingLanes(t *testing.T) {
	t0 := time.Unix(1000, 0)
	span := func(stage string, from, to int) obs.Event {
		return obs.Event{Stage: stage, TS: t0.Add(time.Duration(from) * time.Second),
			DurNS: int64(time.Duration(to-from) * time.Second)}
	}
	events := []obs.Event{
		span(obs.StageLLMCall, 0, 4),    // lane 1
		span(obs.StageLocalCheck, 2, 6), // lane 2, overlapping lane 1 over [2,4)
		span(obs.StageBatchRPC, 3, 5),   // nested in the local check: not counted again
		span(obs.StageParse, 3, 4),      // nested too
		// [6,8) has no span: idle.
		span(obs.StageGlobalCheck, 8, 12),   // clipped to the window's end at 10
		span(obs.StageCacheHit, 9, 9),       // a point event
		span(obs.StageLLMCall, -3, -1),      // before the window
		span(obs.StageCheckpointSave, 9, 9), // zero length
	}
	a := attribute(events, t0, t0.Add(10*time.Second))
	want := map[string]float64{laneLLM: 0.3, laneLocal: 0.3, laneIdle: 0.2, laneGlobal: 0.2}
	sum := 0.0
	for lane, share := range a.shares {
		sum += share
		if math.Abs(share-want[lane]) > 1e-9 {
			t.Errorf("share of %s = %v, want %v", lane, share, want[lane])
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	// Busy lanes: 1 over [0,2), 2 over [2,4), 1 over [4,6), 0, 1 over [8,10).
	if want := 1.0; math.Abs(a.lanesBusy-want) > 1e-9 {
		t.Errorf("lanes busy = %v, want %v", a.lanesBusy, want)
	}
}
