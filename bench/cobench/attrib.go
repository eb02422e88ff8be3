package main

import (
	"sort"
	"time"

	"repro/internal/obs"
)

// Lanes a traced run's wall time is split into.
const (
	laneLLM        = "llm"
	laneLocal      = "local"
	laneGlobal     = "global"
	laneCheckpoint = "checkpoint"
	laneIdle       = "idle"
)

// topLanes maps the top-level span stages to their lanes. Every other
// stage (parse, render, batch_rpc, cache events) nests inside one of
// these, so it is left out rather than counted twice.
var topLanes = map[string]string{
	obs.StageLLMCall:           laneLLM,
	obs.StageLocalCheck:        laneLocal,
	obs.StageGlobalCheck:       laneGlobal,
	obs.StageCheckpointSave:    laneCheckpoint,
	obs.StageCheckpointRestore: laneCheckpoint,
}

// attribution is where one run's wall time went.
type attribution struct {
	// shares splits the wall across lanes, idle included; they sum to 1.
	shares map[string]float64
	// lanesBusy is the average number of top-level spans in flight.
	lanesBusy float64
}

// attribute sweeps the top-level spans clipped to the wall window
// [from, to). Each instant's wall time is split evenly across the spans
// active at that instant, and an instant with none counts as idle, so
// parallel lanes are not summed past 100% of wall.
func attribute(events []obs.Event, from, to time.Time) attribution {
	type edge struct {
		at    time.Time
		lane  string
		delta int
	}
	var edges []edge
	for _, ev := range events {
		lane, ok := topLanes[ev.Stage]
		if !ok || ev.DurNS <= 0 {
			continue
		}
		start, end := ev.TS, ev.TS.Add(time.Duration(ev.DurNS))
		if start.Before(from) {
			start = from
		}
		if end.After(to) {
			end = to
		}
		if !end.After(start) {
			continue
		}
		edges = append(edges, edge{start, lane, +1}, edge{end, lane, -1})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at.Before(edges[j].at) })

	a := attribution{shares: map[string]float64{}}
	wall := to.Sub(from)
	if wall <= 0 {
		return a
	}
	active := map[string]int{}
	total := 0
	var busy float64
	at := from
	advance := func(next time.Time) {
		dt := float64(next.Sub(at))
		at = next
		if dt <= 0 {
			return
		}
		if total == 0 {
			a.shares[laneIdle] += dt
			return
		}
		busy += dt * float64(total)
		for lane, n := range active {
			a.shares[lane] += dt * float64(n) / float64(total)
		}
	}
	for _, e := range edges {
		advance(e.at)
		active[e.lane] += e.delta
		total += e.delta
	}
	advance(to)
	for lane := range a.shares {
		a.shares[lane] /= float64(wall)
	}
	a.lanesBusy = busy / float64(wall)
	return a
}
