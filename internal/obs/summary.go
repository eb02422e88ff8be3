package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// topStages are the stages whose spans partition a sequential run's wall
// time: model completions, verification dispatch, the global check,
// checkpointing, and the durable cache's pack writes. Everything else in
// a trace (parses, cache events, batch RPCs, retries) nests inside one of
// these, so summing only the top set attributes the run without double
// counting. On a parallel run top spans overlap and the attributed
// fraction can exceed 1.
var topStages = map[string]bool{
	StageLLMCall:           true,
	StageLocalCheck:        true,
	StageGlobalCheck:       true,
	StageCheckpointSave:    true,
	StageCheckpointRestore: true,
	StageCacheFlush:        true,
}

// StageAgg aggregates one stage's spans.
type StageAgg struct {
	Stage string
	Count int
	NS    int64
}

// ShardAgg aggregates one REST endpoint's batch RPCs.
type ShardAgg struct {
	Shard   string
	RPCs    int
	Checks  int
	Bytes   int64
	NS      int64
	Retries int
}

// Summary is the folded view of one trace file: where the run's wall
// time and round-trips went.
type Summary struct {
	Events int
	Runs   int
	RunNS  int64 // summed duration of StageRun spans
	Stages map[string]*StageAgg
	Shards map[string]*ShardAgg
	// Cache tallies from point events.
	CacheHitsMemory, CacheHitsDisk, CacheMisses int
}

// Summarize folds a JSONL trace stream into a Summary. Unknown stages
// are aggregated like any other; malformed lines are an error (a trace
// file is machine-written, so damage means truncation worth surfacing).
// A trailing partial line (process killed mid-write) is tolerated.
func Summarize(r io.Reader) (*Summary, error) {
	s := &Summary{Stages: map[string]*StageAgg{}, Shards: map[string]*ShardAgg{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			if !sc.Scan() { // last line: torn write from a killed process
				break
			}
			return nil, fmt.Errorf("trace line %d: %v", lineNo, err)
		}
		s.add(ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if s.Events == 0 {
		return nil, fmt.Errorf("trace contains no events")
	}
	return s, nil
}

func (s *Summary) add(ev Event) {
	s.Events++
	if ev.Stage == StageRun {
		s.Runs++
		s.RunNS += ev.DurNS
		return
	}
	agg := s.Stages[ev.Stage]
	if agg == nil {
		agg = &StageAgg{Stage: ev.Stage}
		s.Stages[ev.Stage] = agg
	}
	agg.Count++
	agg.NS += ev.DurNS

	switch ev.Stage {
	case StageCacheHit:
		if ev.Outcome == "disk" {
			s.CacheHitsDisk++
		} else {
			s.CacheHitsMemory++
		}
	case StageCacheMiss:
		s.CacheMisses++
	}
	if ev.Shard != "" {
		sh := s.Shards[ev.Shard]
		if sh == nil {
			sh = &ShardAgg{Shard: ev.Shard}
			s.Shards[ev.Shard] = sh
		}
		switch ev.Stage {
		case StageBatchRPC:
			sh.RPCs++
			sh.Checks += ev.Checks
			sh.Bytes += ev.Bytes
			sh.NS += ev.DurNS
		case StageRetry:
			sh.Retries++
		}
	}
}

// AttributedNS returns the wall time accounted to top-level stages.
func (s *Summary) AttributedNS() int64 {
	var n int64
	for stage, agg := range s.Stages {
		if topStages[stage] {
			n += agg.NS
		}
	}
	return n
}

// AttributedFraction is AttributedNS over the run span — the "where did
// the time go" coverage. Zero when the trace has no run span.
func (s *Summary) AttributedFraction() float64 {
	if s.RunNS == 0 {
		return 0
	}
	return float64(s.AttributedNS()) / float64(s.RunNS)
}

// String renders the attribution table: per-stage wall time against the
// run span, then the per-shard transport table.
func (s *Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d events, %d run span(s), wall %v\n", s.Events, s.Runs, time.Duration(s.RunNS))
	fmt.Fprintf(&b, "\n%-20s %10s %14s %8s\n", "stage", "count", "time", "of run")
	stages := make([]*StageAgg, 0, len(s.Stages))
	for _, agg := range s.Stages {
		stages = append(stages, agg)
	}
	sort.Slice(stages, func(i, j int) bool {
		if stages[i].NS != stages[j].NS {
			return stages[i].NS > stages[j].NS
		}
		return stages[i].Stage < stages[j].Stage
	})
	for _, agg := range stages {
		pct := "-"
		mark := " "
		if topStages[agg.Stage] {
			mark = "*"
		}
		if s.RunNS > 0 {
			pct = fmt.Sprintf("%.1f%%", 100*float64(agg.NS)/float64(s.RunNS))
		}
		fmt.Fprintf(&b, "%-20s %10d %14v %8s%s\n", agg.Stage, agg.Count, time.Duration(agg.NS), pct, mark)
	}
	fmt.Fprintf(&b, "%-20s %10s %14v %7.1f%%  (* = top-level stages; nested stages excluded)\n",
		"attributed", "", time.Duration(s.AttributedNS()), 100*s.AttributedFraction())
	if s.CacheHitsMemory+s.CacheHitsDisk+s.CacheMisses > 0 {
		fmt.Fprintf(&b, "\ncache: %d memory hits, %d disk hits, %d misses\n",
			s.CacheHitsMemory, s.CacheHitsDisk, s.CacheMisses)
	}
	if len(s.Shards) > 0 {
		fmt.Fprintf(&b, "\n%-28s %6s %8s %12s %12s %8s\n",
			"shard", "rpcs", "checks", "bytes", "time", "retries")
		shards := make([]*ShardAgg, 0, len(s.Shards))
		for _, sh := range s.Shards {
			shards = append(shards, sh)
		}
		sort.Slice(shards, func(i, j int) bool { return shards[i].Shard < shards[j].Shard })
		for _, sh := range shards {
			fmt.Fprintf(&b, "%-28s %6d %8d %12d %12v %8d\n",
				sh.Shard, sh.RPCs, sh.Checks, sh.Bytes, time.Duration(sh.NS), sh.Retries)
		}
	}
	return b.String()
}
