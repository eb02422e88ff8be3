package fuzz

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// checkpointCampaign is the small sweep the crash/resume tests run: four
// cases, sequential so the kill point is deterministic.
func checkpointCampaign(path string) Campaign {
	return Campaign{
		Family:     "random",
		Sizes:      []int{4, 6},
		Seeds:      2,
		Workers:    1,
		Checkpoint: path,
	}
}

// requireSameSweep compares two reports case by case on every
// deterministic dimension (wall-clock stats legitimately differ across
// runs).
func requireSameSweep(t *testing.T, label string, a, b *Report) {
	t.Helper()
	if a.Cases != b.Cases || a.Skipped != b.Skipped || a.Failures != b.Failures {
		t.Fatalf("%s: sweep shape diverged: %d/%d/%d vs %d/%d/%d", label,
			a.Cases, a.Skipped, a.Failures, b.Cases, b.Skipped, b.Failures)
	}
	if len(a.Results) != len(b.Results) {
		t.Fatalf("%s: %d results vs %d", label, len(a.Results), len(b.Results))
	}
	for i := range a.Results {
		x, y := a.Results[i], b.Results[i]
		if !reflect.DeepEqual(x.Case, y.Case) || !reflect.DeepEqual(x.Failure, y.Failure) ||
			x.Iterations != y.Iterations || x.Automated != y.Automated || x.Human != y.Human {
			t.Fatalf("%s: case %d diverged:\n%+v\n%+v", label, i, x, y)
		}
	}
}

// TestCampaignCrashResumeMatchesUninterrupted kills a sweep after its
// second case via the crash seam, then resumes it: the recorded cases
// must be reused without re-running (proved by a zero-budget probe that
// still reports them) and the completed resume must match an
// uninterrupted baseline case for case.
func TestCampaignCrashResumeMatchesUninterrupted(t *testing.T) {
	base := checkpointCampaign("")
	base.Checkpoint = ""
	baseline, err := base.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "campaign.json")
	crashed := checkpointCampaign(path)
	crashed.AbortAfterCases = 2
	if _, err := crashed.Run(context.Background()); !errors.Is(err, ErrCampaignAborted) {
		t.Fatalf("crash seam did not fire: err = %v", err)
	}

	// Zero budget: fresh cases are skipped, yet the two recorded cases
	// still enter the report — reuse is free.
	probe := checkpointCampaign(path)
	probe.Resume = true
	probe.Budget = 1
	prep, err := probe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if prep.Cases != 2 || prep.Skipped != 2 {
		t.Fatalf("probe reused %d cases and skipped %d, want 2/2", prep.Cases, prep.Skipped)
	}

	resumed := checkpointCampaign(path)
	resumed.Resume = true
	rep, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	requireSameSweep(t, "crash-resume", baseline, rep)
}

// TestCampaignResumeRefusesDifferentKnobs pins the campaign-key check: a
// checkpoint recorded under one alphabet must not seed a campaign whose
// knobs would produce different outcomes.
func TestCampaignResumeRefusesDifferentKnobs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.json")
	c := Campaign{Family: "random", Sizes: []int{4}, Seeds: 1, Checkpoint: path}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	other := Campaign{Family: "random", Sizes: []int{4}, Seeds: 2,
		Checkpoint: path, Resume: true}
	_, err := other.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "different knobs") {
		t.Fatalf("knob mismatch not refused: err = %v", err)
	}
}

// forgeCase rewrites one recorded result of a campaign checkpoint so it
// names another case, with a failure that case never had.
func forgeCase(t testing.TB, data []byte, key string, forged Case) []byte {
	t.Helper()
	var ck campaignCheckpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		t.Fatal(err)
	}
	res, ok := ck.Results[key]
	if !ok {
		t.Fatalf("the checkpoint records no %s", key)
	}
	res.Case = forged
	res.Failure = &Failure{Property: PropVerified, Detail: "forged"}
	ck.Results[key] = res
	out, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCampaignResumeRefusesForeignCase resumes a random:4 sweep whose
// checkpoint records, under its one case's key, a failed random:60 case:
// a case outside the sweep must not enter the report, so the resume fails
// naming the key.
func TestCampaignResumeRefusesForeignCase(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.json")
	c := Campaign{Family: "random", Sizes: []int{4}, Seeds: 1, Checkpoint: path}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	forged := forgeCase(t, data, "random:4:1", Case{Family: "random", Size: 60, Seed: 3, ExtraEdges: -1})
	if err := os.WriteFile(path, forged, 0o644); err != nil {
		t.Fatal(err)
	}
	c.Resume = true
	rep, err := c.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "random:4:1") {
		t.Fatalf("resume = %+v, %v; want an error naming the key random:4:1", rep, err)
	}
}
