package fuzz

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzResumeCampaign resumes a tiny sweep, random:4 with three seeds,
// from arbitrary checkpoint files. Run must return a report or an error,
// never panic, and never report a case outside the sweep. The seeds are
// the real checkpoints the sweep leaves after 1, 2 and 3 cases, an empty
// object, a truncated checkpoint, one of a newer format version, one
// under another campaign's key, and one recording a foreign case under a
// sweep case's key.
func FuzzResumeCampaign(f *testing.F) {
	sweep := func(path string, abortAfter int, resume bool) Campaign {
		return Campaign{Family: "random", Sizes: []int{4}, Seeds: 3, ShrinkBudget: 4,
			Checkpoint: path, Resume: resume, AbortAfterCases: abortAfter}
	}
	dir := f.TempDir()
	var two []byte
	for cases := 1; cases <= 3; cases++ {
		path := filepath.Join(dir, fmt.Sprintf("cases%d.json", cases))
		c := sweep(path, cases, false)
		if _, err := c.Run(context.Background()); !errors.Is(err, ErrCampaignAborted) {
			f.Fatalf("%d cases: the crash seam did not fire: %v", cases, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		if cases == 2 {
			two = data
		}
	}
	f.Add([]byte(`{}`))
	f.Add(two[:len(two)/2])
	edit := func(change func(ck map[string]json.RawMessage)) {
		var ck map[string]json.RawMessage
		if err := json.Unmarshal(two, &ck); err != nil {
			f.Fatal(err)
		}
		change(ck)
		data, err := json.Marshal(ck)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	edit(func(ck map[string]json.RawMessage) {
		ck["version"] = json.RawMessage(fmt.Sprint(CheckpointVersion + 1))
	})
	edit(func(ck map[string]json.RawMessage) {
		other := Campaign{Family: "random", Sizes: []int{5}, Seeds: 3}
		ck["key"], _ = json.Marshal(other.campaignKey())
	})
	f.Add(forgeCase(f, two, "random:4:1", Case{Family: "random", Size: 60, Seed: 3, ExtraEdges: -1}))

	want := map[string]bool{}
	plain := sweep("", 0, false)
	cases, err := plain.Cases()
	if err != nil {
		f.Fatal(err)
	}
	for _, cs := range cases {
		data, _ := json.Marshal(cs)
		want[string(data)] = true
	}
	f.Fuzz(func(t *testing.T, file []byte) {
		path := filepath.Join(t.TempDir(), "campaign.json")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		c := sweep(path, 0, true)
		rep, err := c.Run(context.Background())
		if (rep == nil) == (err == nil) {
			t.Fatalf("Run returned report %v and error %v, want exactly one", rep, err)
		}
		if rep == nil {
			return
		}
		reported := make([]Case, 0, len(rep.Results)+1)
		for _, res := range rep.Results {
			reported = append(reported, res.Case)
		}
		if cx := rep.Counterexample; cx != nil {
			reported = append(reported, cx.Original)
		}
		for _, cs := range reported {
			if data, _ := json.Marshal(cs); !want[string(data)] {
				t.Fatalf("the report holds the case %s, outside the sweep", cs)
			}
		}
	})
}
