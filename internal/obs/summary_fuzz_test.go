package obs

import (
	"bytes"
	"os"
	"slices"
	"strings"
	"testing"
)

// FuzzSummarize feeds arbitrary bytes to Summarize, the reader behind
// -trace-summary: a trace file is written by another process, which may
// have been killed mid-line or may not be a trace at all. Summarize must
// return a summary or an error, never both and never a panic, and a
// summary must render. The seeds are a real trace (cosynth -mode
// notransit -topo star:3 -shards 2 -trace), the same with a torn last
// line, with a malformed middle line, an empty file, and a line past the
// scanner's 1 MiB bound.
func FuzzSummarize(f *testing.F) {
	trace, err := os.ReadFile("testdata/star3-shards2.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfter(trace, []byte("\n"))
	last := lines[len(lines)-2] // the trace ends in a newline
	mid := len(lines) / 2
	f.Add(trace)
	f.Add(trace[:len(trace)-len(last)/2])
	f.Add(slices.Concat(bytes.Join(lines[:mid], nil), []byte("{\"stage\":\n"), bytes.Join(lines[mid:], nil)))
	f.Add([]byte{})
	f.Add([]byte(`{"stage":"run","detail":"` + strings.Repeat("x", 1<<20) + "\"}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Summarize(bytes.NewReader(data))
		if (s == nil) == (err == nil) {
			t.Fatalf("Summarize returned summary %v and error %v; want exactly one", s, err)
		}
		if s != nil {
			_ = s.String()
		}
	})
}
