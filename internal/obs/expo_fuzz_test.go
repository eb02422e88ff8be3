package obs

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzValidateExposition fuzzes the exposition parser that gates every
// /metrics surface (cmd/promcheck, CI's live scrape). Two properties hold
// for any input. First, the validator returns, without panicking. Second,
// a registry whose label values are the input — quotes, backslashes,
// newlines, braces, and URLs like the REST client's per-endpoint label —
// renders an exposition that validates, and the input and its
// newline-spelled-out twin stay distinct series.
func FuzzValidateExposition(f *testing.F) {
	for _, seed := range []string{
		"",
		"http://127.0.0.1:9181",
		`weird"name\with` + "\n" + `stuff`,
		`a}b{c="d"} 1`,
		`\`,
		"# TYPE m counter\nm 1\n",
		"# TYPE m counter\nm{a=\"b\" 1\n",
		"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
		"# TYPE m counter\nm{a=\"\\q\"} 1 17\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		_ = ValidateExposition(strings.NewReader(input))

		reg := NewRegistry()
		reg.Counter("cosynth_rest_calls_total", "endpoint", input).Inc()
		reg.Counter("cosynth_rest_calls_total", "endpoint", strings.ReplaceAll(input, "\n", `\n`)).Add(2)
		reg.Gauge("fuzz_current", "path", input, "endpoint", input).Set(-3)
		reg.Histogram("cosynth_rest_batch_seconds", DefSecondsBuckets, "endpoint", input).Observe(0.25)
		reg.Counter("fuzz_total").Inc()
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if err := ValidateExposition(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("exposition with label value %q fails validation: %v\n%s", input, err, buf.Bytes())
		}
	})
}
