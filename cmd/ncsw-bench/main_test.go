package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
)

// TestJSONReplaysSnapshots replays the committed BENCH_PR*.json
// snapshots whose experiments are fully simulated: the JSON emission
// must match byte for byte.
func TestJSONReplaysSnapshots(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment re-runs skipped in -short mode (race job); the test job runs them")
	}
	for _, tc := range []struct {
		args     []string
		snapshot string
	}{
		{[]string{"-experiment", "serving", "-json"}, "BENCH_PR2.json"},
		{[]string{"-experiment", "slo", "-json"}, "BENCH_PR3.json"},
		{[]string{"-experiment", "resilience", "-json"}, "BENCH_PR4.json"},
		{[]string{"-experiment", "tenants", "-json"}, "BENCH_PR9.json"},
		{[]string{"-experiment", "scenarios", "-json"}, "BENCH_PR10.json"},
		{[]string{"-scenario", "../../scenarios", "-json"}, "BENCH_PR10.json"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			want, err := os.ReadFile("../../" + tc.snapshot)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := run(tc.args, &got, io.Discard); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("output differs from %s", tc.snapshot)
			}
		})
	}
}

// TestFlagErrors checks that a flag combination the command cannot
// honour fails with an error naming the problem, instead of running
// with a flag silently dropped.
func TestFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-json"}, `experiment "all" has no points`},
		{[]string{"-json", "-experiment", "fig6a"}, `experiment "fig6a" has no points`},
		{[]string{"-json", "-experiment", "fig6a,fig6b"}, `experiment "fig6a,fig6b" has no points`},
		{[]string{"-experiment", "nope"}, `unknown experiment "nope"`},
		{[]string{"-json", "-experiment", "slo", "-markdown"}, "-json ignores -markdown"},
		{[]string{"-hetero", "-json"}, "-hetero ignores -json"},
		{[]string{"-hetero", "-experiment", "slo"}, "-hetero ignores -experiment"},
		{[]string{"-scenario", "../../scenarios", "-markdown"}, "-scenario ignores -markdown"},
		{[]string{"-scenario", "../../scenarios", "-full"}, "-scenario ignores -full"},
		{[]string{"-scenario", "../../scenarios", "-images", "10"}, "-scenario ignores -images"},
		{[]string{"-scenario", "../../scenarios", "-subsets", "2"}, "-scenario ignores -subsets"},
		{[]string{"-scenario", "../../scenarios", "-functional-images", "2"}, "-scenario ignores -functional-images"},
		{[]string{"-scenario", "../../scenarios", "-experiment", "slo"}, "-scenario ignores -experiment"},
		{[]string{"fig6a"}, `unexpected argument "fig6a"`},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var stdout bytes.Buffer
			err := run(tc.args, &stdout, io.Discard)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one containing %q", err, tc.want)
			}
			if stdout.Len() > 0 {
				t.Errorf("wrote %d bytes to stdout before failing", stdout.Len())
			}
		})
	}
}
