package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestRunSummary runs the claim-by-claim summary at small scale with the
// metrics and trace exports on, and the experiment list.
func TestRunSummary(t *testing.T) {
	t.Cleanup(func() { experiments.Observe = nil })
	dir := t.TempDir()
	metrics, traces := filepath.Join(dir, "metrics.json"), filepath.Join(dir, "trace.jsonl")
	var out bytes.Buffer
	err := run([]string{"-exp", "summary", "-trace-ios", "400", "-iometer-ios", "300", "-time", "-parallel", "1",
		"-metrics-out", metrics, "-trace-out", traces}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "paper:") || !strings.Contains(out.String(), "[summary took") {
		t.Fatalf("summary output lacks claims or timing:\n%s", out.String())
	}
	for _, f := range []string{metrics, traces} {
		if st, err := os.Stat(f); err != nil || st.Size() == 0 {
			t.Errorf("%s not written: %v", f, err)
		}
	}

	out.Reset()
	if err := run([]string{"-list"}, &out); err != nil || !strings.Contains(out.String(), "fig6-cello-base\n") {
		t.Fatalf("-list: %v\n%s", err, out.String())
	}
	if err := run(nil, &out); err == nil {
		t.Fatal("no -exp accepted")
	}
}
