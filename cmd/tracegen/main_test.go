package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestRunWritesTrace generates a short trace per workload and reads it
// back in the trace format.
func TestRunWritesTrace(t *testing.T) {
	for _, w := range []string{"cello-base", "cello-disk6", "tpcc"} {
		var out bytes.Buffer
		if err := run([]string{"-workload", w, "-ios", "300", "-seed", "7", "-stats"}, &out); err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		tr, err := trace.Read(&out)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if len(tr.Records) == 0 || tr.DataSectors == 0 {
			t.Fatalf("%s: empty trace %q (%d sectors)", w, tr.Name, tr.DataSectors)
		}
	}
	var out bytes.Buffer
	if err := run([]string{"-workload", "tpcc", "-duration", "2s"}, &out); err != nil || !strings.HasPrefix(out.String(), "# name ") {
		t.Fatalf("-duration: %v", err)
	}
	if err := run([]string{"-workload", "nope"}, &out); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
