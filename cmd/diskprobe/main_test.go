package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunProbes calibrates one drive and checks every section of the
// report is printed.
func TestRunProbes(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-seed", "3", "-rpm", "10000"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"rotation period:", "command overhead:", "seek curve:", "head tracker:", "simulated time consumed"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}
