package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/layout"
	"repro/internal/service"
	"repro/internal/slo"
)

// TestRunSmoke runs the double-run determinism check plain and with the
// SLO control plane, and a small load.
func TestRunSmoke(t *testing.T) {
	for _, args := range [][]string{{"-smoke"}, {"-smoke", "-slo"}} {
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out.String())
		}
		if !strings.Contains(out.String(), "smoke ok") {
			t.Fatalf("%v: no verdict:\n%s", args, out.String())
		}
	}
	var out bytes.Buffer
	if err := run([]string{"-load", "-tenants", "20", "-requests", "400", "-slo"}, &out); err != nil {
		t.Fatalf("-load: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "digest sha256") {
		t.Fatalf("-load: no report:\n%s", out.String())
	}
}

// TestServeDrains starts the HTTP front-end on an ephemeral port with the
// stop signal already pending: it must print its banner, drain and exit
// cleanly.
func TestServeDrains(t *testing.T) {
	var out bytes.Buffer
	stop := make(chan os.Signal, 1)
	stop <- os.Interrupt
	build := func() (*core.Array, *slo.Controller, error) {
		a, err := core.New(des.New(), core.Options{Config: layout.Config{Ds: 2, Dr: 1, Dm: 1}, Policy: "satf", Seed: 1})
		return a, nil, err
	}
	if err := serve(&out, build, service.Limits{}, "localhost:0", stop); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "serving") || !strings.HasSuffix(out.String(), "drained, bye\n") {
		t.Fatalf("serve output:\n%s", out.String())
	}
}
