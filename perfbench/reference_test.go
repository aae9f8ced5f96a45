package main

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"ladm/internal/experiments"
)

var update = flag.Bool("update", false, "regenerate the fig9-fleet reference digests and table (takes about a minute)")

// TestFig9Reference regenerates testdata/ from an in-process run of the
// campaign when -update is given. The benchmark then checks every cell
// it gets back through the fleet against these digests, so the
// reference comes from the local pool path, not from the path under test.
func TestFig9Reference(t *testing.T) {
	if !*update {
		t.Skip("run with -update to regenerate the reference")
	}
	res, err := experiments.Fig9(experiments.Options{Scale: fig9Scale})
	if err != nil {
		t.Fatal(err)
	}
	ref := fig9Ref{Scale: fig9Scale}
	for _, run := range res.Runs {
		ref.Cells = append(ref.Cells, cellRef{Workload: run.Workload, Policy: run.Policy,
			Arch: run.Arch, SHA256: digest(run)})
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/fig9_scale64.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/fig9_scale64_table.txt", []byte(res.Text), 0o644); err != nil {
		t.Fatal(err)
	}
}
