package ladm_test

import (
	"strings"
	"testing"

	"ladm"
	"ladm/internal/simtel"
)

func TestFacadeWorkloads(t *testing.T) {
	names := ladm.WorkloadNames()
	if len(names) != 27 {
		t.Fatalf("workloads = %d, want 27", len(names))
	}
	spec, err := ladm.Workload("vecadd", 16)
	if err != nil || spec.W.Name != "vecadd" {
		t.Fatalf("Workload(vecadd): %v, %v", spec, err)
	}
	if _, err := ladm.Workload("nope", 1); err == nil {
		t.Error("unknown workload should error")
	}
	if got := len(ladm.Workloads(16)); got != 27 {
		t.Errorf("Workloads = %d", got)
	}
	if got := len(ladm.WorkloadSuite("RCL", 16)); got != 10 {
		t.Errorf("RCL suite = %d", got)
	}
}

func TestFacadePolicies(t *testing.T) {
	if got := len(ladm.Policies()); got != 9 {
		t.Errorf("policies = %d, want 9", got)
	}
	p, err := ladm.PolicyByName("ladm")
	if err != nil || p.Name != "ladm" {
		t.Fatalf("PolicyByName: %v, %v", p, err)
	}
}

func TestFacadeSystems(t *testing.T) {
	for _, sys := range []ladm.System{
		ladm.TableIIISystem(), ladm.Monolithic(), ladm.FourGPUSwitch(180),
		ladm.FourChipletRing(1400), ladm.DGXLike(),
	} {
		if err := sys.Validate(); err != nil {
			t.Errorf("%s: %v", sys.Name, err)
		}
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	spec, err := ladm.Workload("sq-gemm", 16)
	if err != nil {
		t.Fatal(err)
	}
	sys := ladm.TableIIISystem()
	base, err := ladm.Simulate(spec.W, sys, ladm.HCODA())
	if err != nil {
		t.Fatal(err)
	}
	best, err := ladm.Simulate(spec.W, sys, ladm.LADM())
	if err != nil {
		t.Fatal(err)
	}
	if best.Speedup(base) < 1.0 {
		t.Errorf("LADM should not lose to H-CODA on sq-gemm: %.2f", best.Speedup(base))
	}
}

func TestFacadeDSLAndAnalyze(t *testing.T) {
	// The paper's Figure 6 A access through the public DSL.
	row := ladm.Sum(ladm.Prod(ladm.By, ladm.C(16)), ladm.Ty)
	idx := ladm.Sum(ladm.Prod(row, ladm.Prod(ladm.GDx, ladm.BDx)),
		ladm.Prod(ladm.M, ladm.C(16)), ladm.Tx)
	cl := ladm.Classify(idx, true)
	if cl.Type.TableRow() != 2 {
		t.Errorf("Figure 6 A classified into row %d, want 2", cl.Type.TableRow())
	}
	spec, _ := ladm.Workload("pagerank", 16)
	table := ladm.Analyze(spec.W)
	if len(table.Entries) == 0 || !strings.Contains(table.String(), "ITL") {
		t.Error("locality table missing ITL classification")
	}
}

func TestFacadeSweep(t *testing.T) {
	spec, _ := ladm.Workload("vecadd", 16)
	sys := ladm.TableIIISystem()
	runs, err := ladm.Sweep([]ladm.Job{
		{Workload: spec.W, Policy: ladm.BaselineRR(), Arch: sys},
		{Workload: spec.W, Policy: ladm.LADM(), Arch: sys},
	}, 2)
	if err != nil || len(runs) != 2 {
		t.Fatalf("sweep: %v, %d runs", err, len(runs))
	}
}

func TestSweepOrderAndLabels(t *testing.T) {
	spec, _ := ladm.Workload("vecadd", 16)
	sys := ladm.TableIIISystem()
	runs, err := ladm.Sweep([]ladm.Job{
		{Workload: spec.W, Policy: ladm.BaselineRR(), Arch: sys},
		{Workload: spec.W, Policy: ladm.LADM(), Arch: sys, Label: "tagged"},
		{Workload: spec.W, Policy: ladm.KernelWide(), Arch: sys},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("results = %d", len(runs))
	}
	if runs[0].Policy != "baseline-rr" || runs[1].Policy != "tagged" || runs[2].Policy != "kernel-wide" {
		t.Errorf("order/labels wrong: %s %s %s", runs[0].Policy, runs[1].Policy, runs[2].Policy)
	}
}

func TestSweepMatchesSerial(t *testing.T) {
	spec, _ := ladm.Workload("scalarprod", 16)
	sys := ladm.TableIIISystem()
	serial, err := ladm.Simulate(spec.W, sys, ladm.LADM())
	if err != nil {
		t.Fatal(err)
	}
	runs, err := ladm.Sweep([]ladm.Job{
		{Workload: spec.W, Policy: ladm.LADM(), Arch: sys},
		{Workload: spec.W, Policy: ladm.LADM(), Arch: sys},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if r.Cycles != serial.Cycles || r.DRAMBytes != serial.DRAMBytes {
			t.Errorf("parallel sweep diverged from serial run")
		}
	}
}

func TestSweepErrors(t *testing.T) {
	spec, _ := ladm.Workload("vecadd", 16)
	bad := ladm.TableIIISystem()
	bad.GPUs = 0
	if _, err := ladm.Sweep([]ladm.Job{{Workload: spec.W, Policy: ladm.LADM(), Arch: bad}}, 4); err == nil {
		t.Error("sweep should surface job errors")
	}
	// Empty sweep is fine.
	if runs, err := ladm.Sweep(nil, 4); err != nil || len(runs) != 0 {
		t.Errorf("empty sweep: %v %v", runs, err)
	}
}

// TestSweepKeepsJobCollector: a sweep runs each job as fully as
// SimulateJob does, so a job's telemetry collector sees the same trace.
func TestSweepKeepsJobCollector(t *testing.T) {
	spec, _ := ladm.Workload("vecadd", 16)
	job := func() ladm.Job {
		return ladm.Job{Workload: spec.W, Policy: ladm.LADM(), Arch: ladm.TableIIISystem(),
			Tel: simtel.New(simtel.Config{Trace: true})}
	}
	direct := job()
	if _, err := ladm.SimulateJob(direct); err != nil {
		t.Fatal(err)
	}
	swept := job()
	if _, err := ladm.Sweep([]ladm.Job{swept}, 1); err != nil {
		t.Fatal(err)
	}
	want, got := len(direct.Tel.AllEvents()), len(swept.Tel.AllEvents())
	if want == 0 || got != want {
		t.Errorf("sweep collector saw %d trace events, SimulateJob's %d", got, want)
	}
}

func TestFacadeExperiments(t *testing.T) {
	if got := len(ladm.ExperimentNames()); got != 13 {
		t.Errorf("experiments = %d", got)
	}
	r, err := ladm.Experiment("table2", ladm.ExperimentOptions{})
	if err != nil || !strings.Contains(r.Text, "Table II") {
		t.Fatalf("table2 experiment: %v, %v", r, err)
	}
}
