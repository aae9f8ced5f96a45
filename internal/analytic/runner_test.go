package analytic

import (
	"context"
	"testing"

	"ladm/internal/core"
	"ladm/internal/stats"
)

type fakeFallback struct {
	got []core.Job
}

func (f *fakeFallback) Sweep(ctx context.Context, jobs []core.Job) ([]*stats.Run, error) {
	f.got = jobs
	runs := make([]*stats.Run, len(jobs))
	for i, j := range jobs {
		runs[i] = &stats.Run{Workload: j.Workload.Name, Policy: j.Policy.Name}
	}
	return runs, nil
}

// TestRunnerSweepSplitsTiers drives a mixed sweep through the oracle:
// regular cells must come back from the model, irregular cells from the
// fallback, in the original job order and with the right tier tags.
func TestRunnerSweepSplitsTiers(t *testing.T) {
	jobs := []core.Job{
		testJob(t, "vecadd", testScale),   // regular
		testJob(t, "lbm", testScale),      // data-dependent: escalates
		testJob(t, "sq-gemm", testScale),  // regular
		testJob(t, "spmv-jds", testScale), // per-block trip counts: escalates
	}
	fb := &fakeFallback{}
	var decisions, classes []string
	r := &Runner{
		Fallback: fb,
		Scale:    testScale,
		OnDecision: func(tier string, d Decision) {
			decisions = append(decisions, tier+"/"+d.Confidence)
			if d.Confidence == ConfidenceEscalate {
				classes = append(classes, d.Class)
			}
		},
	}
	runs, err := r.Sweep(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(jobs) {
		t.Fatalf("got %d runs, want %d", len(runs), len(jobs))
	}
	for i, job := range jobs {
		if runs[i] == nil || runs[i].Workload != job.Workload.Name {
			t.Fatalf("run %d out of order: %+v", i, runs[i])
		}
	}
	if runs[0].Tier != TierAnalytic || runs[2].Tier != TierAnalytic {
		t.Errorf("regular cells served by %q/%q, want analytic", runs[0].Tier, runs[2].Tier)
	}
	if runs[1].Tier != TierEvent || runs[1].Confidence != ConfidenceEscalate {
		t.Errorf("lbm tagged %q/%q, want event/escalate", runs[1].Tier, runs[1].Confidence)
	}
	if runs[3].Tier != TierEvent || runs[3].Confidence != ConfidenceEscalate {
		t.Errorf("spmv-jds tagged %q/%q, want event/escalate", runs[3].Tier, runs[3].Confidence)
	}
	if len(fb.got) != 2 || fb.got[0].Workload.Name != "lbm" || fb.got[1].Workload.Name != "spmv-jds" {
		t.Errorf("fallback saw wrong batch: %d jobs", len(fb.got))
	}
	want := []string{
		TierAnalytic + "/" + ConfidenceHigh,
		TierEvent + "/" + ConfidenceEscalate,
		TierAnalytic + "/" + ConfidenceHigh,
		TierEvent + "/" + ConfidenceEscalate,
	}
	if len(decisions) != len(want) {
		t.Fatalf("got %d decisions, want %d", len(decisions), len(want))
	}
	for i := range want {
		if decisions[i] != want[i] {
			t.Errorf("decision %d = %s, want %s", i, decisions[i], want[i])
		}
	}
	// Every escalation carries a bounded reason class for the metrics
	// label (lbm is data-dependent, spmv-jds has per-block trip counts).
	wantClasses := []string{ReasonDataDependent, ReasonBlockTrips}
	if len(classes) != len(wantClasses) {
		t.Fatalf("got %d escalation classes %v, want %d", len(classes), classes, len(wantClasses))
	}
	for i := range wantClasses {
		if classes[i] != wantClasses[i] {
			t.Errorf("escalation class %d = %q, want %q", i, classes[i], wantClasses[i])
		}
	}
}

// TestRunnerNoFallback pins the model-only mode: escalation without a
// fallback is an error, not a silent wrong answer.
func TestRunnerNoFallback(t *testing.T) {
	r := &Runner{}
	if _, err := r.Sweep(context.Background(), []core.Job{testJob(t, "lbm", testScale)}); err == nil {
		t.Fatal("escalation without a fallback must error")
	}
	runs, err := r.Sweep(context.Background(), []core.Job{testJob(t, "vecadd", testScale)})
	if err != nil {
		t.Fatal(err)
	}
	if runs[0].Tier != TierAnalytic {
		t.Errorf("got tier %q, want analytic", runs[0].Tier)
	}
}
