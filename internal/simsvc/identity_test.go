package simsvc_test

import (
	"context"
	"reflect"
	"testing"

	"ladm/internal/arch"
	"ladm/internal/core"
	"ladm/internal/experiments"
	"ladm/internal/kernels"
	"ladm/internal/kir"
	rt "ladm/internal/runtime"
	"ladm/internal/simsvc"
	"ladm/internal/simtel"
	"ladm/internal/stats"
)

// oracleRequest recognizes a job by rebuilding it: the workload must be
// byte-equal to its registry build at scale, the policy a preset, the
// machine a registered configuration, and the job must carry no
// collector. It is the reference the jobs' registry identities are
// checked against.
func oracleRequest(job core.Job, scale int) (simsvc.Request, bool) {
	if job.Tel != nil || job.Workload == nil {
		return simsvc.Request{}, false
	}
	spec, err := kernels.ByName(job.Workload.Name, scale)
	if err != nil || !kir.Equal(spec.W, job.Workload) {
		return simsvc.Request{}, false
	}
	pol, err := rt.ByName(job.Policy.Name)
	if err != nil || !reflect.DeepEqual(pol, job.Policy) {
		return simsvc.Request{}, false
	}
	for _, name := range arch.Names() {
		if built, err := arch.ByName(name); err == nil && built == job.Arch {
			return simsvc.Request{Workload: job.Workload.Name, Policy: pol.Name,
				Machine: name, Scale: scale}.Normalize(), true
		}
	}
	return simsvc.Request{}, false
}

// checkIdentity asserts that RequestForJob names job exactly when the
// oracle does, with the oracle's request.
func checkIdentity(t *testing.T, what string, job core.Job, scale int) {
	t.Helper()
	want, wantOK := oracleRequest(job, scale)
	got, gotOK := simsvc.RequestForJob(job, scale)
	if gotOK != wantOK || (gotOK && got.Normalize() != want) {
		t.Errorf("%s: RequestForJob = %+v, %v; oracle = %+v, %v", what, got, gotOK, want, wantOK)
	}
}

func TestRequestForJob(t *testing.T) {
	const scale = 8
	named := func() core.Job {
		t.Helper()
		job, err := simsvc.Request{Workload: "vecadd", Policy: "ladm", Machine: "hier", Scale: scale}.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		return job
	}
	req, ok := simsvc.RequestForJob(named(), scale)
	want := simsvc.Request{Workload: "vecadd", Policy: "ladm", Machine: "hier", Scale: scale}.Normalize()
	if !ok || req != want {
		t.Fatalf("named job: %+v, %v; want %+v", req, ok, want)
	}
	checkIdentity(t, "named", named(), scale)

	// Code that mutates a named job clears its identity; the oracle
	// independently refuses the mutation.
	mutated := named()
	mutated.Workload.Launches[0].Times += 2
	mutated.Identity = core.Identity{}
	checkIdentity(t, "mutated workload", mutated, scale)

	resized := named()
	resized.Arch.SMsPerChiplet *= 2
	resized.Identity = core.Identity{}
	checkIdentity(t, "resized machine", resized, scale)

	// A caller-owned collector makes the record collector-dependent.
	withTel := named()
	withTel.Tel = simtel.New(simtel.Config{SampleEvery: simtel.DefaultSampleEvery})
	checkIdentity(t, "telemetry", withTel, scale)

	checkIdentity(t, "wrong scale", named(), scale+1)

	for _, job := range []core.Job{mutated, resized, withTel} {
		if _, ok := oracleRequest(job, scale); ok {
			t.Errorf("oracle named a job it must refuse: %+v", job.Identity)
		}
	}
}

// recordingRunner returns a plausible record for every job and keeps
// the jobs for inspection.
type recordingRunner struct{ jobs []core.Job }

func (r *recordingRunner) Sweep(_ context.Context, jobs []core.Job) ([]*stats.Run, error) {
	runs := make([]*stats.Run, len(jobs))
	for i, j := range jobs {
		r.jobs = append(r.jobs, j)
		policy := j.Policy.Name
		if j.Label != "" {
			policy = j.Label
		}
		runs[i] = &stats.Run{Workload: j.Workload.Name, Policy: policy, Arch: j.Arch.Name,
			Cycles: 1000, WarpInstrs: 1000, L2SectorMisses: 10}
	}
	return runs, nil
}

// TestExperimentIdentities runs every experiment and checks every job
// it submits against the oracle: a job carries a registry identity
// exactly when rebuilding it from the registries reproduces it. This
// pins that oversub's mutated workloads, scaling's resized machines and
// hwvalid's custom kernels stay unnamed — uncached and never sent to a
// fleet — while every figure cell is named.
func TestExperimentIdentities(t *testing.T) {
	const scale = 64
	unnamed := map[string]bool{"oversub": true, "scaling": true, "hwvalid": true}
	for _, name := range experiments.ExperimentNames() {
		rec := &recordingRunner{}
		if _, err := experiments.Run(name, experiments.Options{Scale: scale, Runner: rec}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		named := 0
		for _, job := range rec.jobs {
			cell := name + "/" + job.Workload.Name + "/" + job.Label
			checkIdentity(t, cell, job, scale)
			if _, ok := oracleRequest(job, scale); ok != job.Identity.Named() {
				t.Errorf("%s: identity %+v, oracle names it: %v", cell, job.Identity, ok)
			}
			if job.Identity.Named() {
				named++
			}
		}
		switch {
		case unnamed[name] && named > 0:
			t.Errorf("%s: %d of %d jobs are named, want none", name, named, len(rec.jobs))
		case !unnamed[name] && named != len(rec.jobs):
			t.Errorf("%s: %d of %d jobs are named, want all", name, named, len(rec.jobs))
		}
	}
}
