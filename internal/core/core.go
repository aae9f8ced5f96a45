// Package core ties the paper's system together: compile (index analysis,
// locality table), plan (LASP placement, scheduling, CRB caching), and
// simulate (the event-driven NUMA-GPU engine). One call — Simulate — is
// the whole LADM pipeline of Figure 5 for one workload under one policy on
// one machine. Batches of jobs run on the internal/simsvc worker pool.
package core

import (
	"context"
	"errors"
	"fmt"

	"ladm/internal/arch"
	"ladm/internal/engine"
	"ladm/internal/kir"
	rt "ladm/internal/runtime"
	"ladm/internal/simtel"
	"ladm/internal/stats"
)

// Identity names the registry entries a job was built from: the
// workload, policy and machine names plus the input scale divisor. It is
// everything a cache, store or remote worker needs to know the job by.
type Identity struct {
	Workload, Policy, Machine string
	Scale                     int
}

// Named reports whether the identity is set.
func (id Identity) Named() bool { return id.Workload != "" }

// Job names one simulation: a workload, a policy, and a machine.
type Job struct {
	Workload *kir.Workload
	Policy   rt.Policy
	Arch     arch.Config
	// Label tags the run (defaults to the policy name).
	Label string
	// Tel, when non-nil, collects telemetry for the run (time series
	// and/or trace spans); it never affects the simulated results.
	Tel *simtel.Collector
	// Parallel is the event core's parallel degree: trace generation is
	// sharded across this many NUMA-node goroutines (clamped to the node
	// count; 0/1 = sequential). Results are byte-identical at every
	// degree, so Parallel never participates in job identity or caching.
	Parallel int
	// Identity is set only by code that builds the job from registry
	// names (simsvc.Request.Resolve, the experiments' registry cells).
	// It stays zero for custom or mutated jobs, and code that changes a
	// named job's workload, policy or machine must clear it.
	Identity Identity
}

// Simulate runs the full pipeline for one job.
func Simulate(w *kir.Workload, cfg arch.Config, pol rt.Policy) (*stats.Run, error) {
	return SimulateJob(Job{Workload: w, Arch: cfg, Policy: pol})
}

// SimulateJob runs the full pipeline for one job, threading its
// telemetry collector (if any) through to the engine.
func SimulateJob(j Job) (*stats.Run, error) {
	return SimulateJobContext(context.Background(), j)
}

// SimulateJobContext runs the full pipeline for one job, aborting the
// engine when ctx is canceled or its deadline expires: the engine polls
// ctx.Done() every few tens of thousands of events, so a pathological
// job releases its worker quickly instead of simulating to completion.
// A background context compiles the check away (Done() is nil).
func SimulateJobContext(ctx context.Context, j Job) (*stats.Run, error) {
	plan, err := rt.Prepare(j.Workload, &j.Arch, j.Policy)
	if err != nil {
		return nil, fmt.Errorf("core: prepare %s/%s: %w", j.Workload.Name, j.Policy.Name, err)
	}
	plan.Tel = j.Tel
	plan.Interrupt = ctx.Done()
	plan.Parallel = j.Parallel
	run, err := engine.New(plan).Run()
	if err != nil {
		if errors.Is(err, engine.ErrInterrupted) {
			if cerr := ctx.Err(); cerr != nil {
				err = cerr
			}
		}
		return nil, fmt.Errorf("core: simulate %s/%s: %w", j.Workload.Name, j.Policy.Name, err)
	}
	return run, nil
}
