package analytic

import (
	"context"
	"errors"

	"ladm/internal/core"
	"ladm/internal/stats"
)

// Fallback executes the jobs the model cannot answer. simsvc's Pool and
// Sequential runners satisfy it structurally; analytic stays below
// simsvc in the import graph.
type Fallback interface {
	Sweep(ctx context.Context, jobs []core.Job) ([]*stats.Run, error)
}

// Runner is the two-tier oracle: high-confidence jobs are answered from
// the closed-form model, everything else is escalated — transparently,
// in one batch, preserving job order — to the Fallback event engine.
// Results carry their serving tier in Run.Tier/Run.Confidence.
type Runner struct {
	// Fallback runs escalated jobs; a nil Fallback turns escalation into
	// an error (model-only mode, used by validation harnesses).
	Fallback Fallback
	// Scale, when positive, is the registry scale every job's identity
	// must carry; a job named at another scale escalates.
	Scale int
	// OnDecision, when set, observes every tier decision with its full
	// assessment — confidence, the bounded reason class, and the
	// free-text reason (metrics label the class, logs carry the text).
	OnDecision func(tier string, d Decision)
}

// Assess classifies one job: AssessJob's structural checks, after the
// job's registry identity. A job without one — a custom kernel, a
// mutated launch — always escalates: the model must never silently
// answer for inputs it was not validated on.
func (r *Runner) Assess(job core.Job) Decision {
	if id := job.Identity; !id.Named() || (r.Scale > 0 && id.Scale != r.Scale) {
		name := id.Workload
		if job.Workload != nil {
			name = job.Workload.Name
		}
		return escalate(ReasonCustomWorkload,
			"workload %s is custom or mutated (no registry identity at this scale)", name)
	}
	return AssessJob(job)
}

// Sweep answers each job from the tier its assessment selects and
// returns records in job order. Escalated jobs go to the Fallback as one
// batch, so its own parallelism and queueing semantics apply unchanged.
func (r *Runner) Sweep(ctx context.Context, jobs []core.Job) ([]*stats.Run, error) {
	results := make([]*stats.Run, len(jobs))
	var (
		escJobs []core.Job
		escIdx  []int
	)
	decide := func(tier string, d Decision) {
		if r.OnDecision != nil {
			r.OnDecision(tier, d)
		}
	}
	for i, job := range jobs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		d := r.Assess(job)
		if d.Confidence == ConfidenceHigh {
			run, err := Predict(job)
			if err == nil {
				decide(TierAnalytic, d)
				results[i] = run
				continue
			}
			// A prediction failure inside the model's supposed domain is
			// itself an escalation, not a sweep failure.
			d = escalate(ReasonPredictionFailed, "prediction failed: %v", err)
		}
		decide(TierEvent, d)
		escJobs = append(escJobs, job)
		escIdx = append(escIdx, i)
	}
	if len(escJobs) > 0 {
		if r.Fallback == nil {
			return nil, errors.New("analytic: job escalated but no fallback runner configured")
		}
		rs, err := r.Fallback.Sweep(ctx, escJobs)
		if err != nil {
			return nil, err
		}
		for k, i := range escIdx {
			if run := rs[k]; run != nil {
				// Fallback runs are fresh records (the pool simulates per
				// job); tagging in place is safe and the tags ride into
				// any cache or store entry keyed by this fidelity.
				run.Tier = TierEvent
				run.Confidence = ConfidenceEscalate
				results[i] = run
			}
		}
	}
	return results, nil
}
