// Package analytic is the closed-form fidelity tier: it predicts the
// local/remote traffic split, per-node DRAM bytes and ring/link traffic
// of a job directly from the compiler's index analysis and the runtime's
// placement plan — in microseconds, without running the event engine.
//
// The tier is an oracle with a confidence class, not a faster simulator.
// Every prediction is gated by Assess: jobs whose traffic is provably
// determined by affine index equations (the paper's Table II rows 1-5)
// classify as ConfidenceHigh and are answered from the model; everything
// whose traffic depends on data or on timing — indirect accesses (ITL,
// row 6), unclassified indices (row 7), first-touch placement, work
// stealing, oversubscription, telemetry collection, or workloads that do
// not match their registry build — classifies as ConfidenceEscalate and
// is transparently forwarded to the event engine by Runner. Results are
// tagged with their tier and confidence in stats.Run and
// stats.Provenance, so a cached or stored record is never ambiguous
// about which tier produced it.
package analytic

import (
	"fmt"

	"ladm/internal/compiler"
	"ladm/internal/core"
	"ladm/internal/kir"
	rt "ladm/internal/runtime"
)

// Confidence classes of a tier decision.
const (
	// ConfidenceHigh: the model's preconditions hold and the prediction
	// is served analytically.
	ConfidenceHigh = "high"
	// ConfidenceEscalate: some input is outside the model's domain and
	// the job must run on the event engine.
	ConfidenceEscalate = "escalate"
)

// Tier names used in stats.Run.Tier, provenance and metrics labels.
const (
	TierAnalytic = "analytic"
	TierEvent    = "event"
)

// Decision is the outcome of assessing one job.
type Decision struct {
	Confidence string
	// Reason says what forced an escalation; empty for high confidence.
	Reason string
	// Class is the bounded-cardinality form of Reason — one of the
	// ReasonClass constants — safe to use as a metrics label where the
	// free-text Reason (which names kernels and access sites) is not.
	Class string
}

// Reason classes an escalation can carry. One per escalate() site, so
// simsvc_tier_escalations_total{reason} stays bounded no matter what
// kernels flow through the service.
const (
	ReasonNoWorkload       = "no-workload"
	ReasonCustomWorkload   = "custom-workload"
	ReasonTelemetry        = "telemetry"
	ReasonFirstTouch       = "first-touch"
	ReasonStealing         = "stealing"
	ReasonPaging           = "paging"
	ReasonBlockTrips       = "block-trips"
	ReasonDataDependent    = "data-dependent"
	ReasonIntraThread      = "intra-thread"
	ReasonUnclassified     = "unclassified"
	ReasonPredicated       = "predicated"
	ReasonNonAffine        = "non-affine"
	ReasonPredictionFailed = "prediction-failed"
)

func escalate(class, format string, args ...any) Decision {
	return Decision{Confidence: ConfidenceEscalate, Class: class,
		Reason: fmt.Sprintf(format, args...)}
}

// AssessJob classifies a job's predictability from its structure alone:
// policy knobs that make traffic timing-dependent, and access sites
// whose index equations are not affine. It does not check workload
// provenance — Runner.Assess adds the registry-identity check.
func AssessJob(job core.Job) Decision {
	if job.Workload == nil {
		return escalate(ReasonNoWorkload, "no workload")
	}
	if job.Tel != nil {
		return escalate(ReasonTelemetry, "telemetry collection requires the event engine")
	}
	pol := job.Policy
	if pol.Placement == rt.PlaceFirstTouch {
		return escalate(ReasonFirstTouch, "first-touch placement is decided by execution order")
	}
	if pol.StealTBs {
		return escalate(ReasonStealing, "work stealing reassigns threadblocks at runtime")
	}
	if job.Arch.MemCapacityPerNodeKB > 0 {
		return escalate(ReasonPaging, "oversubscription paging is timing-dependent")
	}
	seen := map[*kir.Kernel]bool{}
	for _, l := range job.Workload.Launches {
		k := l.Kernel
		if seen[k] {
			continue
		}
		seen[k] = true
		if k.ItersForTB != nil {
			return escalate(ReasonBlockTrips, "kernel %s has per-threadblock trip counts", k.Name)
		}
		for i := range k.Accesses {
			acc := &k.Accesses[i]
			cls := compiler.ClassifyAccess(k, i)
			switch {
			case cls.HasIndirect:
				return escalate(ReasonDataDependent, "kernel %s access %s[%d] is data-dependent (ITL/random)", k.Name, acc.Array, i)
			case cls.Type == compiler.IntraThread:
				return escalate(ReasonIntraThread, "kernel %s access %s[%d] is intra-thread (Table II row 6)", k.Name, acc.Array, i)
			case cls.Type == compiler.Unclassified:
				return escalate(ReasonUnclassified, "kernel %s access %s[%d] is unclassified (Table II row 7)", k.Name, acc.Array, i)
			}
			if acc.Pred != nil {
				return escalate(ReasonPredicated, "kernel %s access %s[%d] is predicated", k.Name, acc.Array, i)
			}
			if _, ok := compiler.AffineForAccess(k, i); !ok {
				return escalate(ReasonNonAffine, "kernel %s access %s[%d] has no affine form", k.Name, acc.Array, i)
			}
		}
	}
	return Decision{Confidence: ConfidenceHigh}
}
