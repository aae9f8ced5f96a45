// Package kernels models the 27 scalable workloads of the paper's
// Table IV as kernel IR: Rodinia, CUDA SDK, Parboil, Lonestar and Pannotia
// benchmarks plus the deep-learning GEMM layers. Each workload's access
// patterns are written as the symbolic index equations of its dominant
// CUDA kernel, so the static analysis classifies it exactly as the paper
// reports and the trace generator reproduces its memory behaviour.
// Irregular workloads (graphs, trees) run on seeded synthetic inputs that
// exercise the same ITL/unclassified paths.
//
// Every builder takes a scale divisor: scale 1 approximates the paper's
// input sizes; larger scales shrink linear dimensions for fast runs while
// preserving classification, alignment and sharing structure.
package kernels

import (
	"fmt"
	"sort"
	"strings"

	"ladm/internal/kir"
	sym "ladm/internal/symbolic"
)

// Spec couples a workload with its Table IV reference row.
type Spec struct {
	W *kir.Workload

	// LocalityLabel is the paper's "Locality Type" column (NL, NL-Xstride,
	// NL-Ystride, RCL, ITL, unclassified).
	LocalityLabel string
	// SchedLabel is the paper's "Scheduler Decision" column.
	SchedLabel string
	// PaperInputMB and PaperTBs record Table IV's input size and launched
	// threadblock count at scale 1.
	PaperInputMB int
	PaperTBs     int
	// PaperMPKI is Table IV's L2 sector misses per kilo warp instruction.
	PaperMPKI int
}

// builder constructs one workload at a given scale divisor.
type builder func(scale int) *Spec

var registry = map[string]builder{}

func register(name string, b builder) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("kernels: duplicate workload %q", name))
	}
	registry[name] = b
}

// Names returns the registered workload names in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ByName builds one workload at the given scale.
func ByName(name string, scale int) (*Spec, error) {
	if err := Check(name); err != nil {
		return nil, err
	}
	return registry[name](clampScale(scale)), nil
}

// Check returns ByName's error for an unknown name without building
// anything.
func Check(name string) error {
	if _, ok := registry[name]; !ok {
		return fmt.Errorf("kernels: unknown workload %q (valid: %s)",
			name, strings.Join(Names(), " "))
	}
	return nil
}

// All builds every workload at the given scale, sorted by name.
func All(scale int) []*Spec {
	scale = clampScale(scale)
	out := make([]*Spec, 0, len(registry))
	for _, n := range Names() {
		out = append(out, registry[n](scale))
	}
	return out
}

// Suite returns all workloads whose LocalityLabel matches.
func Suite(label string, scale int) []*Spec {
	var out []*Spec
	for _, s := range All(scale) {
		if s.LocalityLabel == label {
			out = append(out, s)
		}
	}
	return out
}

func clampScale(s int) int {
	if s < 1 {
		return 1
	}
	return s
}

// div scales a dimension down, keeping at least min.
func div(x, scale, min int) int {
	v := x / scale
	if v < min {
		return min
	}
	return v
}

// gid1 is the canonical 1D global thread id: blockIdx.x*blockDim.x +
// threadIdx.x.
func gid1() sym.Expr {
	return sym.Sum(sym.Prod(sym.Bx, sym.BDx), sym.Tx)
}

// rowExpr is blockIdx.y*blockDim.y + threadIdx.y.
func rowExpr() sym.Expr {
	return sym.Sum(sym.Prod(sym.By, sym.BDy), sym.Ty)
}

// colExpr is blockIdx.x*blockDim.x + threadIdx.x.
func colExpr() sym.Expr {
	return sym.Sum(sym.Prod(sym.Bx, sym.BDx), sym.Tx)
}

// mustValid panics if the workload is malformed — workload definitions are
// static data, so an invalid one is a programming error caught by tests.
func mustValid(s *Spec) *Spec {
	if err := s.W.Validate(); err != nil {
		panic(err)
	}
	return s
}
