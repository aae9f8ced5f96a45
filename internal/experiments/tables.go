package experiments

import (
	"fmt"
	"strings"

	"ladm/internal/arch"
	"ladm/internal/compiler"
	"ladm/internal/core"
	rt "ladm/internal/runtime"
	"ladm/internal/stats"
	sym "ladm/internal/symbolic"
)

// Table1 renders the paper's qualitative capability matrix: which locality
// properties each policy family exploits. The matrix is policy metadata
// (it is what each mechanism is built to do); the quantitative evidence
// behind each check mark is Figures 4, 9 and 10.
func Table1(o Options) (*Result, error) {
	type capRow struct {
		property string
		batchFT  bool
		kwide    bool
		coda     bool
		ladm     bool
	}
	matrix := []capRow{
		{"Page alignment", false, true, true, true},
		{"Threadblock-stride aware", true, false, false, true},
		{"Row sharing", false, true, false, true},
		{"Col sharing", false, false, false, true},
		{"Adjacent locality (stencil)", false, true, false, true},
		{"Intra-thread loc", true, false, false, true},
		{"Input size aware", false, false, false, true},
		{"Transparency", true, true, true, true},
		{"Hierarchical-aware", false, false, false, true},
	}
	mark := func(v bool) string {
		if v {
			return "yes"
		}
		return "-"
	}
	var rows [][]string
	values := map[string]float64{}
	count := func(name string, v bool) {
		if v {
			values[name]++
		}
	}
	for _, r := range matrix {
		rows = append(rows, []string{
			r.property, mark(r.batchFT), mark(r.kwide), mark(r.coda), mark(r.ladm),
		})
		count("batch+ft", r.batchFT)
		count("kernel-wide", r.kwide)
		count("coda", r.coda)
		count("ladm", r.ladm)
	}
	var b strings.Builder
	b.WriteString(header("Table I: LADM vs state-of-the-art (capability matrix)"))
	b.WriteString(stats.Table(
		[]string{"property", "Batch+FT", "Kernel-wide", "CODA", "LADM"}, rows))
	return &Result{Name: "table1", Text: b.String(), Values: values}, nil
}

// Table2 demonstrates the index analysis on the seven canonical index
// forms of the paper's Table II, showing the classification each receives.
func Table2(o Options) (*Result, error) {
	gid := sym.Sum(sym.Prod(sym.Bx, sym.BDx), sym.Tx)
	width := sym.Prod(sym.GDx, sym.BDx)
	cases := []struct {
		row   int
		desc  string
		index sym.Expr
		is2D  bool
	}{
		{1, "loopInvariant(bx,by) + stride*m", sym.Sum(sym.Prod(rowOf(), width), colOf(), sym.Prod(sym.M, sym.C(64))), true},
		{2, "loopInvariant(by) + loopVariant(m)", sym.Sum(sym.Prod(rowOf(), width), sym.Prod(sym.M, sym.C(16)), sym.Tx), true},
		{3, "loopInvariant(bx) + loopVariant(m)", sym.Sum(colOf(), sym.Prod(sym.M, sym.C(16))), true},
		{4, "loopInvariant(by) + loopVariant(m,gDim.x)", sym.Sum(sym.Prod(rowOf(), width), sym.Tx, sym.Prod(sym.M, width)), true},
		{5, "loopInvariant(bx) + loopVariant(m,gDim.x)", sym.Sum(colOf(), sym.Prod(sym.M, width)), true},
		{6, "loopVariant(m) = m", sym.Sum(sym.Ind("rowptr", gid), sym.M), false},
		{7, "none of the above (X[Y[tid]])", sym.Ind("Y", gid), false},
	}
	var rows [][]string
	values := map[string]float64{}
	for _, c := range cases {
		cl := compiler.Classify(c.index, c.is2D)
		rows = append(rows, []string{
			fmt.Sprintf("%d", c.row), c.desc, cl.Type.String(),
			fmt.Sprintf("%d", cl.Type.TableRow()),
		})
		values[fmt.Sprintf("row%d", c.row)] = float64(cl.Type.TableRow())
	}
	var b strings.Builder
	b.WriteString(header("Table II: index analysis classification rules"))
	b.WriteString(stats.Table([]string{"row", "index form", "classified", "got row"}, rows))
	return &Result{Name: "table2", Text: b.String(), Values: values}, nil
}

func rowOf() sym.Expr { return sym.Sum(sym.Prod(sym.By, sym.BDy), sym.Ty) }
func colOf() sym.Expr { return sym.Sum(sym.Prod(sym.Bx, sym.BDx), sym.Tx) }

// Table3 renders the simulated machine configuration (the paper's
// Table III).
func Table3(o Options) (*Result, error) {
	c := arch.DefaultHierarchical()
	rows := [][]string{
		{"#GPUs", fmt.Sprintf("%d GPUs, %d chiplets per GPU", c.GPUs, c.ChipletsPerGPU)},
		{"#SMs", fmt.Sprintf("%d SMs (%d per GPU, %d per chiplet)",
			c.SMs(), c.SMs()/c.GPUs, c.SMsPerChiplet)},
		{"SM configuration", fmt.Sprintf("Volta-like, %d warps, %d KB L1, %.1f GHz",
			c.MaxWarpsPerSM, c.L1KBPerSM, c.ClockGHz)},
		{"L2 cache", fmt.Sprintf("%d MB total (%d KB per chiplet), %d banks",
			c.L2KBPerNode*c.Nodes()/1024, c.L2KBPerNode, c.L2Banks*c.Nodes())},
		{"Intra-chiplet connect", fmt.Sprintf("crossbar, %.0f GB/s", c.IntraChipletGBs)},
		{"Inter-chiplet connect", fmt.Sprintf("bi-directional ring, %.0f GB/s per GPU", c.InterChipletGBs)},
		{"Inter-GPU connect", fmt.Sprintf("switch, %.0f GB/s per link", c.InterGPUGBs)},
		{"Memory BW", fmt.Sprintf("%.0f GB/s per chiplet, %.0f GB/s per GPU",
			c.DRAMPerNodeGBs, c.DRAMPerNodeGBs*float64(c.ChipletsPerGPU))},
		{"Page size", fmt.Sprintf("%d B", c.PageBytes)},
	}
	var b strings.Builder
	b.WriteString(header("Table III: simulated multi-GPU configuration"))
	b.WriteString(stats.Table([]string{"parameter", "value"}, rows))
	return &Result{Name: "table3", Text: b.String(), Values: map[string]float64{
		"sms": float64(c.SMs()), "nodes": float64(c.Nodes()),
	}}, nil
}

// Table4 reproduces the workload characterization: detected locality
// type, LASP scheduler decision, threadblock geometry, input size,
// launched threadblocks and measured L2 MPKI, against the paper's values.
func Table4(o Options) (*Result, error) {
	specs, err := o.specs()
	if err != nil {
		return nil, err
	}
	sortSpecsByGroup(specs)
	hier := arch.DefaultHierarchical()

	// MPKI is a workload characterization: measure it under H-CODA (the
	// state-of-the-art baseline the paper's narrative uses).
	cells := []core.Job{namedCell(rt.HCODA(), "hier", "h-coda")}
	byWL, err := runMatrix(specs, cells, o)
	if err != nil {
		return nil, err
	}

	values := map[string]float64{}
	var rows [][]string
	for _, s := range specs {
		tab := compiler.Analyze(s.W)
		dom := tab.DominantForWorkload(s.W)
		plan, err := rt.Prepare(s.W, &hier, rt.LADM())
		if err != nil {
			return nil, err
		}
		run := byWL[s.W.Name][0]
		k := s.W.Launches[0].Kernel
		mpki := run.MPKI()
		values[s.W.Name+"/mpki"] = mpki
		values[s.W.Name+"/tbs"] = float64(s.W.TotalTBs())
		rows = append(rows, []string{
			s.W.Name,
			s.LocalityLabel + " (" + dom.String() + ")",
			s.SchedLabel + " (" + plan.SchedulerName(0) + ")",
			k.Block.String(),
			fmt.Sprintf("%dMB", s.W.TotalBytes()>>20),
			fmt.Sprintf("%d", s.W.TotalTBs()),
			stats.Fmt(mpki),
			fmt.Sprintf("%d", s.PaperMPKI),
		})
	}
	var b strings.Builder
	b.WriteString(header(fmt.Sprintf("Table IV: workload characterization (scale 1/%d)", o.scale())))
	b.WriteString(stats.Table([]string{
		"workload", "locality (detected)", "sched (decided)", "TB dim",
		"input", "TBs", "MPKI", "paper MPKI",
	}, rows))
	return &Result{Name: "table4", Text: b.String(), Values: values}, nil
}
