package experiments

import (
	"fmt"
	"strings"

	"ladm/internal/arch"
	"ladm/internal/core"
	rt "ladm/internal/runtime"
	"ladm/internal/stats"
)

// Fig4 reproduces the bandwidth sensitivity study: Baseline-RR,
// Batch+FT-optimal, Kernel-wide and CODA on a four-node 256-SM system,
// with crossbar links of 90/180/360 GB/s and MCM rings of 1.4/2.8 TB/s,
// normalized per workload to the 256-SM monolithic GPU.
func Fig4(o Options) (*Result, error) {
	specs, err := o.specs()
	if err != nil {
		return nil, err
	}
	machines := []string{"xbar-90", "xbar-180", "xbar-360", "ring-1400", "ring-2800"}
	policies := []rt.Policy{
		rt.BaselineRR(), rt.BatchFTOptimal(), rt.KernelWide(), rt.CODA(),
	}

	cells := []core.Job{namedCell(rt.KernelWide(), "monolithic", "monolithic")}
	var configs []arch.Config
	for _, m := range machines {
		for _, p := range policies {
			c := namedCell(p, m, "")
			c.Label = c.Arch.Name + "/" + p.Name
			cells = append(cells, c)
		}
		configs = append(configs, cells[len(cells)-1].Arch)
	}
	byWL, err := runMatrix(specs, cells, o)
	if err != nil {
		return nil, err
	}

	values := map[string]float64{}
	var b strings.Builder
	b.WriteString(header("Figure 4: bandwidth sensitivity (perf normalized to monolithic)"))
	headers := []string{"config"}
	for _, p := range policies {
		headers = append(headers, p.Name)
	}
	var rows [][]string
	var allRuns []*stats.Run
	for ci, cfg := range configs {
		row := []string{cfg.Name}
		for pi := range policies {
			var speedups []float64
			for _, s := range specs {
				runs := byWL[s.W.Name]
				mono := runs[0]
				r := runs[1+ci*len(policies)+pi]
				speedups = append(speedups, r.Speedup(mono))
				allRuns = append(allRuns, r)
			}
			g := stats.Geomean(speedups)
			values[cfg.Name+"/"+policies[pi].Name] = g
			row = append(row, stats.Fmt(g))
		}
		rows = append(rows, row)
	}
	b.WriteString(stats.Table(headers, rows))
	b.WriteString("\nEach cell: geomean over workloads of (monolithic cycles / policy cycles).\n")
	return &Result{Name: "fig4", Text: b.String(), Values: values, Runs: allRuns}, nil
}

// fig9Policies are the systems compared in Figures 9 and 10, in
// presentation order.
func fig9Policies() []rt.Policy {
	return []rt.Policy{rt.HCODA(), rt.LASPRTwice(), rt.LASPROnce(), rt.LADM()}
}

// fig9Runs simulates the Figure 9/10 matrix: the four policies on the
// hierarchical Table III system plus the monolithic reference, for every
// workload. Both figures share these runs.
func fig9Runs(o Options) (map[string][]*stats.Run, []string, error) {
	specs, err := o.specs()
	if err != nil {
		return nil, nil, err
	}
	sortSpecsByGroup(specs)
	var cells []core.Job
	for _, p := range fig9Policies() {
		cells = append(cells, namedCell(p, "hier", ""))
	}
	cells = append(cells, namedCell(rt.KernelWide(), "monolithic", "monolithic"))
	byWL, err := runMatrix(specs, cells, o)
	if err != nil {
		return nil, nil, err
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.W.Name
	}
	return byWL, names, nil
}

// Fig9 reproduces the headline performance figure: H-CODA, LASP+RTWICE,
// LASP+RONCE, LADM and the monolithic GPU, normalized to H-CODA.
func Fig9(o Options) (*Result, error) {
	r, _, err := Fig9And10(o)
	return r, err
}

// Fig10 reproduces the off-node traffic figure for the same systems.
func Fig10(o Options) (*Result, error) {
	_, r, err := Fig9And10(o)
	return r, err
}

// Fig9And10 runs the shared policy sweep once and renders both figures.
func Fig9And10(o Options) (fig9, fig10 *Result, err error) {
	byWL, _, err := fig9Runs(o)
	if err != nil {
		return nil, nil, err
	}
	if fig9, err = renderFig9(o, byWL); err != nil {
		return nil, nil, err
	}
	if fig10, err = renderFig10(o, byWL); err != nil {
		return nil, nil, err
	}
	return fig9, fig10, nil
}

func renderFig9(o Options, byWL map[string][]*stats.Run) (*Result, error) {
	specs, err := o.specs()
	if err != nil {
		return nil, err
	}
	sortSpecsByGroup(specs)
	labels := []string{"h-coda", "lasp+rtwice", "lasp+ronce", "ladm", "monolithic"}

	values := map[string]float64{}
	var b strings.Builder
	b.WriteString(header("Figure 9: performance normalized to H-CODA"))
	headers := append([]string{"workload", "group"}, labels...)
	var rows [][]string
	perPolicy := map[string][]float64{}
	perGroup := map[string]map[string][]float64{}
	var allRuns []*stats.Run
	for _, s := range specs {
		runs := byWL[s.W.Name]
		base := runs[0] // h-coda
		group := groupOf(s.LocalityLabel)
		row := []string{s.W.Name, group}
		for i, r := range runs {
			sp := r.Speedup(base)
			row = append(row, stats.Fmt(sp))
			perPolicy[labels[i]] = append(perPolicy[labels[i]], sp)
			if perGroup[group] == nil {
				perGroup[group] = map[string][]float64{}
			}
			perGroup[group][labels[i]] = append(perGroup[group][labels[i]], sp)
			allRuns = append(allRuns, r)
		}
		rows = append(rows, row)
	}
	// Per-group and overall geomeans.
	for _, g := range groupOrder {
		if perGroup[g] == nil {
			continue
		}
		row := []string{"geomean", g}
		for _, l := range labels {
			v := stats.Geomean(perGroup[g][l])
			values["geomean/"+g+"/"+l] = v
			row = append(row, stats.Fmt(v))
		}
		rows = append(rows, row)
	}
	row := []string{"geomean", "all"}
	for _, l := range labels {
		v := stats.Geomean(perPolicy[l])
		values["geomean/all/"+l] = v
		row = append(row, stats.Fmt(v))
	}
	rows = append(rows, row)
	b.WriteString(stats.Table(headers, rows))
	// A bar rendering of the overall geomeans, figure-style.
	b.WriteString("\ngeomean speedup over H-CODA:\n")
	var barLabels []string
	var barVals []float64
	for _, l := range labels {
		barLabels = append(barLabels, l)
		barVals = append(barVals, stats.Geomean(perPolicy[l]))
	}
	b.WriteString(stats.Bars(barLabels, barVals, 40))
	return &Result{Name: "fig9", Text: b.String(), Values: values, Runs: allRuns}, nil
}

func renderFig10(o Options, byWL map[string][]*stats.Run) (*Result, error) {
	specs, err := o.specs()
	if err != nil {
		return nil, err
	}
	sortSpecsByGroup(specs)
	labels := []string{"h-coda", "lasp+rtwice", "lasp+ronce", "ladm"}

	values := map[string]float64{}
	var b strings.Builder
	b.WriteString(header("Figure 10: % of memory traffic that goes off-node"))
	headers := append([]string{"workload", "group"}, labels...)
	var rows [][]string
	sums := map[string][]float64{}
	var byteRatios []float64
	for _, s := range specs {
		runs := byWL[s.W.Name]
		row := []string{s.W.Name, groupOf(s.LocalityLabel)}
		for i, l := range labels {
			f := runs[i].OffNodeFraction()
			row = append(row, stats.Pct(f))
			sums[l] = append(sums[l], f)
		}
		// Absolute off-node byte reduction, LADM vs H-CODA (the paper's
		// "reduces inter-chip memory traffic by 4x" claim).
		if hb, lb := runs[0].OffNodeBytes(), runs[3].OffNodeBytes(); lb > 0 {
			byteRatios = append(byteRatios, float64(hb)/float64(lb))
		}
		rows = append(rows, row)
	}
	row := []string{"mean", "all"}
	for _, l := range labels {
		v := stats.Mean(sums[l])
		values["offnode/"+l] = v
		row = append(row, stats.Pct(v))
	}
	rows = append(rows, row)
	values["offbytes-reduction"] = stats.Geomean(byteRatios)
	b.WriteString(stats.Table(headers, rows))
	fmt.Fprintf(&b, "\nOff-node byte reduction, LADM vs H-CODA (geomean): %.2fx\n",
		values["offbytes-reduction"])
	return &Result{Name: "fig10", Text: b.String(), Values: values}, nil
}

// Fig11 reproduces the remote-request-bypassing case study: L2 traffic
// composition and per-category hit rates for the low-reuse random-loc
// workload (where RONCE wins) and the high-reuse SQ-GEMM (where RTWICE
// wins).
func Fig11(o Options) (*Result, error) {
	o.Workloads = []string{"random-loc", "sq-gemm"}
	specs, err := o.specs()
	if err != nil {
		return nil, err
	}
	cells := []core.Job{
		namedCell(rt.LASPRTwice(), "hier", "rtwice"),
		namedCell(rt.LASPROnce(), "hier", "ronce"),
	}
	byWL, err := runMatrix(specs, cells, o)
	if err != nil {
		return nil, err
	}

	values := map[string]float64{}
	var b strings.Builder
	b.WriteString(header("Figure 11: RONCE vs RTWICE case study"))
	cats := []stats.TrafficCat{stats.LocalLocal, stats.LocalRemote, stats.RemoteLocal}
	for _, s := range specs {
		runs := byWL[s.W.Name]
		fmt.Fprintf(&b, "\n%s:\n", s.W.Name)
		headers := []string{"policy", "cycles"}
		for _, c := range cats {
			headers = append(headers, c.String()+" share", c.String()+" hit%")
		}
		var rows [][]string
		for _, r := range runs {
			share := r.L2TrafficShare()
			row := []string{r.Policy, stats.Fmt(r.Cycles)}
			for _, c := range cats {
				row = append(row, stats.Pct(share[c]), stats.Pct(r.L2[c].HitRate()))
				values[s.W.Name+"/"+r.Policy+"/"+c.String()+"/share"] = share[c]
				values[s.W.Name+"/"+r.Policy+"/"+c.String()+"/hit"] = r.L2[c].HitRate()
			}
			rows = append(rows, row)
			values[s.W.Name+"/"+r.Policy+"/cycles"] = r.Cycles
		}
		b.WriteString(stats.Table(headers, rows))
	}
	b.WriteString("\nExpected shape: RONCE lifts random-loc (bypassing low-reuse remote fills\nfrees the home L2) and hurts sq-gemm (whose REMOTE-LOCAL traffic has real\nreuse).\n")
	return &Result{Name: "fig11", Text: b.String(), Values: values}, nil
}
