package experiments

import (
	"fmt"

	"buspower/internal/circuit"
	"buspower/internal/coding"
	"buspower/internal/energy"
	"buspower/internal/stats"
	"buspower/internal/wire"
	"buspower/internal/workload"
)

// Optimal-codebook extension experiments.
//
// The paper's transcoders chase the *predictable* fraction of the traffic;
// a complementary line of work fixes the codebook up front and bounds the
// worst case instead: minimal-transition memoryless codes (PAPERS.md #1),
// the Valentini–Chiani optimal transition scheme (#2), practical low-weight
// codes that trade a little optimality for grouped, cheap datapaths (#3),
// and DVS designs that spend the coding headroom on a lower supply rail
// with timing-error correction (#4). These runners race those families on
// the harness's own workloads and push each through the Table-3 crossover
// machinery so every scheme gets a net-energy break-even verdict.
func init() {
	register(Runner{
		ID:    "extopt",
		Title: "Extension: optimal-codebook schemes raced against the paper's coders (register bus)",
		Run:   runExtOpt,
	})
	register(Runner{
		ID:    "extxover",
		Title: "Extension: net-energy break-even verdicts for the optimal-codebook schemes",
		Run:   runExtXover,
	})
	register(Runner{
		ID:    "extdvs",
		Title: "Extension: DVS rail sweep — coding headroom spent on voltage instead of transitions",
		Run:   runExtDvs,
	})
}

// optRefLenMM is the wire length at which the break-even verdict is
// issued — the paper's §5.4 examples put on-chip global buses at a few
// to a few tens of millimetres; 10mm sits in the band where Table 3's
// own crossovers land.
const optRefLenMM = 10.0

// optAnalysis builds the energy analysis for one of the optimal-codebook
// transcoders. All four map to the enumerative rank/unrank datapath
// (circuit.EnumerativeDesign) sized by their Stages(); the DVS scheme
// additionally rescales the coded side of the ledger to its reduced rail
// and is charged the Razor-style error-detection overhead on every coded
// wire.
func optAnalysis(tech wire.Technology, res coding.Result, tc coding.Transcoder) (energy.Analysis, error) {
	switch t := tc.(type) {
	case *coding.OptMemTranscoder:
		return energy.NewAnalysis(tech, res, circuit.EnumerativeDesign, t.Stages())
	case *coding.VCTranscoder:
		return energy.NewAnalysis(tech, res, circuit.EnumerativeDesign, t.Stages())
	case *coding.LowWeightTranscoder:
		return energy.NewAnalysis(tech, res, circuit.EnumerativeDesign, t.Stages())
	case *coding.DVSTranscoder:
		a, err := energy.NewAnalysis(tech, res, circuit.EnumerativeDesign, t.Stages())
		if err != nil {
			return energy.Analysis{}, err
		}
		ec, err := circuit.DVSOverheadPJ(tech, t.BusWidth())
		if err != nil {
			return energy.Analysis{}, err
		}
		return a.WithVoltageScale(t.VoltageScale(), ec), nil
	}
	return energy.Analysis{}, fmt.Errorf("experiments: %s is not an optimal-codebook transcoder", tc.Name())
}

// runExtOpt races the four optimal-codebook families against two of the
// harness's established coders (bus-invert and an 8-entry window) on the
// register data bus. The fixed codebooks guarantee their transition bound
// on every cycle but cannot exploit value locality — the table shows how
// much that guarantee costs against predictors on real traffic.
func runExtOpt(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "extopt",
		Title:   "Optimal-codebook schemes vs prediction on the register bus",
		Columns: []string{"benchmark", "scheme", "coded_wires", "energy_removed_pct"},
	}
	specs := []string{
		"optmem:extra=2", "vc:extra=2", "lowweight:groups=4,extra=1",
		"dvs:extra=2,vdd=80", "businvert", "window:entries=8",
	}
	names := workload.Names()
	if cfg.Quick {
		names = names[:4]
	}
	err := gatherRows(t, cfg, len(names), func(i int, out *Table) error {
		name := names[i]
		points := make([]gridPoint, len(specs))
		widths := make([]int, len(specs))
		for k, spec := range specs {
			tc, err := coding.BuildScheme(spec)
			if err != nil {
				return err
			}
			points[k] = gridPoint{tc: tc, lambda: evalLambda}
			widths[k] = tc.NewEncoder().BusWidth()
		}
		results, err := evaluate(cfg.ctx, points, []evalTrace{workloadTrace(name, "reg", cfg)}, cfg)
		if err != nil {
			return err
		}
		for k, res := range results[0] {
			out.AddRow(name, points[k].tc.Name(), widths[k], 100*res.EnergyRemoved())
		}
		return nil
	})
	return t, err
}

// runExtXover extends the Table 3 crossover analysis to the four new
// families: per (scheme, technology) it reports the median activity
// savings, the median normalized total energy at the 10mm reference
// length, the median break-even length, and the resulting verdict.
// Activity removed on the wires only pays if it covers the enumerative
// datapath's own energy — the same ledger the paper applies to its
// window design.
func runExtXover(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "extxover",
		Title: "Break-even verdicts for the optimal-codebook schemes (register bus, 10mm reference)",
		Columns: []string{"scheme", "technology", "median_savings_pct",
			"median_net_ratio_10mm", "median_crossover_mm", "verdict"},
	}
	specs := []string{
		"optmem:extra=2", "vc:extra=2", "lowweight:groups=4,extra=1",
		"dvs:extra=2,vdd=80",
	}
	names := workload.Names()
	if cfg.Quick {
		names = names[:3]
	}
	techs := wire.Technologies()
	type unit struct {
		spec string
		tech wire.Technology
	}
	var units []unit
	for _, spec := range specs {
		for _, tech := range techs {
			units = append(units, unit{spec, tech})
		}
	}
	err := gatherRows(t, cfg, len(units), func(i int, out *Table) error {
		spec, tech := units[i].spec, units[i].tech
		tc, err := coding.BuildScheme(spec)
		if err != nil {
			return err
		}
		// The evaluation memo collapses the technology axis: the same
		// (transcoder, trace, Λ) measurement serves all three nodes.
		perTrace, err := evaluate(cfg.ctx, []gridPoint{{tc: tc, lambda: evalLambda}}, suiteTraces(names, "reg", cfg), cfg)
		if err != nil {
			return err
		}
		var savings, ratios, xovers []float64
		for _, rs := range perTrace {
			a, err := optAnalysis(tech, rs[0], tc)
			if err != nil {
				return err
			}
			savings = append(savings, 100*a.EnergyRemovedFraction())
			ratios = append(ratios, a.NormalizedTotal(optRefLenMM))
			xovers = append(xovers, a.CrossoverMM())
		}
		verdict := "costs"
		if stats.Median(ratios) < 1 {
			verdict = "saves"
		}
		out.AddRow(spec, tech.Name, stats.Median(savings),
			stats.Median(ratios), stats.Median(xovers), verdict)
		return nil
	})
	return t, err
}

// runExtDvs sweeps the DVS scheme's supply rail at 0.13µm. Lowering Vdd
// buys quadratic dynamic savings on the coded wires but pushes the
// timing-error rate up the exponential wall, charging retransmits and
// error-correction energy back against the ledger (PAPERS.md #4). The
// wall sits just below the grammar's 50% floor, so the sweep shows the
// approach to it: quadratic wins still outpacing the error tax. The rail
// is deliberately excluded from the scheme's ConfigKey: the coded wire
// stream is identical at every Vdd, so one evaluation serves the whole
// sweep and only the energy analysis varies.
func runExtDvs(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "extdvs",
		Title: "DVS rail sweep at 0.13µm (register bus, 10mm reference)",
		Columns: []string{"vdd_pct", "voltage_scale", "timing_error_rate",
			"median_savings_pct", "median_net_ratio_10mm", "median_crossover_mm"},
	}
	vdds := []int{100, 90, 80, 70, 60}
	names := workload.Names()
	if cfg.Quick {
		vdds = []int{100, 80, 60}
		names = names[:3]
	}
	tech := wire.Tech130
	err := gatherRows(t, cfg, len(vdds), func(i int, out *Table) error {
		vdd := vdds[i]
		tc, err := coding.NewDVS(busWidth, 2, vdd)
		if err != nil {
			return err
		}
		perTrace, err := evaluate(cfg.ctx, []gridPoint{{tc: tc, lambda: evalLambda}}, suiteTraces(names, "reg", cfg), cfg)
		if err != nil {
			return err
		}
		var savings, ratios, xovers []float64
		for _, rs := range perTrace {
			a, err := optAnalysis(tech, rs[0], tc)
			if err != nil {
				return err
			}
			savings = append(savings, 100*a.EnergyRemovedFraction())
			ratios = append(ratios, a.NormalizedTotal(optRefLenMM))
			xovers = append(xovers, a.CrossoverMM())
		}
		s := float64(vdd) / 100
		out.AddRow(vdd, s, energy.TimingErrorRate(s),
			stats.Median(savings), stats.Median(ratios), stats.Median(xovers))
		return nil
	})
	return t, err
}
