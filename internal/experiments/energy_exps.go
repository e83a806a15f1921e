package experiments

import (
	"fmt"
	"math"

	"buspower/internal/circuit"
	"buspower/internal/coding"
	"buspower/internal/energy"
	"buspower/internal/stats"
	"buspower/internal/wire"
	"buspower/internal/workload"
)

func init() {
	register(Runner{ID: "fig26", Title: "Transcoder energy budget vs total entries for window and context designs (Figure 26)", Run: runFig26})
	register(Runner{ID: "table2", Title: "Transcoder circuit characteristics per technology (Table 2)", Run: runTable2})
	register(Runner{ID: "fig35", Title: "Window transcoder total energy vs bus length, register bus (Figure 35)", Run: totalEnergySweep("fig35", "reg")})
	register(Runner{ID: "fig36", Title: "Window transcoder total energy vs bus length, memory bus (Figure 36)", Run: totalEnergySweep("fig36", "mem")})
	register(Runner{ID: "fig37", Title: "Crossover trend on the register bus across technologies and sizes (Figure 37)", Run: crossoverTrend("fig37", "reg")})
	register(Runner{ID: "fig38", Title: "Crossover trend on the memory bus across technologies and sizes (Figure 38)", Run: crossoverTrend("fig38", "mem")})
	register(Runner{ID: "table3", Title: "Median crossover lengths for the window-based design (Table 3)", Run: runTable3})
}

func runFig26(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "fig26",
		Title:   "Per-cycle energy budget vs total value entries at 5/10/15mm (0.13um, register bus average)",
		Columns: []string{"design", "length_mm", "total_entries", "budget_pj_per_cycle"},
	}
	names := workload.Names()
	if cfg.Quick {
		names = names[:4]
	}
	lengths := []float64{5, 10, 15}
	windowSizes := []int{2, 4, 8, 16, 32, 64}
	contextTables := []int{4, 8, 16, 24, 32, 56} // +8 shift register entries
	if cfg.Quick {
		windowSizes = []int{4, 16}
		contextTables = []int{8, 24}
	}
	traces := suiteTraces(names, "reg", cfg)
	avgBudget := func(build func() (coding.Transcoder, error), length float64) (float64, error) {
		tc, err := build()
		if err != nil {
			return 0, err
		}
		perTrace, err := evaluate(cfg.ctx, []gridPoint{{tc: tc, lambda: evalLambda}}, traces, cfg)
		if err != nil {
			return 0, err
		}
		sum := 0.0
		for _, rs := range perTrace {
			sum += energy.Budget(wire.Tech130, rs[0], length)
		}
		return sum / float64(len(names)), nil
	}
	type spec struct {
		design  string
		length  float64
		entries int
		build   func() (coding.Transcoder, error)
	}
	var specs []spec
	for _, l := range lengths {
		for _, n := range windowSizes {
			n := n
			specs = append(specs, spec{"window", l, n, func() (coding.Transcoder, error) {
				return coding.NewWindow(busWidth, n, evalLambda)
			}})
		}
		for _, tbl := range contextTables {
			tbl := tbl
			specs = append(specs, spec{"context", l, tbl + 8, func() (coding.Transcoder, error) {
				return coding.NewContext(coding.ContextConfig{
					Width: busWidth, TableSize: tbl, ShiftEntries: 8,
					DividePeriod: 4096, Lambda: evalLambda,
				})
			}})
		}
	}
	err := gatherRows(t, cfg, len(specs), func(i int, out *Table) error {
		s := specs[i]
		b, err := avgBudget(s.build, s.length)
		if err != nil {
			return err
		}
		out.AddRow(s.design, s.length, s.entries, b)
		return nil
	})
	return t, err
}

func runTable2(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "table2",
		Title: "Transcoder characteristics: area, op energy, leakage, delay, cycle time",
		Columns: []string{"design", "technology", "voltage_v", "area_um2",
			"op_energy_pj", "measured_encoder_pj_per_cycle", "leakage_pj", "delay_ns", "cycle_time_ns"},
	}
	// Measured column: the statistical model's average encoder energy over
	// the SPECint register traces (the methodology of Figure 34).
	names := []string{"gcc", "compress", "li", "perl"}
	if cfg.Quick {
		names = names[:2]
	}
	win8, err := coding.NewWindow(busWidth, 8, evalLambda)
	if err != nil {
		return nil, err
	}
	perTrace, err := evaluate(cfg.ctx, []gridPoint{{tc: win8, lambda: evalLambda}}, suiteTraces(names, "reg", cfg), cfg)
	if err != nil {
		return nil, err
	}
	measure := func(tech wire.Technology) (float64, error) {
		opE, err := circuit.OpEnergiesFor(tech)
		if err != nil {
			return 0, err
		}
		sum := 0.0
		for _, rs := range perTrace {
			sum += opE.EncoderEnergyPJ(rs[0].Ops) / float64(rs[0].Ops.Cycles)
		}
		return sum / float64(len(names)), nil
	}
	for _, tech := range wire.Technologies() {
		ch, err := circuit.Characterize(tech, circuit.WindowDesign, 8)
		if err != nil {
			return nil, err
		}
		m, err := measure(tech)
		if err != nil {
			return nil, err
		}
		t.AddRow("window-8", tech.Name, ch.VoltageV, ch.AreaUM2, ch.OpEnergyPJ, m, ch.LeakagePJ, ch.DelayNS, ch.CycleTimeNS)
	}
	inv, err := circuit.Characterize(wire.Tech130, circuit.InversionDesign, 0)
	if err != nil {
		return nil, err
	}
	t.AddRow("inversion", wire.Tech130.Name, inv.VoltageV, inv.AreaUM2, inv.OpEnergyPJ, inv.OpEnergyPJ, inv.LeakagePJ, inv.DelayNS, inv.CycleTimeNS)
	return t, nil
}

// windowAnalyses builds the energy analysis of the entries-entry window
// design at tech for one bus of every named workload, applying the
// duty-cycle correction on the memory bus: its transcoder clocks every
// machine cycle but sees a beat only on misses and stores (§5.4.3).
func windowAnalyses(tech wire.Technology, names []string, bus string, entries int, cfg Config) ([]energy.Analysis, error) {
	win, err := coding.NewWindow(busWidth, entries, evalLambda)
	if err != nil {
		return nil, err
	}
	perTrace, err := evaluate(cfg.ctx, []gridPoint{{tc: win, lambda: evalLambda}}, suiteTraces(names, bus, cfg), cfg)
	if err != nil {
		return nil, err
	}
	out := make([]energy.Analysis, len(names))
	for i, rs := range perTrace {
		a, err := energy.NewAnalysis(tech, rs[0], circuit.WindowDesign, entries)
		if err != nil {
			return nil, err
		}
		if bus == "mem" {
			ts, err := workload.Traces(names[i], cfg.Run)
			if err != nil {
				return nil, err
			}
			a = a.WithDutyCycle(uint64(len(ts.Mem)), ts.Summary.Cycles)
		}
		out[i] = a
	}
	return out, nil
}

func totalEnergySweep(id, bus string) func(Config) (*Table, error) {
	return func(cfg Config) (*Table, error) {
		t := &Table{
			ID:      id,
			Title:   "Total transcoder+wire energy normalized to the un-encoded bus vs wire length (window-8, 0.13um, " + bus + " bus)",
			Columns: []string{"benchmark", "length_mm", "normalized_total"},
		}
		step := 2.0
		if cfg.Quick {
			step = 10.0
		}
		names := workload.Names()
		if cfg.Quick {
			names = names[:4]
		}
		err := gatherRows(t, cfg, len(names), func(i int, out *Table) error {
			name := names[i]
			as, err := windowAnalyses(wire.Tech130, []string{name}, bus, 8, cfg)
			if err != nil {
				return err
			}
			for l := 1.0; l <= 30+1e-9; l += step {
				out.AddRow(name, l, as[0].NormalizedTotal(l))
			}
			return nil
		})
		return t, err
	}
}

// suiteNames maps the Table 3 grouping to workload name lists.
func suiteNames(which string) []string {
	switch which {
	case "SPECint":
		return namesOf(workload.BySuite(workload.SPECint))
	case "SPECfp":
		return namesOf(workload.BySuite(workload.SPECfp))
	default:
		return workload.Names()
	}
}

func namesOf(ws []workload.Workload) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.Name
	}
	return out
}

func crossoverTrend(id, bus string) func(Config) (*Table, error) {
	return func(cfg Config) (*Table, error) {
		t := &Table{
			ID:      id,
			Title:   "Median normalized total energy vs wire length per technology and transcoder size (" + bus + " bus)",
			Columns: []string{"technology", "entries", "suite", "length_mm", "median_normalized_total"},
		}
		step := 3.0
		if cfg.Quick {
			step = 15.0
		}
		units := techEntrySuiteUnits([]int{8, 16}, []string{"SPECint", "SPECfp"})
		err := gatherRows(t, cfg, len(units), func(i int, out *Table) error {
			u := units[i]
			names := suiteNames(u.suite)
			if cfg.Quick {
				names = names[:2]
			}
			analyses, err := windowAnalyses(u.tech, names, bus, u.entries, cfg)
			if err != nil {
				return err
			}
			for l := 1.0; l <= 30+1e-9; l += step {
				vals := make([]float64, len(analyses))
				for i, a := range analyses {
					vals[i] = a.NormalizedTotal(l)
				}
				out.AddRow(u.tech.Name, u.entries, u.suite, l, stats.Median(vals))
			}
			return nil
		})
		return t, err
	}
}

// techEntrySuiteUnit is one cell of the technology × entries × suite
// sweep the crossover artifacts share, flattened in the serial traversal
// order for deterministic row assembly.
type techEntrySuiteUnit struct {
	tech    wire.Technology
	entries int
	suite   string
}

func techEntrySuiteUnits(entriesList []int, suites []string) []techEntrySuiteUnit {
	var out []techEntrySuiteUnit
	for _, tech := range wire.Technologies() {
		for _, entries := range entriesList {
			for _, suite := range suites {
				out = append(out, techEntrySuiteUnit{tech, entries, suite})
			}
		}
	}
	return out
}

func runTable3(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "table3",
		Title:   "Median crossover lengths for the window-based design (register bus)",
		Columns: []string{"technology", "entries", "suite", "median_crossover_mm"},
	}
	units := techEntrySuiteUnits([]int{8, 16}, []string{"SPECint", "SPECfp", "ALL"})
	err := gatherRows(t, cfg, len(units), func(i int, out *Table) error {
		u := units[i]
		names := suiteNames(u.suite)
		if cfg.Quick {
			names = names[:2]
		}
		analyses, err := windowAnalyses(u.tech, names, "reg", u.entries, cfg)
		if err != nil {
			return err
		}
		xs := make([]float64, len(analyses))
		for i, a := range analyses {
			xs[i] = a.CrossoverMM()
		}
		med := stats.Median(xs)
		cell := fmt.Sprintf("%.1f", med)
		if math.IsInf(med, 1) {
			cell = "inf"
		}
		out.AddRow(u.tech.Name, u.entries, u.suite, cell)
		return nil
	})
	return t, err
}
