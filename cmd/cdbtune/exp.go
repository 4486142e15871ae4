package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"cdbtune/internal/expr"
)

// experiment is one row of `cdbtune exp`: the ID a user types, the usage
// group it is listed under, a one-line description, and the run that
// regenerates it. The experiments table below is the only list of IDs:
// it is the dispatch, the usage text and the order `all` runs in.
type experiment struct {
	id, group, desc string
	run             func(expr.Budget, printer) error
}

var experiments = []experiment{
	{"table1", "setup and motivation", "Table 1: instance matrix",
		func(_ expr.Budget, p printer) error { p.table(expr.Table1()); return nil }},
	{"timing", "setup and motivation", "§5.1.1 execution-time breakdown",
		func(_ expr.Budget, p printer) error { p.table(expr.Timing()); return nil }},
	{"fig1c", "setup and motivation", "Fig. 1(c): tunable knobs per CDB version",
		func(_ expr.Budget, p printer) error { p.table(expr.Fig1C()); return nil }},
	{"fig1d", "setup and motivation", "Fig. 1(d): performance surface over two knobs",
		func(_ expr.Budget, p printer) error { return p.one(expr.Fig1D(0)) }},
	{"fig1ab", "setup and motivation", "Fig. 1(a)(b): OtterTune ±deep learning vs samples",
		func(b expr.Budget, p printer) error { return p.figs(expr.Fig1AB(b, nil)) }},
	{"table2", "efficiency (§5.1)", "Table 2: tuning steps and time per tool",
		func(b expr.Budget, p printer) error { return p.one(expr.Table2(b)) }},
	{"fig5", "efficiency (§5.1)", "Fig. 5: performance vs accumulated trying steps",
		func(b expr.Budget, p printer) error { return p.figs(expr.Fig5(b, 50)) }},
	{"fig6", "effectiveness (§5.2)", "Fig. 6: performance vs knob count, DBA order",
		knobSweep(expr.OrderDBA, false)},
	{"fig7", "effectiveness (§5.2)", "Fig. 7: performance vs knob count, OtterTune order",
		knobSweep(expr.OrderOtterTune, false)},
	{"fig8", "effectiveness (§5.2)", "Fig. 8: performance and iterations vs knob count, random order",
		knobSweep(expr.OrderRandom, true)},
	{"fig9", "effectiveness (§5.2)", "Fig. 9: six tuners on Sysbench RW/RO/WO",
		func(b expr.Budget, p printer) error { return p.tables(expr.Fig9(b)) }},
	{"table3", "effectiveness (§5.2)", "Table 3: CDBTune's improvement over the baselines",
		func(b expr.Budget, p printer) error { return p.one(expr.Table3(b)) }},
	{"fig10", "adaptability (§5.3)", "Fig. 10: model moved across RAM sizes",
		func(b expr.Budget, p printer) error { return p.tables(expr.Fig10(b, nil)) }},
	{"fig11", "adaptability (§5.3)", "Fig. 11: model moved across disk sizes",
		func(b expr.Budget, p printer) error { return p.tables(expr.Fig11(b, nil)) }},
	{"fig12", "adaptability (§5.3)", "Fig. 12: model moved from RW to TPC-C",
		func(b expr.Budget, p printer) error { return p.one(expr.Fig12(b)) }},
	{"fig14", "appendix C", "Fig. 14 (C.1.1): reward-function ablation",
		func(b expr.Budget, p printer) error { return p.tables(expr.Fig14(b)) }},
	{"fig15", "appendix C", "Fig. 15 (C.1.2): CT/CL coefficient sweep",
		func(b expr.Budget, p printer) error {
			f, err := expr.Fig15(b, nil)
			return p.figs([]expr.Figure{f}, err)
		}},
	{"table6", "appendix C", "Table 6 (C.2): network depth and width",
		func(b expr.Budget, p printer) error {
			shrink := 1
			if b.Name == "quick" {
				shrink = 4
			}
			return p.one(expr.Table6(b, shrink))
		}},
	{"fig16to18", "appendix C", "Fig. 16-18 (C.3): MongoDB, Postgres, local MySQL",
		func(b expr.Budget, p printer) error { return p.tables(expr.Fig16to18(b)) }},
	{"crossengine", "cross-engine", "one tuner vs four engine families (incl. LSM)",
		func(b expr.Budget, p printer) error {
			knobCap := 0
			if b.Name == "quick" {
				knobCap = 20
			}
			return p.one(expr.CrossEngine(b, knobCap))
		}},
	{"qdqn", "design ablations", "§3.3: Q-learning and DQN vs DDPG",
		func(b expr.Budget, p printer) error { return p.one(expr.QLearnDQN(b, 0)) }},
	{"ablation-replay", "design ablations", "prioritized vs uniform replay",
		func(b expr.Budget, p printer) error { return p.one(expr.AblationReplay(b)) }},
	{"ablation-action", "design ablations", "absolute vs incremental-delta actions",
		func(b expr.Budget, p printer) error { return p.one(expr.AblationAction(b)) }},
	{"findings", "findings and extensions", "§5.2.3 findings: headline knobs per workload class",
		func(b expr.Budget, p printer) error { return p.one(expr.Findings(b)) }},
	{"ycsb-variants", "findings and extensions", "extension: one model per YCSB variant B-F on MongoDB",
		func(b expr.Budget, p printer) error { return p.one(expr.ExtYCSBVariants(b)) }},
	{"telemetry", "operations", "training telemetry stream under a light fault mix",
		func(b expr.Budget, p printer) error { return p.tables(expr.TrainingTelemetry(b)) }},
	{"serving", "operations", "multi-tenant serving telemetry (warm starts, queue waits)",
		func(b expr.Budget, p printer) error { return p.tables(expr.ServingTelemetry(b)) }},
	{"timeline", "operations", "24h dynamic-workload day with drift-aware re-tuning",
		func(b expr.Budget, p printer) error {
			ts, fig, err := expr.TimelineTelemetry(b)
			if err := p.tables(ts, err); err != nil {
				return err
			}
			p.fig(fig)
			if p.format == "text" {
				fmt.Fprintln(p.w, fig.Plot(72, 14))
			}
			return nil
		}},
}

// knobSweep is the run of Figs. 6-8, which differ only in the order knobs
// are added; Fig. 8 also prints the iterations figure.
func knobSweep(order expr.KnobOrder, withIters bool) func(expr.Budget, printer) error {
	return func(b expr.Budget, p printer) error {
		tput, lat, iters, err := expr.KnobSweep(b, order, nil)
		fs := []expr.Figure{tput, lat}
		if withIters {
			fs = append(fs, iters)
		}
		return p.figs(fs, err)
	}
}

// printer renders tables and figures in one output format.
type printer struct {
	w      io.Writer
	format string // text, csv or markdown
}

func (p printer) table(t expr.Table) {
	switch p.format {
	case "csv":
		fmt.Fprint(p.w, t.CSV())
	case "markdown":
		fmt.Fprintln(p.w, t.Markdown())
	default:
		fmt.Fprintln(p.w, t.Render())
	}
}

func (p printer) fig(f expr.Figure) {
	switch p.format {
	case "csv":
		fmt.Fprint(p.w, f.CSV())
	case "markdown":
		fmt.Fprintf(p.w, "```\n%s\n```\n", f.Render())
	default:
		fmt.Fprintln(p.w, f.Render())
	}
}

func (p printer) one(t expr.Table, err error) error {
	return p.tables([]expr.Table{t}, err)
}

func (p printer) tables(ts []expr.Table, err error) error {
	if err != nil {
		return err
	}
	for _, t := range ts {
		p.table(t)
	}
	return nil
}

func (p printer) figs(fs []expr.Figure, err error) error {
	if err != nil {
		return err
	}
	for _, f := range fs {
		p.fig(f)
	}
	return nil
}

// cmdExp regenerates the paper's tables and figures by experiment ID.
func cmdExp(args []string) error {
	fs := flag.NewFlagSet("exp", flag.ExitOnError)
	budgetName := fs.String("budget", "quick", "experiment budget: quick or full")
	format := fs.String("format", "text", "output format: text, csv or markdown")
	fs.Usage = func() { expUsage(fs.Output()) }
	fs.Parse(args)
	var b expr.Budget
	switch *budgetName {
	case "quick":
		b = expr.Quick()
	case "full":
		b = expr.Full()
	default:
		fmt.Fprintf(os.Stderr, "unknown budget %q\n", *budgetName)
		os.Exit(2)
	}
	switch *format {
	case "text", "csv", "markdown":
	default:
		fmt.Fprintf(os.Stderr, "unknown format %q\n", *format)
		os.Exit(2)
	}
	if fs.NArg() == 0 {
		fs.Usage()
		os.Exit(2)
	}
	runs, err := selectExperiments(fs.Args())
	if err != nil {
		return err
	}
	p := printer{w: os.Stdout, format: *format}
	for _, e := range runs {
		start := time.Now()
		if err := e.run(b, p); err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		fmt.Printf("(%s completed in %v)\n\n", e.id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// selectExperiments resolves IDs (or the single word "all") to table
// rows, rejecting every unknown ID before anything runs.
func selectExperiments(ids []string) ([]experiment, error) {
	if len(ids) == 1 && ids[0] == "all" {
		return experiments, nil
	}
	var out []experiment
next:
	for _, id := range ids {
		for _, e := range experiments {
			if e.id == id {
				out = append(out, e)
				continue next
			}
		}
		return nil, fmt.Errorf("unknown experiment %q (run `cdbtune exp` with no arguments for the list)", id)
	}
	return out, nil
}

func expUsage(w io.Writer) {
	fmt.Fprintln(w, "usage: cdbtune exp [-budget quick|full] [-format text|csv|markdown] <experiment>... | all")
	group := ""
	for _, e := range experiments {
		if e.group != group {
			group = e.group
			fmt.Fprintf(w, "\n%s:\n", group)
		}
		fmt.Fprintf(w, "  %-16s %s\n", e.id, e.desc)
	}
	fmt.Fprintln(w, "\nall runs every experiment above, in this order.")
}
