// Command expdriver regenerates the paper's tables and figures from the
// simulator substrate. Run an experiment by id:
//
//	expdriver [-budget quick|full] <experiment> [...]
//
// Experiments: fig1ab fig1c fig1d table1 table2 fig5 fig6 fig7 fig8 table3
// fig9 fig10 fig11 fig12 fig14 fig15 table6 fig16to18 crossengine timing
// qdqn ablation-replay ablation-action telemetry serving timeline all
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"cdbtune/internal/expr"
)

func main() {
	budgetName := flag.String("budget", "quick", "experiment budget: quick or full")
	format := flag.String("format", "text", "output format: text, csv or markdown")
	flag.Usage = usage
	flag.Parse()
	switch *format {
	case "text", "csv", "markdown":
		outputFormat = *format
	default:
		fmt.Fprintf(os.Stderr, "unknown format %q\n", *format)
		os.Exit(2)
	}
	if flag.NArg() == 0 {
		usage()
		os.Exit(2)
	}
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
	ids := flag.Args()
	if len(ids) == 1 && ids[0] == "all" {
		ids = []string{"table1", "timing", "fig1c", "fig1d", "fig1ab", "table2",
			"fig5", "fig6", "fig7", "fig8", "fig9", "table3", "fig10", "fig11",
			"fig12", "fig14", "fig15", "table6", "fig16to18", "crossengine", "qdqn",
			"ablation-replay", "ablation-action", "findings", "ycsb-variants",
			"telemetry", "serving", "timeline"}
	}
	for _, id := range ids {
		start := time.Now()
		if err := run(id, b); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}

// outputFormat selects how tables and figures are rendered.
var outputFormat = "text"

func printTable(t expr.Table) {
	switch outputFormat {
	case "csv":
		fmt.Print(t.CSV())
	case "markdown":
		fmt.Println(t.Markdown())
	default:
		fmt.Println(t.Render())
	}
}

func printFig(f expr.Figure) {
	switch outputFormat {
	case "csv":
		fmt.Print(f.CSV())
	case "markdown":
		fmt.Println("```")
		fmt.Println(f.Render())
		fmt.Println("```")
	default:
		fmt.Println(f.Render())
	}
}

func run(id string, b expr.Budget) error {
	printTables := func(ts []expr.Table, err error) error {
		if err != nil {
			return err
		}
		for _, t := range ts {
			printTable(t)
		}
		return nil
	}
	printFigs := func(fs []expr.Figure, err error) error {
		if err != nil {
			return err
		}
		for _, f := range fs {
			printFig(f)
		}
		return nil
	}
	switch id {
	case "table1":
		printTable(expr.Table1())
	case "timing":
		printTable(expr.Timing())
	case "fig1c":
		printTable(expr.Fig1C())
	case "fig1d":
		t, err := expr.Fig1D(0)
		if err != nil {
			return err
		}
		printTable(t)
	case "fig1ab":
		return printFigs(expr.Fig1AB(b, nil))
	case "table2":
		t, err := expr.Table2(b)
		if err != nil {
			return err
		}
		printTable(t)
	case "fig5":
		return printFigs(expr.Fig5(b, 50))
	case "fig6", "fig7", "fig8":
		order := map[string]expr.KnobOrder{"fig6": expr.OrderDBA, "fig7": expr.OrderOtterTune, "fig8": expr.OrderRandom}[id]
		tput, lat, iters, err := expr.KnobSweep(b, order, nil)
		if err != nil {
			return err
		}
		printFig(tput)
		printFig(lat)
		if id == "fig8" {
			printFig(iters)
		}
	case "fig9":
		return printTables(expr.Fig9(b))
	case "table3":
		t, err := expr.Table3(b)
		if err != nil {
			return err
		}
		printTable(t)
	case "fig10":
		return printTables(expr.Fig10(b, nil))
	case "fig11":
		return printTables(expr.Fig11(b, nil))
	case "fig12":
		t, err := expr.Fig12(b)
		if err != nil {
			return err
		}
		printTable(t)
	case "fig14":
		return printTables(expr.Fig14(b))
	case "fig15":
		f, err := expr.Fig15(b, nil)
		if err != nil {
			return err
		}
		printFig(f)
	case "table6":
		shrink := 1
		if b.Name == "quick" {
			shrink = 4
		}
		t, err := expr.Table6(b, shrink)
		if err != nil {
			return err
		}
		printTable(t)
	case "fig16to18":
		return printTables(expr.Fig16to18(b))
	case "crossengine":
		knobCap := 0
		if b.Name == "quick" {
			knobCap = 20
		}
		t, err := expr.CrossEngine(b, knobCap)
		if err != nil {
			return err
		}
		printTable(t)
	case "qdqn":
		t, err := expr.QLearnDQN(b, 0)
		if err != nil {
			return err
		}
		printTable(t)
	case "ablation-replay":
		t, err := expr.AblationReplay(b)
		if err != nil {
			return err
		}
		printTable(t)
	case "ablation-action":
		t, err := expr.AblationAction(b)
		if err != nil {
			return err
		}
		printTable(t)
	case "findings":
		t, err := expr.Findings(b)
		if err != nil {
			return err
		}
		printTable(t)
	case "ycsb-variants":
		t, err := expr.ExtYCSBVariants(b)
		if err != nil {
			return err
		}
		printTable(t)
	case "telemetry":
		ts, err := expr.TrainingTelemetry(b)
		if err != nil {
			return err
		}
		for _, t := range ts {
			printTable(t)
		}
	case "serving":
		return printTables(expr.ServingTelemetry(b))
	case "timeline":
		ts, fig, err := expr.TimelineTelemetry(b)
		if err != nil {
			return err
		}
		for _, t := range ts {
			printTable(t)
		}
		printFig(fig)
		if outputFormat == "text" {
			fmt.Println(fig.Plot(72, 14))
		}
	default:
		return fmt.Errorf("unknown experiment %q (run with no args for the list)", id)
	}
	return nil
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: expdriver [-budget quick|full] [-format text|csv|markdown] <experiment> [...]

experiments:
  table1 timing fig1ab fig1c fig1d          setup and motivation
  table2 fig5                               efficiency (§5.1)
  fig6 fig7 fig8 fig9 table3                effectiveness (§5.2)
  fig10 fig11 fig12                         adaptability (§5.3)
  fig14 fig15 table6 fig16to18              appendix C
  crossengine                               one tuner vs four engine families (incl. LSM)
  qdqn ablation-replay ablation-action      design ablations
  findings ycsb-variants                    §5.2.3 findings + extensions
  telemetry                                 training telemetry stream
  serving                                   multi-tenant serving telemetry (warm starts, queue waits)
  timeline                                  24h dynamic-workload day with drift-aware re-tuning
  all                                       everything above
`)
}
