// Command cdbtune trains and serves the CDBTune tuning model against the
// simulated cloud database fleet, and regenerates the paper's experiments.
//
//	cdbtune train -workload sysbench-rw -instance CDB-A -episodes 40 -model model.bin
//	cdbtune tune  -workload tpcc -instance CDB-C -model model.bin [-steps 5]
//	cdbtune tune  -workload sysbench-rw -model model.bin -timeline diurnal24 [-hours 24]
//	cdbtune serve -addr 127.0.0.1:8080 -registry registry
//	cdbtune submit -workload sysbench-rw -wait
//	cdbtune exp [-budget quick|full] [-format text|csv|markdown] fig9 table3
//	cdbtune info
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"cdbtune/internal/chaos"
	"cdbtune/internal/core"
	"cdbtune/internal/env"
	"cdbtune/internal/knobs"
	"cdbtune/internal/nn"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "train":
		err = cmdTrain(os.Args[2:])
	case "tune":
		err = cmdTune(os.Args[2:])
	case "info":
		err = cmdInfo()
	case "knobs":
		err = cmdKnobs(os.Args[2:])
	case "eval":
		err = cmdEval(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "submit":
		err = cmdSubmit(os.Args[2:])
	case "status":
		err = cmdStatus(os.Args[2:])
	case "models":
		err = cmdModels(os.Args[2:])
	case "exp":
		err = cmdExp(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cdbtune:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  cdbtune train -workload <name> [-instance CDB-A] [-engine cdb-mysql|lsm|…] [-episodes 40] [-model model.bin] [-quiet]
                [-checkpoint train.ckpt] [-checkpoint-every 5] [-resume] [-chaos]
                [-max-grad-norm 5] [-heal-budget 3] [-deadline 0] [-no-supervisor]
  cdbtune tune  -workload <name> [-instance CDB-A] [-engine cdb-mysql|lsm|…] [-steps 5] [-model model.bin] [-export my.cnf] [-chaos]
                [-timeline diurnal24|flashcrowd] [-hours 0] [-timescale 60] [-drift-threshold 0.02] [-observe-sec 30]
  cdbtune knobs [-engine cdb-mysql] [-all]
  cdbtune eval  -config my.cnf [-workload <name>] [-instance CDB-A] [-engine cdb-mysql|lsm|…]
  cdbtune serve  [-addr 127.0.0.1:8080] [-registry registry] [-workers 2] [-queue 16]
                 [-match-radius 0.1] [-max-episodes 8] [-fine-tune-episodes 2] [-max-models 64]
                 [-timeline <name>] [-serve-hours 0] [-timescale 0] [-drift-threshold 0]
  cdbtune submit [-addr http://127.0.0.1:8080] -workload <name> [-instance CDB-A] [-wait]
                 [-timeline <name>|none] [-serve-hours 0]
  cdbtune status [-addr http://127.0.0.1:8080] [job-id]
  cdbtune models [-addr http://127.0.0.1:8080] [-promote id] [-delete id]
  cdbtune exp    [-budget quick|full] [-format text|csv|markdown] <experiment>... | all
  cdbtune info`)
}

func instanceByName(name string) (simdb.Instance, error) {
	for _, in := range simdb.Table1() {
		if in.Name == name {
			return in, nil
		}
	}
	return simdb.Instance{}, fmt.Errorf("unknown instance %q (see `cdbtune info`)", name)
}

func engineByFlag(name string) (knobs.Engine, error) {
	e, ok := knobs.EngineByName(name)
	if !ok {
		return 0, fmt.Errorf("unknown engine %q (valid: %s)", name, strings.Join(knobs.EngineNames(), ", "))
	}
	return e, nil
}

// chaosMix is the standard seeded fault mix the -chaos flag enables: a
// few percent of everything the injector can throw, enough that every
// resilience path fires during a normal-length run.
func chaosMix(seed int64) *chaos.Injector {
	return chaos.New(chaos.Config{
		Seed:          seed,
		TransientProb: 0.05,
		ApplyFailProb: 0.03,
		StallProb:     0.05,
		StallSec:      30,
		DropoutProb:   0.05,
		CrashProb:     0.02,
	})
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	wname := fs.String("workload", "sysbench-rw", "workload name")
	iname := fs.String("instance", "CDB-A", "instance name (Table 1)")
	ename := fs.String("engine", "cdb-mysql", "storage engine (see `cdbtune info`)")
	episodes := fs.Int("episodes", 40, "training episodes")
	model := fs.String("model", "model.bin", "output model path")
	seed := fs.Int64("seed", 1, "random seed")
	quiet := fs.Bool("quiet", false, "suppress per-episode telemetry")
	ckptPath := fs.String("checkpoint", "", "checkpoint file for crash-safe training (empty = off)")
	ckptEvery := fs.Int("checkpoint-every", 5, "episodes between checkpoints")
	resume := fs.Bool("resume", false, "resume a killed run from -checkpoint")
	withChaos := fs.Bool("chaos", false, "inject a seeded standard fault mix into every training environment")
	maxGradNorm := fs.Float64("max-grad-norm", 0, "gradient-clipping threshold for actor and critic (0 = agent default; negative disables clipping)")
	healBudget := fs.Int("heal-budget", 0, "divergence rollbacks before the supervisor aborts training (0 = default 3)")
	deadline := fs.Duration("deadline", 0, "real wall-clock bound on the run; training stops with partial results at the deadline (0 = unbounded)")
	noSupervisor := fs.Bool("no-supervisor", false, "disable learner-health supervision (divergence detection and auto-rollback)")
	fs.Parse(args)

	w, err := workload.ByName(*wname)
	if err != nil {
		return err
	}
	inst, err := instanceByName(*iname)
	if err != nil {
		return err
	}
	engine, err := engineByFlag(*ename)
	if err != nil {
		return err
	}
	cat := knobs.ForEngine(engine)
	cfg := core.DefaultConfig(cat)
	cfg.Seed = *seed
	cfg.DDPG.ActionBias = cat.Defaults(inst.HW.RAMGB, inst.HW.DiskGB)
	if *maxGradNorm != 0 {
		cfg.DDPG.MaxGradNorm = *maxGradNorm
	}
	tuner, err := core.New(cfg)
	if err != nil {
		return err
	}
	var in *chaos.Injector
	if *withChaos {
		in = chaosMix(*seed)
	}
	mk := func(ep int) *env.Env {
		db := env.OpenEngine(engine, inst, *seed+int64(ep))
		if in != nil {
			db = in.Wrap(db)
		}
		return env.New(db, cat, w)
	}
	fmt.Printf("training CDBTune: %s on %s (%s), %d episodes\n", w.Name, inst.Name, engine, *episodes)
	opts := core.TrainOptions{
		Episodes: *episodes,
		Resume:   *resume,
		Supervisor: core.SupervisorConfig{
			Disabled:   *noSupervisor,
			HealBudget: *healBudget,
		},
	}
	if *ckptPath != "" {
		opts.Checkpoint = &core.Checkpointer{Path: *ckptPath, Every: *ckptEvery}
	} else if *resume {
		return fmt.Errorf("train: -resume requires -checkpoint")
	}
	if !*quiet {
		opts.OnEpisode = func(s core.EpisodeStats) { fmt.Printf("  %s\n", s) }
	}
	if *deadline > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *deadline)
		defer cancel()
		opts.Ctx = ctx
	}
	rep, err := tuner.OfflineTrainOpts(mk, opts)
	var dErr *core.DivergenceError
	switch {
	case err == nil:
	case errors.As(err, &dErr):
		// Exhausted heal budget: the weights are the diverged ones, so no
		// model is written — the diagnosis is the deliverable.
		fmt.Printf("training aborted after %d episodes: learner diverged beyond heal budget\n  %s\n",
			rep.Episodes, dErr.Diagnosis)
		return err
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		// Deadline reached: report and save what the run produced so far.
		fmt.Printf("deadline reached after %d episodes; partial results follow\n", rep.Episodes)
	default:
		return err
	}
	if rep.Resumed {
		fmt.Printf("resumed from %s: %d episodes already done\n", *ckptPath, rep.ResumedEpisodes)
	}
	fmt.Printf("episodes=%d iterations=%d crashes=%d best throughput=%.1f txn/sec (%.1f virtual hours)\n",
		rep.Episodes, rep.Iterations, rep.Crashes, rep.BestPerf.Throughput, rep.VirtualSeconds/3600)
	if rep.Faults.Any() || rep.WorkerDeaths > 0 || rep.LostEpisodes > 0 {
		fmt.Printf("faults: %d transients, %d retries (%.0f vsec backoff), %d stalls (%.0f vsec), %d dropouts, %d worker deaths, %d lost episodes\n",
			rep.Faults.Transients, rep.Faults.Retries, rep.Faults.RetrySec,
			rep.Faults.Stalls, rep.Faults.StallSec, rep.Faults.Dropouts,
			rep.WorkerDeaths, rep.LostEpisodes)
	}
	if rep.Learner.Supervised {
		fmt.Printf("learner health: %d heals, %d snapshots, %d dropped batches, lr-scale %.3g, |Q| %.1f, grad %.1f\n",
			rep.Learner.Heals, rep.Learner.Snapshots, rep.Learner.SkippedBatches,
			rep.Learner.LRScale, rep.Learner.MeanAbsQ, rep.Learner.GradNorm)
	}
	if rep.Converged {
		fmt.Printf("converged at iteration %d\n", rep.ConvergedAt)
	} else {
		fmt.Println("not converged within the episode budget")
	}
	// Atomic write: a crash mid-save must never leave a truncated model
	// where a good one stood.
	if err := nn.WriteAtomic(*model, tuner.Save); err != nil {
		return err
	}
	fmt.Printf("model written to %s\n", *model)
	return nil
}

func cmdTune(args []string) error {
	fs := flag.NewFlagSet("tune", flag.ExitOnError)
	wname := fs.String("workload", "sysbench-rw", "workload name")
	iname := fs.String("instance", "CDB-A", "instance name (Table 1)")
	ename := fs.String("engine", "cdb-mysql", "storage engine (see `cdbtune info`)")
	steps := fs.Int("steps", 5, "online tuning steps")
	model := fs.String("model", "model.bin", "model path from `cdbtune train`")
	export := fs.String("export", "", "write the recommended configuration to this file (my.cnf syntax)")
	seed := fs.Int64("seed", 42, "random seed")
	withChaos := fs.Bool("chaos", false, "inject a seeded standard fault mix into the tuned instance")
	timeline := fs.String("timeline", "", "serve a time-varying workload timeline (diurnal24, flashcrowd) with drift-aware re-tuning instead of a one-shot tune")
	hours := fs.Float64("hours", 0, "simulated hours to serve the timeline (0 = one full cycle)")
	timescale := fs.Float64("timescale", 0, "timeline compression: simulated seconds per virtual second (0 = timeline default, 60)")
	driftThreshold := fs.Float64("drift-threshold", 0, "EWMA fingerprint distance that triggers a re-tune (0 = calibrated default)")
	observeSec := fs.Float64("observe-sec", 0, "virtual seconds per drift-monitor observation window (0 = default)")
	fs.Parse(args)

	w, err := workload.ByName(*wname)
	if err != nil {
		return err
	}
	inst, err := instanceByName(*iname)
	if err != nil {
		return err
	}
	engine, err := engineByFlag(*ename)
	if err != nil {
		return err
	}
	cat := knobs.ForEngine(engine)
	cfg := core.DefaultConfig(cat)
	tuner, err := core.New(cfg)
	if err != nil {
		return err
	}
	f, err := os.Open(*model)
	if err != nil {
		return fmt.Errorf("opening model (run `cdbtune train` first): %w", err)
	}
	defer f.Close()
	if err := tuner.Load(f); err != nil {
		return err
	}

	target := env.OpenEngine(engine, inst, *seed)
	if *withChaos {
		target = chaosMix(*seed).Wrap(target)
	}
	e := env.New(target, cat, w)
	if *timeline != "" {
		tl, err := workload.TimelineByName(*timeline, w)
		if err != nil {
			return err
		}
		if *timescale > 0 {
			tl.TimeScale = *timescale
		}
		e.Timeline = tl
		return runDynamic(tuner, e, *steps, *hours, *driftThreshold, *observeSec)
	}
	fmt.Printf("online tuning: %s on %s, %d steps\n", w.Name, inst.Name, *steps)
	// The guardrail reverts to the best-known-good configuration after
	// repeated failures and steers recommendations away from knob regions
	// that crashed the instance — a no-op on a healthy run.
	guard := core.NewGuardrail(0, 0)
	res, err := tuner.OnlineTune(context.Background(), e, core.TuneOptions{Steps: *steps, FineTune: true, Guard: guard})
	if err != nil {
		return err
	}
	fmt.Printf("initial: %.1f txn/sec, %.1f ms (99th)\n", res.Initial.Throughput, res.Initial.Latency99)
	fmt.Printf("tuned:   %.1f txn/sec, %.1f ms (99th)  [+%.1f%% throughput]\n",
		res.BestPerf.Throughput, res.BestPerf.Latency99,
		(res.BestPerf.Throughput/res.Initial.Throughput-1)*100)
	fmt.Printf("request cost: %.1f virtual minutes, %d crashes during exploration\n",
		res.Seconds/60, res.Crashes)
	if res.Reverts > 0 || res.Vetoes > 0 || res.SkippedSteps > 0 || res.Faults.Any() {
		fmt.Printf("resilience: %d reverts to best-known-good, %d vetoed proposals, %d skipped steps, %d transients / %d retries\n",
			res.Reverts, res.Vetoes, res.SkippedSteps, res.Faults.Transients, res.Faults.Retries)
	}
	fmt.Println("recommended knob settings (changed from defaults):")
	hw := inst.HW
	def := cat.Defaults(hw.RAMGB, hw.DiskGB)
	n := 0
	for i, k := range cat.Knobs {
		v := k.Value(res.Best[i], hw.RAMGB, hw.DiskGB)
		dv := k.Value(def[i], hw.RAMGB, hw.DiskGB)
		if v != dv && n < 20 {
			fmt.Printf("  %-42s %12.0f (default %.0f)\n", k.Name, v, dv)
			n++
		}
	}
	if n == 20 {
		fmt.Println("  … (remaining knobs omitted)")
	}
	if *export != "" {
		vals := cat.Denormalize(res.Best, hw.RAMGB, hw.DiskGB)
		cfgText, err := knobs.FormatConfig(cat, vals, true)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*export, []byte(cfgText), 0o644); err != nil {
			return err
		}
		fmt.Printf("configuration written to %s\n", *export)
	}
	return nil
}

// runDynamic is the -timeline flavor of cmdTune: instead of a one-shot
// online tune it serves the timeline for a window of simulated hours,
// streaming drift/re-tune/revert events as they happen and closing with
// a per-phase throughput summary and the safety accounting.
func runDynamic(tuner *core.Tuner, e *env.Env, steps int, hours, threshold, observeSec float64) error {
	tl := e.Timeline
	horizon := hours
	if horizon <= 0 {
		horizon = tl.TotalHours()
	}
	fmt.Printf("dynamic serving: timeline %s (%.0fh cycle at %.0fx compression), %.1f simulated hours\n",
		tl.Name, tl.TotalHours(), tl.Scale(), horizon)
	// Per-phase throughput accumulation for the closing summary.
	type phaseAgg struct {
		name    string
		sum     float64
		maxEwma float64
		n       int
	}
	var order []string
	agg := map[string]*phaseAgg{}
	rep, err := tuner.ServeDynamic(e, core.DynamicOptions{
		HorizonHours: hours,
		ObserveSec:   observeSec,
		Drift:        core.DriftConfig{Threshold: threshold},
		ReTuneSteps:  steps,
		FineTune:     true,
		OnSample: func(s core.DynamicSample) {
			a := agg[s.Phase]
			if a == nil {
				a = &phaseAgg{name: s.Phase}
				agg[s.Phase] = a
				order = append(order, s.Phase)
			}
			a.sum += s.Ext.Throughput
			if s.EWMA > a.maxEwma {
				a.maxEwma = s.EWMA
			}
			a.n++
		},
		OnEvent: func(ev core.DynamicEvent) {
			fmt.Printf("  %s\n", ev)
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("served %.1f simulated hours (%.1f virtual minutes): %d samples, %d drifts, %d re-tunes, %d reverts, %d crashes\n",
		rep.Hours, rep.Seconds/60, len(rep.Samples), rep.Drifts, len(rep.Retunes), rep.Reverts, rep.Crashes)
	if len(order) > 0 {
		fmt.Println("per-phase mean throughput:")
		for _, name := range order {
			a := agg[name]
			fmt.Printf("  %-14s %10.1f txn/sec  (%d windows, peak drift ewma %.4f)\n",
				a.name, a.sum/float64(a.n), a.n, a.maxEwma)
		}
	}
	for _, rt := range rep.Retunes {
		fmt.Printf("re-tune at h%05.2f [%s]: %.1f → %.1f txn/sec (%+.1f%%), seed %s, %.1f virtual minutes\n",
			rt.Hour, rt.Phase, rt.Stale.Throughput, rt.Tuned.Throughput,
			(rt.Tuned.Throughput/rt.Stale.Throughput-1)*100, dashIfEmpty(rt.Seed), rt.Seconds/60)
	}
	if rep.Unreverted > 0 {
		return fmt.Errorf("dynamic window closed with %d unreverted guardrail violation(s)", rep.Unreverted)
	}
	fmt.Printf("final: %.1f txn/sec, %.1f ms (99th); zero unreverted guardrail violations\n",
		rep.Final.Throughput, rep.Final.Latency99)
	return nil
}

func dashIfEmpty(s string) string {
	if s == "" {
		return "in-place"
	}
	return s
}

// cmdEval stress-tests a configuration file (the my.cnf syntax the
// tune -export flag writes) against a workload and reports the externals,
// next to the defaults as a reference.
func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	cfgPath := fs.String("config", "", "configuration file to evaluate (my.cnf syntax)")
	wname := fs.String("workload", "sysbench-rw", "workload name")
	iname := fs.String("instance", "CDB-A", "instance name (Table 1)")
	ename := fs.String("engine", "cdb-mysql", "storage engine (see `cdbtune info`)")
	seed := fs.Int64("seed", 1, "random seed")
	fs.Parse(args)
	if *cfgPath == "" {
		return fmt.Errorf("eval: -config is required")
	}
	w, err := workload.ByName(*wname)
	if err != nil {
		return err
	}
	inst, err := instanceByName(*iname)
	if err != nil {
		return err
	}
	engine, err := engineByFlag(*ename)
	if err != nil {
		return err
	}
	cat := knobs.ForEngine(engine)
	f, err := os.Open(*cfgPath)
	if err != nil {
		return err
	}
	defer f.Close()
	hw := inst.HW
	values, unknown, err := knobs.ParseConfig(cat, f, hw.RAMGB, hw.DiskGB)
	if err != nil {
		return err
	}
	for _, u := range unknown {
		fmt.Fprintf(os.Stderr, "warning: unknown knob %q ignored\n", u)
	}
	// Reference: defaults.
	db := env.OpenEngine(engine, inst, *seed)
	base, err := db.RunWorkload(w, 150)
	if err != nil {
		return err
	}
	// Normalize the parsed actual values and deploy.
	x := make([]float64, cat.Len())
	for i, k := range cat.Knobs {
		x[i] = k.Normalize(values[i], hw.RAMGB, hw.DiskGB)
	}
	if _, err := db.ApplyKnobs(cat, x); err != nil {
		return err
	}
	res, err := db.RunWorkload(w, 150)
	if err != nil {
		return fmt.Errorf("configuration crashed the instance: %w", err)
	}
	fmt.Printf("%s on %s (tuned: %s):\n", w.Name, inst.Name, *cfgPath)
	fmt.Printf("  defaults: %10.1f txn/sec  %10.1f ms (99th)\n", base.Ext.Throughput, base.Ext.Latency99)
	fmt.Printf("  tuned:    %10.1f txn/sec  %10.1f ms (99th)  [%+.1f%% throughput]\n",
		res.Ext.Throughput, res.Ext.Latency99, (res.Ext.Throughput/base.Ext.Throughput-1)*100)
	return nil
}

func cmdKnobs(args []string) error {
	fs := flag.NewFlagSet("knobs", flag.ExitOnError)
	engineName := fs.String("engine", "cdb-mysql", "storage engine (see `cdbtune info`)")
	all := fs.Bool("all", false, "include minor knobs without descriptions")
	fs.Parse(args)
	engine, err := engineByFlag(*engineName)
	if err != nil {
		return err
	}
	cat := knobs.ForEngine(engine)
	fmt.Printf("%s: %d tunable knobs\n", engine, cat.Len())
	shown := 0
	for _, k := range cat.Knobs {
		if k.Desc == "" && !*all {
			continue
		}
		restart := "dynamic"
		if k.Restart {
			restart = "restart"
		}
		fmt.Printf("  %-42s [%6.4g .. %-8.4g] default %-8.4g %-7s %s\n",
			k.Name, k.Min, k.Max, k.Default, restart, k.Desc)
		shown++
	}
	if !*all {
		fmt.Printf("  … plus %d minor knobs (use -all to list)\n", cat.Len()-shown)
	}
	return nil
}

func cmdInfo() error {
	fmt.Println("engines and knob catalogs:")
	for _, name := range knobs.EngineNames() {
		e, _ := knobs.EngineByName(name)
		fmt.Printf("  %-12s %d tunable knobs\n", e, knobs.ForEngine(e).Len())
	}
	fmt.Println("instances (Table 1):")
	for _, in := range simdb.Table1() {
		fmt.Printf("  %-8s %4.0f GB RAM  %4.0f GB disk\n", in.Name, in.HW.RAMGB, in.HW.DiskGB)
	}
	fmt.Println("workloads:")
	for _, w := range workload.All() {
		fmt.Printf("  %-12s reads %.0f%%  scans %.0f%%  %d threads  %.1f GB data\n",
			w.Name, w.ReadFraction*100, w.ScanFraction*100, w.Threads, w.DataSizeGB)
	}
	return nil
}
