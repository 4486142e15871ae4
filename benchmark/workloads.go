package main

import (
	"fmt"
	"math/rand"

	"cdbtune/internal/core"
	"cdbtune/internal/env"
	"cdbtune/internal/knobs"
	"cdbtune/internal/metrics"
	"cdbtune/internal/registry"
	"cdbtune/internal/rl/ddpg"
	"cdbtune/internal/server"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

// jobSpec is one generated request. The program under test sees nothing
// but the request built from it.
type jobSpec struct {
	Workload string
	Instance string
	Seed     int64
	Timeline string
	// Key is the fleet idempotency key ("" on the plain API); DupOf > 0
	// marks a resubmission of the job with index DupOf-1 under its key.
	Key   string
	DupOf int
}

func (j jobSpec) class() string { return j.Workload + "@" + j.Instance }

func (j jobSpec) request() server.JobRequest {
	return server.JobRequest{
		Tenant:   "bench",
		Workload: j.Workload, Instance: j.Instance,
		Seed: j.Seed, Timeline: j.Timeline,
	}
}

// workloadDef is one serving regime: how the stack is built, how it is
// seeded before timing starts, and which requests the clients draw.
type workloadDef struct {
	name string

	engine  knobs.Engine
	small   bool // 8-knob catalog and the loadgen-sized networks
	workers int
	clients int
	fleet   bool

	// maxEntries overrides the registry bound (0 = the shipped default);
	// preload is how many synthetic far-away entries set-up stores.
	maxEntries int
	preload    int

	// round, when above 1, is the number of consecutive jobs that make one
	// fixed mix; a run then measures whole rounds only.
	round int

	// seedJobs run (and must finish) before timing starts.
	seedJobs []string
	// dropModel removes each finished job's model so the next one cannot
	// warm-start; the removal is not timed.
	dropModel bool
	// wantPath, when set, is the serving path every timed job must take.
	wantPath string
	timeline string
	dupShare float64

	// tailPct is the percentile submit_to_deploy_tail_ms is read at. It is
	// fixed per workload, not derived from the run's sample count, so that a
	// faster or slower commit is read at the same percentile; each leaves
	// well over ten samples beyond it at the workload's measured rate (the
	// p99 of fleet_durable, with 17 beyond, spread three times as much from
	// run to run as its p95).
	tailPct float64

	// gen returns the request generator for one run; rng is private to it.
	gen func(w workloadDef, rng *rand.Rand) func(i int) jobSpec
}

var workloadNames = func() []string {
	ws := workload.All()
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.Name
	}
	return out
}()

func instanceNames() []string {
	t := simdb.Table1()
	out := make([]string, len(t))
	for i, in := range t {
		out[i] = in.Name
	}
	return out
}

// jobSeed is never 0: a zero JobRequest.Seed means "derive one".
func jobSeed(rng *rand.Rand) int64 { return 1 + rng.Int63n(1<<40) }

// gridJobs draws from the 6 workloads x 5 Table-1 instances grid.
func gridJobs(_ workloadDef, rng *rand.Rand) func(int) jobSpec {
	insts := instanceNames()
	return func(int) jobSpec {
		return jobSpec{
			Workload: workloadNames[rng.Intn(len(workloadNames))],
			Instance: insts[rng.Intn(len(insts))],
			Seed:     jobSeed(rng),
		}
	}
}

func workloads() []workloadDef {
	return []workloadDef{
		{
			// 266 knobs, shipped nets, every job trains from scratch: learner-bound (train step, GEMM, episodes-to-converge).
			name:    "scratch_full",
			engine:  knobs.EngineCDB,
			workers: 1, clients: 1,
			dropModel: true, wantPath: server.PathScratch,
			round:   len(workloadNames),
			tailPct: 0.5, // six jobs a run
			gen: func(_ workloadDef, rng *rand.Rand) func(int) jobSpec {
				// One round is the six standard workloads, cheapest first (the
				// smoke test runs only the first). The order is not drawn from
				// the seed: the server seeds a session from its job counter, so
				// a class's place in the round decides whether it converges in 6
				// or 8 episodes, and a seed-chosen order made a round 32 or 34
				// episodes (13 % of the wall) long.
				order := []string{"tpcc", "tpch", "ycsb", "sysbench-ro", "sysbench-rw", "sysbench-wo"}
				return func(i int) jobSpec {
					return jobSpec{Workload: order[i%len(order)], Instance: "CDB-A", Seed: jobSeed(rng)}
				}
			},
		},
		{
			// Same full-size stack, every job warm-starts a 4.6 MB model: bound by model load, save and registry write.
			name:    "warm_full",
			engine:  knobs.EngineCDB,
			workers: 1, clients: 1,
			seedJobs: []string{"sysbench-rw", "sysbench-ro", "tpcc"}, wantPath: server.PathWarm,
			tailPct: 0.9, // ~175 jobs a run
			gen: func(w workloadDef, rng *rand.Rand) func(int) jobSpec {
				// Round-robin over the classes set-up seeded.
				return func(i int) jobSpec {
					return jobSpec{Workload: w.seedJobs[i%len(w.seedJobs)], Instance: "CDB-A", Seed: jobSeed(rng)}
				}
			},
		},
		{
			// 8 knobs, tiny nets, 2 workers and 2 clients on a 30-class grid: bound by per-session fixed costs and contention.
			name:    "control_small",
			engine:  knobs.EngineCDB,
			small:   true,
			workers: 2, clients: 2,
			tailPct: 0.95, // ~2,500 jobs a run
			gen:     gridJobs,
		},
		{
			// One fleet node over a 1000-entry shared registry, keyed submissions with duplicates: bound by lease, WAL, journal and scan.
			name:    "fleet_durable",
			engine:  knobs.EngineCDB,
			small:   true,
			workers: 2, clients: 2,
			fleet:      true,
			maxEntries: 2048, preload: 1000,
			dupShare: 0.2,
			tailPct:  0.95, // ~1,700 jobs a run
			gen:      gridJobs,
		},
		{
			// LSM engine, every job serves a diurnal timeline with drift re-tunes: the only run of simdb/lsm and the drift path.
			name:    "dynamic_lsm",
			engine:  knobs.EngineLSM,
			small:   true,
			workers: 1, clients: 1,
			timeline: "diurnal24",
			tailPct:  0.95, // ~1,350 jobs a run
			gen: func(w workloadDef, rng *rand.Rand) func(int) jobSpec {
				return func(int) jobSpec {
					return jobSpec{
						Workload: workloadNames[rng.Intn(len(workloadNames))],
						Instance: "CDB-A", Seed: jobSeed(rng), Timeline: w.timeline,
					}
				}
			},
		},
	}
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// smoke shrinks a workload's set-up to what a unit test can afford: the
// last (cheapest) seed job, twenty preloaded entries, one repetition.
func (w workloadDef) smoke() workloadDef {
	if n := len(w.seedJobs); n > 1 {
		w.seedJobs = w.seedJobs[n-1:]
	}
	if w.preload > 20 {
		w.preload = 20
	}
	return w
}

// catalog is the knob set a workload tunes: the engine's full catalog, or
// its first eight knobs on the small regimes.
func (w workloadDef) catalog() *knobs.Catalog {
	full := knobs.ForEngine(w.engine)
	if !w.small {
		return full
	}
	idx := make([]int, 8)
	for i := range idx {
		idx[i] = i
	}
	return full.Subset(idx)
}

// tunerConfig is core.DefaultConfig on the full regimes and the
// serve-smoke/loadgen network on the small ones.
func (w workloadDef) tunerConfig(cat *knobs.Catalog) core.Config {
	cfg := core.DefaultConfig(cat)
	if !w.small {
		return cfg
	}
	d := ddpg.DefaultConfig(metrics.NumMetrics, cat.Len())
	d.ActorHidden = []int{24, 24}
	d.CriticHidden = []int{32, 24}
	cfg.DDPG = d
	cfg.StepsPerEpisode = 6
	cfg.UpdatesPerStep = 1
	return cfg
}

// serverSeed is the server's own seed, `cdbtune serve`'s default. It is
// configuration of the program under test, not an input: --seed varies
// what the clients send, never how the server was started.
const serverSeed = 1

// serverConfig is the serving configuration without its registry. The
// full regimes keep every shipped default; the small ones are the
// serve-smoke/loadgen settings.
func (w workloadDef) serverConfig() server.Config {
	engine := w.engine
	cfg := server.Config{
		Workers:     w.workers,
		QueueDepth:  16,
		Seed:        serverSeed,
		Catalog:     w.catalog(),
		TunerConfig: w.tunerConfig,
		MakeDB: func(inst simdb.Instance, seed int64) env.Database {
			return env.OpenEngine(engine, inst, seed)
		},
		Logf: func(string, ...any) {},
	}
	if w.small {
		cfg.OnlineSteps = 3
		cfg.MinScratchEpisodes = 4
		cfg.MaxScratchEpisodes = 6
		cfg.MaxFineTuneEpisodes = 2
		cfg.ChunkEpisodes = 2
		cfg.ProbeSteps = 2
		cfg.MatchRadius = 0.25
	}
	return cfg
}

func (w workloadDef) registryOpts() []registry.Option {
	opts := []registry.Option{registry.WithLogf(func(string, ...any) {})}
	if w.maxEntries > 0 {
		opts = append(opts, registry.WithMaxEntries(w.maxEntries))
	}
	return opts
}
