package main

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"cdbtune/internal/controller"
	"cdbtune/internal/core"
	"cdbtune/internal/env"
	"cdbtune/internal/metrics"
	"cdbtune/internal/registry"
	"cdbtune/internal/server"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

// replica re-runs finished jobs through the stages of the server's
// session pipeline (server.Manager's serve, train, probe and dynamic
// window) with public calls only, one span per call, against the live
// stack's registry. It is how the benchmark sees inside a job without a
// span in the program: the same configuration, the same seeds, the same
// sequence, so a replayed job does the work the live job did.
//
// The sequence is a copy of the server's, and a later change to the server
// can leave it behind; replica.match_share reports how many replayed jobs
// still took the live job's path and episode count.
type replica struct {
	w   workloadDef
	cfg server.Config
	reg registry.Store
	tr  *tracer

	last *core.Tuner // the most recent job's tuner, for the learner probes
}

func newReplica(w workloadDef, reg registry.Store, tr *tracer) *replica {
	cfg := w.serverConfig()
	cfg.MakeDB = tr.wrapMakeDB(cfg.MakeDB)
	// server.Config's defaults, for the fields the full regimes leave zero.
	def := func(v *int, d int) {
		if *v <= 0 {
			*v = d
		}
	}
	def(&cfg.OnlineSteps, 5)
	def(&cfg.MinScratchEpisodes, 4)
	def(&cfg.MaxScratchEpisodes, 8)
	def(&cfg.MaxFineTuneEpisodes, 2)
	def(&cfg.ChunkEpisodes, 2)
	def(&cfg.Patience, 1)
	def(&cfg.ProbeSteps, 2)
	def(&cfg.TrainWorkers, 1)
	if cfg.ConvergeEps <= 0 {
		cfg.ConvergeEps = 0.01
	}
	if cfg.MatchRadius <= 0 {
		cfg.MatchRadius = 0.1
	}
	return &replica{w: w, cfg: cfg, reg: tr.wrapStore(reg), tr: tr}
}

// replayed is what the replica saw of one job.
type replayed struct {
	path     string
	episodes int
	totalMs  float64
	modelLen int
	drifts   int
	retunes  int
	reverts  int
	steps    int // Agent.TrainSteps after the job
}

// jobNumber recovers the manager's job counter from a job ID
// ("job-0012", "bench-job-0012"): the counter seeds the session.
func jobNumber(id string) (int64, error) {
	i := strings.LastIndexByte(id, '-')
	if i < 0 {
		return 0, fmt.Errorf("job id %q has no counter", id)
	}
	return strconv.ParseInt(id[i+1:], 10, 64)
}

// replay runs one finished live job again, stage by stage.
func (rp *replica) replay(out outcome) (r replayed, err error) {
	cfg := rp.cfg
	rp.tr.job = out.idx
	num, err := jobNumber(out.status.ID)
	if err != nil {
		return r, err
	}
	wl, err := workload.ByName(out.spec.Workload)
	if err != nil {
		return r, err
	}
	inst, ok := simdb.ByName(out.spec.Instance)
	if !ok {
		return r, fmt.Errorf("unknown instance %q", out.spec.Instance)
	}
	baseSeed := cfg.Seed + num*1_000_003
	ctx := context.Background()

	t0 := time.Now()
	endJob := rp.tr.stage("replica.job")
	defer func() {
		endJob()
		r.totalMs = ms(time.Since(t0))
	}()

	end := rp.tr.stage("env.measure")
	userDB := cfg.MakeDB(inst, out.spec.Seed)
	base, err := env.New(userDB, cfg.Catalog, wl).Measure()
	end()
	if err != nil {
		return r, fmt.Errorf("fingerprinting: %w", err)
	}
	end = rp.tr.stage("registry.fingerprint")
	fp := registry.Fingerprint(base.State, wl, inst.HW)
	end()

	end = rp.tr.stage("core.new")
	tn, err := core.New(cfg.TunerConfig(cfg.Catalog))
	end()
	if err != nil {
		return r, err
	}
	rp.last = tn

	warm := false
	var match registry.Match
	if mt, ok := rp.reg.Nearest(fp); ok && mt.Distance <= cfg.MatchRadius {
		end = rp.tr.stage("core.load")
		lerr := tn.Load(bytes.NewReader(mt.Model))
		end()
		if lerr == nil {
			warm, match = true, mt
		}
	}
	r.path = server.PathScratch
	if warm {
		r.path = server.PathWarm
	}

	if r.episodes, err = rp.train(ctx, tn, baseSeed, inst, wl, warm); err != nil {
		return r, err
	}

	end = rp.tr.stage("controller.tune")
	ctrl, err := controller.New(controller.Config{
		Tuner: tn, Seed: baseSeed, OnlineSteps: cfg.OnlineSteps,
		GuardK: cfg.GuardK, GuardRadius: cfg.GuardRadius,
	})
	var res controller.RequestResult
	if err == nil {
		res, err = ctrl.HandleTuningRequestCtx(ctx, userDB, wl)
	}
	end()
	if err != nil {
		return r, fmt.Errorf("tuning request: %w", err)
	}

	var buf bytes.Buffer
	end = rp.tr.stage("core.save")
	err = tn.Save(&buf)
	end()
	if err != nil {
		return r, err
	}
	r.modelLen = buf.Len()
	meta := registry.Meta{
		Workload: wl.Name, Instance: inst.Name, Fingerprint: fp,
		Episodes: r.episodes, BestThroughput: res.BestPerf.Throughput,
	}
	if warm {
		meta.ID = match.Meta.ID
		meta.Episodes = match.Meta.Episodes + r.episodes
		if match.Meta.BestThroughput > meta.BestThroughput {
			meta.BestThroughput = match.Meta.BestThroughput
		}
	} else {
		meta.ScratchEpisodes = r.episodes
	}
	stored, err := rp.reg.Put(meta, buf.Bytes())
	if err != nil {
		return r, fmt.Errorf("registering model: %w", err)
	}

	if out.spec.Timeline != "" {
		if err := rp.dynamic(ctx, tn, userDB, inst, wl, out.spec.Timeline, stored, &r); err != nil {
			return r, err
		}
	}
	r.steps = tn.Agent().TrainSteps()
	if rp.w.dropModel {
		if err := rp.reg.Delete(stored.ID); err != nil {
			return r, err
		}
	}
	return r, nil
}

// train is the server's chunked training loop: train a chunk, probe the
// greedy policy, stop once the probe stops improving.
func (rp *replica) train(ctx context.Context, tn *core.Tuner, baseSeed int64, inst simdb.Instance, wl workload.Workload, warm bool) (int, error) {
	cfg := rp.cfg
	maxEp, minEp := cfg.MaxScratchEpisodes, cfg.MinScratchEpisodes
	if warm {
		maxEp, minEp = cfg.MaxFineTuneEpisodes, 0
	}
	episodes, best, flat := 0, 0.0, 0
	if warm {
		if p, err := rp.probe(ctx, tn, baseSeed, inst, wl, 0); err == nil {
			best = p
		}
	}
	for episodes < maxEp {
		n := cfg.ChunkEpisodes
		if episodes+n > maxEp {
			n = maxEp - episodes
		}
		chunkBase := baseSeed + int64(episodes)*101
		mk := func(ep int) *env.Env {
			return env.New(cfg.MakeDB(inst, chunkBase+int64(ep)), cfg.Catalog, wl)
		}
		end := rp.tr.stage("core.train")
		rep, err := tn.OfflineTrainOpts(mk, core.TrainOptions{Episodes: n, Workers: cfg.TrainWorkers, Ctx: ctx})
		end()
		episodes += rep.Episodes
		if err != nil {
			return episodes, fmt.Errorf("training episode %d: %w", episodes, err)
		}
		p, perr := rp.probe(ctx, tn, baseSeed, inst, wl, episodes)
		if perr != nil {
			continue
		}
		if episodes >= minEp && best > 0 && p <= best*(1+cfg.ConvergeEps) {
			if flat++; flat >= cfg.Patience {
				break
			}
		} else {
			flat = 0
		}
		if p > best {
			best = p
		}
	}
	return episodes, nil
}

// probe is the server's greedy probe on a fresh instance.
func (rp *replica) probe(ctx context.Context, tn *core.Tuner, baseSeed int64, inst simdb.Instance, wl workload.Workload, after int) (float64, error) {
	defer rp.tr.stage("core.probe")()
	e := env.New(rp.cfg.MakeDB(inst, baseSeed+9_000_000+int64(after)), rp.cfg.Catalog, wl)
	e.Bind(ctx)
	defer e.Bind(nil)
	base, err := e.Measure()
	if err != nil {
		return 0, err
	}
	best := base.Ext.Throughput
	state := metrics.Normalize(base.State)
	for i := 0; i < rp.cfg.ProbeSteps; i++ {
		end := rp.tr.stage("ddpg.act")
		action := tn.Agent().Act(state)
		end()
		end = rp.tr.stage("env.step")
		res, err := e.Step(action)
		end()
		if err != nil {
			break
		}
		state = metrics.Normalize(res.State)
		if res.Ext.Throughput > best {
			best = res.Ext.Throughput
		}
	}
	return best, nil
}

// dynamic is the server's dynamic serving window and its write-back.
func (rp *replica) dynamic(ctx context.Context, tn *core.Tuner, userDB env.Database, inst simdb.Instance, wl workload.Workload, timeline string, stored registry.Meta, r *replayed) error {
	cfg := rp.cfg
	tl, err := workload.TimelineByName(timeline, wl)
	if err != nil {
		return err
	}
	e := env.New(userDB, cfg.Catalog, wl)
	e.Timeline = tl
	end := rp.tr.stage("core.dynamic_window")
	rep, err := tn.ServeDynamic(e, core.DynamicOptions{
		Guard:    core.NewGuardrail(3, 0.05),
		FineTune: true,
		Ctx:      ctx,
		WarmSeed: func(state []float64, w workload.Workload) (string, bool) {
			fp := registry.Fingerprint(state, w, inst.HW)
			mt, ok := rp.reg.NearestWithin(fp, cfg.MatchRadius)
			if !ok || mt.Meta.ID == stored.ID {
				return "", false
			}
			if tn.Load(bytes.NewReader(mt.Model)) != nil {
				return "", false
			}
			return mt.Meta.ID, true
		},
	})
	end()
	if err != nil {
		return fmt.Errorf("dynamic window: %w", err)
	}
	r.drifts, r.retunes, r.reverts = rep.Drifts, len(rep.Retunes), rep.Reverts
	if len(rep.Retunes) == 0 {
		return nil
	}
	var buf bytes.Buffer
	end = rp.tr.stage("core.save")
	err = tn.Save(&buf)
	end()
	if err != nil {
		return err
	}
	meta := registry.Meta{
		ID: stored.ID, Workload: wl.Name, Instance: inst.Name,
		Fingerprint: stored.Fingerprint, Episodes: stored.Episodes + len(rep.Retunes),
		BestThroughput: stored.BestThroughput,
	}
	if rep.Final.Throughput > meta.BestThroughput {
		meta.BestThroughput = rep.Final.Throughput
	}
	_, err = rp.reg.Put(meta, buf.Bytes())
	return err
}
