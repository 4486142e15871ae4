package expr

import (
	"context"

	"cdbtune/internal/bestconfig"
	"cdbtune/internal/core"
	"cdbtune/internal/dba"
	"cdbtune/internal/env"
	"cdbtune/internal/knobs"
	"cdbtune/internal/metrics"
	"cdbtune/internal/ottertune"
)

// tuner is one row of a comparison experiment: a tool run at the
// experiment budget against an environment the caller builds. The caller
// owns the environment, so it picks the seed and reads whatever else it
// reports (Table 2's virtual minutes) from it after the run. The
// constructors below are the one place each tool's budget, seed and
// protocol are set.
type tuner struct {
	name string
	tune func(*env.Env) (metrics.External, error)
}

// engineDefault measures the engine's shipped configuration.
func engineDefault(engine knobs.Engine) tuner {
	return tuner{engine.String() + " default", func(e *env.Env) (metrics.External, error) {
		res, err := e.Measure()
		return res.Ext, err
	}}
}

// cdbDefault deploys the Tencent CDB shipped configuration: modestly
// better than the MySQL defaults (a bigger pool and log, more
// connections) but untuned for any particular workload.
func cdbDefault() tuner {
	return tuner{"CDB default", func(e *env.Env) (metrics.External, error) {
		hw := e.DB.Instance().HW
		x := e.Default()
		set := func(role knobs.Role, actual float64) {
			if i := e.Cat.RoleIndex(role); i >= 0 {
				x[i] = e.Cat.Knobs[i].Normalize(actual, hw.RAMGB, hw.DiskGB)
			}
		}
		set(knobs.RoleBufferPool, 0.25*hw.RAMGB*1024)
		set(knobs.RoleLogFileSize, 256)
		set(knobs.RoleMaxConnections, 800)
		set(knobs.RoleLogBufferSize, 16)
		res, err := e.Step(x)
		return res.Ext, err
	}}
}

// bestConfig searches from scratch for b.BestConfigSteps evaluations.
func bestConfig(b Budget, seed int64) tuner {
	return tuner{"BestConfig", func(e *env.Env) (metrics.External, error) {
		cfg := bestconfig.DefaultConfig()
		cfg.Budget = b.BestConfigSteps
		cfg.Seed = seed
		res, err := bestconfig.Tune(e, cfg)
		return res.BestPerf, err
	}}
}

// expertDBA is one pass of the expert's rules, charged 8.6 hours.
func expertDBA() tuner {
	return tuner{"DBA", func(e *env.Env) (metrics.External, error) {
		_, perf, err := dba.Tune(e)
		return perf, err
	}}
}

// otterTune maps the workload against repo and iterates b.OtterTuneSteps
// recommendations, from a Gaussian process or, with dnn, the
// feed-forward network of Figure 1's "OtterTune with deep learning".
func otterTune(b Budget, repo *ottertune.Repository, seed int64, dnn bool) tuner {
	name := "OtterTune"
	if dnn {
		name = "OtterTune with deep learning"
	}
	return tuner{name, func(e *env.Env) (metrics.External, error) {
		cfg := ottertune.DefaultConfig()
		cfg.Steps = b.OtterTuneSteps
		cfg.UseDNN = dnn
		cfg.Seed = seed
		res, err := ottertune.Tune(e, repo, cfg)
		return res.BestPerf, err
	}}
}

// cdbTune serves one tuning request from the trained model t.
func cdbTune(name string, b Budget, t *core.Tuner) tuner {
	return tuner{name, func(e *env.Env) (metrics.External, error) {
		res, err := onlineTune(b, t, e)
		return res.BestPerf, err
	}}
}

// onlineTune is the paper's online tuning request (§4.2): the model
// recommends for b.OnlineSteps steps and keeps fine-tuning on what it
// observes.
func onlineTune(b Budget, t *core.Tuner, e *env.Env) (core.TuneResult, error) {
	return t.OnlineTune(context.TODO(), e, core.TuneOptions{Steps: b.OnlineSteps, FineTune: true})
}

// train offline-trains a fresh model from cfg on the environments mkEnv
// builds per episode. The episode budget scales with the action
// dimension (scaledEpisodes).
func train(b Budget, cfg core.Config, mkEnv func(ep int) *env.Env) (*core.Tuner, core.TrainReport, error) {
	t, err := core.New(cfg)
	if err != nil {
		return nil, core.TrainReport{}, err
	}
	rep, err := t.OfflineTrainOpts(mkEnv, core.TrainOptions{Episodes: scaledEpisodes(b, cfg.Cat)})
	return t, rep, err
}

// iterations is the training iteration count a figure reports: where
// the reward converged, or the whole run if it never did.
func iterations(rep core.TrainReport) int {
	if rep.ConvergedAt == 0 {
		return rep.Iterations
	}
	return rep.ConvergedAt
}

// perfTable runs rows[i] on mkEnv(seeds[i]), in order, and appends one
// tuner / throughput / p99 row per tool to t.
func perfTable(t Table, rows []tuner, seeds []int64, mkEnv func(seed int64) *env.Env) (Table, error) {
	for i, r := range rows {
		perf, err := r.tune(mkEnv(seeds[i]))
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{r.name, fmtF(perf.Throughput), fmtF(perf.Latency99)})
	}
	return t, nil
}
