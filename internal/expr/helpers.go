package expr

import (
	"fmt"

	"cdbtune/internal/core"
	"cdbtune/internal/dba"
	"cdbtune/internal/env"
	"cdbtune/internal/knobs"
	"cdbtune/internal/metrics"
	"cdbtune/internal/ottertune"
	"cdbtune/internal/rl/ddpg"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

// newEnv builds a fresh environment: a new instance of engine on inst
// driving w, exposing the knobs of cat. Engine dispatch goes through
// env.OpenEngine, so EngineLSM gets the LSM simulator.
func newEnv(engine knobs.Engine, inst simdb.Instance, cat *knobs.Catalog, w workload.Workload, seed int64) *env.Env {
	return env.New(env.OpenEngine(engine, inst, seed), cat, w)
}

// tunerConfig assembles a core.Config from the budget.
func tunerConfig(b Budget, cat *knobs.Catalog) core.Config {
	cfg := core.DefaultConfig(cat)
	cfg.StepsPerEpisode = b.StepsPerEpisode
	cfg.UpdatesPerStep = b.UpdatesPerStep
	cfg.Seed = b.Seed
	d := ddpg.DefaultConfig(metrics.NumMetrics, cat.Len())
	d.ActorHidden = b.ActorHidden
	d.CriticHidden = b.CriticHidden
	d.Seed = b.Seed
	cfg.DDPG = d
	return cfg
}

// scaledEpisodes grows the training budget with the action dimension.
func scaledEpisodes(b Budget, cat *knobs.Catalog) int {
	episodes := b.Episodes
	if scaled := b.Episodes * cat.Len() / 133; scaled > episodes {
		episodes = scaled
	}
	return episodes
}

// warmConfig is tunerConfig plus the default-configuration warm start for
// the given instance (DESIGN.md §5 item 8).
func warmConfig(b Budget, cat *knobs.Catalog, inst simdb.Instance) core.Config {
	cfg := tunerConfig(b, cat)
	cfg.DDPG.ActionBias = cat.Defaults(inst.HW.RAMGB, inst.HW.DiskGB)
	return cfg
}

// trainTuner offline-trains a CDBTune model with the default-configuration
// warm start on the given workload against the given instance. The paper
// trains every configuration to convergence; train scales the episode
// budget with the knob count so the 266-knob models are not starved.
func trainTuner(b Budget, engine knobs.Engine, inst simdb.Instance, cat *knobs.Catalog, w workload.Workload, seedBase int64) (*core.Tuner, core.TrainReport, error) {
	return train(b, warmConfig(b, cat, inst), func(ep int) *env.Env {
		return newEnv(engine, inst, cat, w, seedBase+int64(ep))
	})
}

// buildRepo collects an OtterTune repository on the given workloads.
func buildRepo(b Budget, engine knobs.Engine, inst simdb.Instance, cat *knobs.Catalog, ws []workload.Workload, seed int64) (*ottertune.Repository, error) {
	envs := make([]*env.Env, len(ws))
	for i, w := range ws {
		envs[i] = newEnv(engine, inst, cat, w, seed+int64(i))
	}
	return ottertune.BuildRepository(envs, b.RepoSamples, dba.Recommend, seed)
}

// fmtF formats a float with one decimal for table cells.
func fmtF(v float64) string { return fmt.Sprintf("%.1f", v) }

// fmtPct formats a ratio as a signed percentage.
func fmtPct(v float64) string { return fmt.Sprintf("%+.2f%%", v*100) }
