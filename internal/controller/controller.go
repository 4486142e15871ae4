package controller

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"cdbtune/internal/core"
	"cdbtune/internal/env"
	"cdbtune/internal/knobs"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

// Approver models the license step of §2.2.3: after the recommender
// produces a configuration, the controller deploys it only with the DBA's
// or user's approval.
type Approver interface {
	// Approve inspects the recommended configuration (actual values,
	// aligned with cat) and the projected improvement and grants or
	// denies deployment.
	Approve(cat *knobs.Catalog, values []float64, improvement float64) bool
}

// AutoApprove grants every recommendation — the mode the paper's
// experiments effectively run in.
type AutoApprove struct{}

// Approve implements Approver.
func (AutoApprove) Approve(*knobs.Catalog, []float64, float64) bool { return true }

// ThresholdApprover approves only recommendations whose projected
// throughput improvement exceeds MinImprovement (e.g. 0.05 = +5 %);
// everything else keeps the user's current configuration.
type ThresholdApprover struct{ MinImprovement float64 }

// Approve implements Approver.
func (a ThresholdApprover) Approve(_ *knobs.Catalog, _ []float64, improvement float64) bool {
	return improvement >= a.MinImprovement
}

// Config assembles a controller.
type Config struct {
	Tuner    *core.Tuner
	Approver Approver
	// CaptureSec is the workload-capture window (§2.1.2: "recent about
	// 150 seconds"); CaptureOpsPerSec the trace sampling rate.
	CaptureSec       int
	CaptureOpsPerSec float64
	// OnlineSteps is the per-request recommendation budget (paper: 5).
	OnlineSteps int
	Seed        int64
	// GuardK is the consecutive-failure budget before the safety guardrail
	// reverts the instance to its best-known-good configuration (0 = the
	// guardrail default of 3); GuardRadius is the normalized knob distance
	// under which a recommendation counts as re-entering a recorded
	// near-crash region (0 = default 0.05).
	GuardK      int
	GuardRadius float64
}

// Controller mediates tuning and training requests. It is safe for
// concurrent use: the serving layer runs many sessions against one
// controller, so the request counter and the capture rng are mutex-
// protected here, the guardrail synchronizes itself, and the tuner
// serializes agent access internally (see the core package doc).
type Controller struct {
	cfg   Config
	guard *core.Guardrail

	mu       sync.Mutex
	rng      *rand.Rand
	requests int
}

// New builds a controller; Tuner is required, everything else defaults to
// the paper's protocol.
func New(cfg Config) (*Controller, error) {
	if cfg.Tuner == nil {
		return nil, errors.New("controller: Config.Tuner is required")
	}
	if cfg.Approver == nil {
		cfg.Approver = AutoApprove{}
	}
	if cfg.CaptureSec == 0 {
		cfg.CaptureSec = 150
	}
	if cfg.CaptureOpsPerSec == 0 {
		cfg.CaptureOpsPerSec = 50
	}
	if cfg.OnlineSteps == 0 {
		cfg.OnlineSteps = 5
	}
	return &Controller{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		guard: core.NewGuardrail(cfg.GuardK, cfg.GuardRadius),
	}, nil
}

// Guardrail exposes the controller's safety guardrail, shared across every
// tuning request it serves so near-crash regions learned on one request
// protect the next.
func (c *Controller) Guardrail() *core.Guardrail { return c.guard }

// Requests reports how many tuning requests have been served.
func (c *Controller) Requests() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.requests
}

// RequestResult is the outcome of one served tuning request.
type RequestResult struct {
	core.TuneResult
	// Replayed is the workload profile reconstructed from the captured
	// trace and used for the stress tests.
	Replayed workload.Workload
	// Approved reports whether the license step granted deployment; when
	// false the instance was rolled back to its pre-request configuration.
	Approved bool
	// Values are the recommended actual knob values (aligned with the
	// tuner's catalog).
	Values []float64
	// Improvement is the relative throughput gain of the best measured
	// configuration over the request's baseline (0.1 = +10 %), the figure
	// the Approver judged; 0 when the baseline measured no throughput.
	Improvement float64
}

// HandleTuningRequestCtx serves one user tuning request (§2.1.2; the
// suffix is a name the benchmark pins) against the user's database
// instance: capture, replay, tune, license, deploy-or-rollback. The tuning
// loop runs under the controller's safety guardrail, so a faulty instance
// (crashes, transient measurement failures) is reverted to its
// best-known-good configuration rather than left on a bad one. db is any
// measurement target satisfying env.Database — the simulator directly, or
// a chaos-wrapped instance in resilience tests.
//
// A cancelled or past-deadline ctx abandons the request promptly: the
// tuning loop stops recommending, and because the license step never ran
// the instance is rolled back to its pre-request configuration before the
// context's error is returned (with valid partial accounting in the
// result).
func (c *Controller) HandleTuningRequestCtx(ctx context.Context, db env.Database, userWorkload workload.Workload) (RequestResult, error) {
	var out RequestResult
	cat := c.cfg.Tuner.Config().Cat

	// Workload generator, replay mode (§2.2.1): capture the user's recent
	// operations and reconstruct an equivalent profile. The rng is shared
	// across concurrent requests, so the capture runs under the mutex.
	c.mu.Lock()
	c.requests++
	trace := workload.Record(userWorkload, c.cfg.CaptureSec, c.cfg.CaptureOpsPerSec, c.rng)
	c.mu.Unlock()
	replayed, err := workload.Replay(trace)
	if err != nil {
		return out, fmt.Errorf("controller: replaying captured workload: %w", err)
	}
	out.Replayed = replayed

	// Remember the pre-request configuration for rollback.
	before := db.CurrentKnobs(cat)

	e := env.New(db, cat, replayed)
	res, err := c.cfg.Tuner.OnlineTune(ctx, e, core.TuneOptions{Steps: c.cfg.OnlineSteps, FineTune: true, Guard: c.guard})
	out.TuneResult = res
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// Abandoned request: no license was granted, so the user's
			// instance must not keep whatever the cut-short exploration
			// deployed.
			if rbErr := applyWithRetry(db, cat, before); rbErr != nil {
				return out, fmt.Errorf("controller: rolling back abandoned request: %v (after %w)", rbErr, err)
			}
		}
		return out, err
	}

	hw := db.Instance().HW
	out.Values = cat.Denormalize(res.Best, hw.RAMGB, hw.DiskGB)
	if res.Initial.Throughput > 0 {
		out.Improvement = res.BestPerf.Throughput/res.Initial.Throughput - 1
	}
	out.Approved = c.cfg.Approver.Approve(cat, out.Values, out.Improvement)
	if !out.Approved {
		if err := applyWithRetry(db, cat, before); err != nil {
			return out, fmt.Errorf("controller: rolling back: %w", err)
		}
	}
	return out, nil
}

// applyWithRetry deploys a known-good configuration, absorbing a few
// transient deployment failures — a rollback must not be defeated by the
// same flakiness that triggered it.
func applyWithRetry(db env.Database, cat *knobs.Catalog, values []float64) error {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if _, err = db.ApplyKnobs(cat, values); err == nil {
			return nil
		}
		if !errors.Is(err, simdb.ErrTransient) {
			return err
		}
	}
	return err
}

// HandleTrainingRequest serves a DBA training request (§2.1.1): offline
// training with the workload generator's standard workloads, with
// whatever checkpoint/resume, lost-server budget and telemetry hooks opts
// carries.
func (c *Controller) HandleTrainingRequest(mkEnv core.EnvFactory, opts core.TrainOptions) (core.TrainReport, error) {
	return c.cfg.Tuner.OfflineTrainOpts(mkEnv, opts)
}
