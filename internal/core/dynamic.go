package core

import (
	"context"
	"errors"
	"fmt"

	"cdbtune/internal/env"
	"cdbtune/internal/metrics"
	"cdbtune/internal/simdb"
	"cdbtune/internal/workload"
)

// DynamicEvent is one notable moment of a dynamic serving window:
// Kind is "drift" (detector fired), "retune" (guarded re-tune finished),
// "revert" (the guardrail or crash recovery put a known-good
// configuration back) or "crash" (the serving configuration crashed
// outside a re-tune).
type DynamicEvent struct {
	Kind     string
	Hour     float64
	Phase    string
	Distance float64
	EWMA     float64
	Detail   string
}

// String renders the event as one log line.
func (ev DynamicEvent) String() string {
	s := fmt.Sprintf("h%05.2f [%s] %s", ev.Hour, ev.Phase, ev.Kind)
	if ev.Kind == "drift" {
		s += fmt.Sprintf(" dist %.4f ewma %.4f", ev.Distance, ev.EWMA)
	}
	if ev.Detail != "" {
		s += "  " + ev.Detail
	}
	return s
}

// DynamicSample is one steady-state observation of the serving loop.
type DynamicSample struct {
	Hour  float64
	Phase string
	// Load is the timeline's instantaneous request-rate multiplier.
	Load float64
	Ext  metrics.External
	// Distance and EWMA are the drift detector's view of this sample.
	Distance float64
	EWMA     float64
}

// Retune records one drift-triggered guarded re-tune.
type Retune struct {
	// Hour and Phase locate the triggering drift on the timeline.
	Hour  float64
	Phase string
	// Seed labels the warm-start model the re-tune began from ("" =
	// in-place, continuing with the currently loaded weights).
	Seed string
	// Stale is the last measurement of the old configuration under the
	// drifted workload; Tuned the best measurement the re-tune achieved.
	// The two are directly comparable: same instance, same phase of the
	// timeline (modulo the simulated hours the re-tune itself consumed).
	Stale metrics.External
	Tuned metrics.External
	// Crashes/Reverts/Vetoes/SkippedSteps mirror TuneResult accounting.
	Crashes      int
	Reverts      int
	Vetoes       int
	SkippedSteps int
	// Seconds is the re-tune's virtual wall-clock cost.
	Seconds float64
}

// DynamicOptions configures ServeDynamic.
type DynamicOptions struct {
	// HorizonHours is how many simulated hours to serve; 0 serves one
	// full timeline cycle.
	HorizonHours float64
	// ObserveSec is the stress-test length of each steady-state
	// observation window (and of re-tune measurements); 0 means
	// simdb.ObserveSec. The full StressTestSec would burn simulated
	// hours per sample at typical time compression.
	ObserveSec float64
	// Drift configures the detector (zero values → calibrated defaults).
	Drift DriftConfig
	// Guard is the safety guardrail handed to every re-tune; nil builds
	// a fresh NewGuardrail(3, 0.05) for the window. The guardrail
	// persists across re-tunes, so near-crash regions learned during one
	// burst still screen recommendations during the next.
	Guard *Guardrail
	// ReTuneSteps is the online-tuning step budget per re-tune (0 = 3 —
	// deliberately below the paper's 5: a re-tune races the workload it
	// is adapting to); FineTune additionally updates the model on the
	// observed feedback.
	ReTuneSteps int
	FineTune    bool
	// WarmSeed, when non-nil, is consulted at each drift with the
	// drifted raw metric state (the input registry.Fingerprint expects —
	// it normalizes internally) and the current effective workload; it
	// may load a better-matching model into the tuner (the server wires
	// this to a registry nearest-neighbor lookup) and returns a label
	// for the event stream. Returning ok=false re-tunes in place with
	// the current weights.
	WarmSeed func(state []float64, w workload.Workload) (label string, ok bool)
	// OnSample/OnEvent/OnEpisode stream telemetry: every observation,
	// every notable event, and one EpisodeStats per re-tune.
	OnSample  func(DynamicSample)
	OnEvent   func(DynamicEvent)
	OnEpisode EpisodeHook
	// Ctx bounds the window; cancellation stops serving after the
	// current observation or re-tune and returns ctx's error with valid
	// partial accounting.
	Ctx context.Context
}

// DynamicReport summarizes a dynamic serving window.
type DynamicReport struct {
	Samples []DynamicSample
	Events  []DynamicEvent
	Retunes []Retune

	// Drifts counts detector firings; Reverts guardrail/crash-recovery
	// reverts; Vetoes near-crash screens; Crashes every crash observed
	// (inside and outside re-tunes). Unreverted counts crashes or
	// guardrail trips that could NOT be recovered to a known-good
	// configuration — zero is the safety acceptance bar.
	Drifts     int
	Reverts    int
	Vetoes     int
	Crashes    int
	Unreverted int

	// Final is the last successful measurement; Seconds the window's
	// virtual wall-clock cost; Hours the simulated hours served.
	Final   metrics.External
	Seconds float64
	Hours   float64
}

// MeanThroughput averages throughput over the window's steady samples.
func (r DynamicReport) MeanThroughput() float64 {
	if len(r.Samples) == 0 {
		return 0
	}
	var sum float64
	for _, s := range r.Samples {
		sum += s.Ext.Throughput
	}
	return sum / float64(len(r.Samples))
}

// ServeDynamic keeps a tuned instance healthy under a time-varying
// workload: it observes the streaming metric state in short windows,
// feeds each normalized state to a DriftDetector rebased on the
// post-tuning fingerprint, and when the smoothed fingerprint distance
// crosses the threshold it runs an in-place guarded re-tune
// (OnlineTune), optionally warm-seeded from a registry model via
// opts.WarmSeed. Crashes at the serving configuration revert to
// defaults and re-tune from there; the guardrail screens every re-tune
// recommendation and reverts after consecutive failures, so the
// instance never finishes a window on a crashing configuration.
//
// The environment must carry a workload.Timeline; its DurationSec is
// overridden to opts.ObserveSec for the duration of the window and
// restored on return. See the package doc for the detector's
// interaction with the Guardrail and Supervisor.
func (t *Tuner) ServeDynamic(e *env.Env, opts DynamicOptions) (DynamicReport, error) {
	var out DynamicReport
	if e.Timeline == nil {
		return out, errors.New("core: ServeDynamic requires an environment with a Timeline")
	}
	if opts.ObserveSec <= 0 {
		opts.ObserveSec = simdb.ObserveSec
	}
	if opts.ReTuneSteps <= 0 {
		opts.ReTuneSteps = 3
	}
	if opts.HorizonHours <= 0 {
		opts.HorizonHours = e.Timeline.TotalHours()
	}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	guard := opts.Guard
	if guard == nil {
		guard = NewGuardrail(3, 0.05)
	}
	det := NewDriftDetector(opts.Drift)

	prevDur := e.DurationSec
	e.DurationSec = opts.ObserveSec
	defer func() { e.DurationSec = prevDur }()
	e.Bind(ctx)
	defer e.Bind(nil)

	start := e.Clock.Seconds()
	startHour := e.Hour()
	emit := func(ev DynamicEvent) {
		out.Events = append(out.Events, ev)
		if opts.OnEvent != nil {
			opts.OnEvent(ev)
		}
	}
	finish := func(err error) (DynamicReport, error) {
		out.Seconds = e.Clock.Seconds() - start
		out.Hours = e.Hour() - startHour
		return out, err
	}

	// Baseline: fingerprint the workload the current configuration was
	// tuned for.
	base, err := e.Measure()
	if err != nil {
		if errors.Is(err, simdb.ErrCrashed) {
			out.Crashes++
			if base, err = recoverEnv(e); err == nil {
				out.Reverts++
				emit(DynamicEvent{Kind: "revert", Hour: e.Hour(), Phase: e.PhaseName(), Detail: "baseline crash, recovered defaults"})
			}
		}
		if err != nil {
			return finish(fmt.Errorf("core: dynamic baseline measurement: %w", err))
		}
	}
	det.Rebase(metrics.Normalize(base.State))
	out.Final = base.Ext

	rebase := false // next good observation rebases instead of observing
	for e.Hour()-startHour < opts.HorizonHours {
		if err := ctx.Err(); err != nil {
			return finish(err)
		}
		res, err := e.Measure()
		if err != nil {
			switch {
			case errors.Is(err, simdb.ErrCrashed):
				// The serving configuration crashed under the workload the
				// timeline moved to. Recover to defaults (the revert of
				// last resort), rebase the detector there, and let the
				// next observations decide whether a re-tune is needed.
				out.Crashes++
				emit(DynamicEvent{Kind: "crash", Hour: e.Hour(), Phase: e.PhaseName(), Detail: "serving config crashed"})
				rec, rerr := recoverEnv(e)
				if rerr != nil {
					if errors.Is(rerr, context.Canceled) || errors.Is(rerr, context.DeadlineExceeded) {
						return finish(rerr)
					}
					out.Unreverted++
					return finish(fmt.Errorf("core: recovering crashed serving config: %w", rerr))
				}
				out.Reverts++
				emit(DynamicEvent{Kind: "revert", Hour: e.Hour(), Phase: e.PhaseName(), Detail: "recovered to defaults"})
				det.Rebase(metrics.Normalize(rec.State))
				out.Final = rec.Ext
				continue
			case benignFault(err):
				// Transient measurement failure out-ran the retries: skip
				// this window.
				continue
			default:
				return finish(err)
			}
		}
		state := metrics.Normalize(res.State)
		out.Final = res.Ext
		if rebase {
			det.Rebase(state)
			rebase = false
			continue
		}
		s := det.Observe(state)
		sample := DynamicSample{
			Hour: e.Hour(), Phase: e.PhaseName(),
			Load: e.Timeline.LoadAt(e.Hour()),
			Ext:  res.Ext, Distance: s.Distance, EWMA: s.EWMA,
		}
		out.Samples = append(out.Samples, sample)
		if opts.OnSample != nil {
			opts.OnSample(sample)
		}
		if !s.Drifted {
			continue
		}

		// Drift: the fingerprint has diverged from what the serving
		// configuration was tuned for.
		out.Drifts++
		driftHour, driftPhase := e.Hour(), e.PhaseName()
		emit(DynamicEvent{Kind: "drift", Hour: driftHour, Phase: driftPhase, Distance: s.Distance, EWMA: s.EWMA})

		seed := ""
		if opts.WarmSeed != nil {
			if label, ok := opts.WarmSeed(res.State, e.CurrentWorkload()); ok {
				seed = label
			}
		}
		tr, terr := t.OnlineTune(ctx, e, TuneOptions{Steps: opts.ReTuneSteps, FineTune: opts.FineTune, Guard: guard})
		e.Bind(ctx) // OnlineTune unbinds on return
		out.Crashes += tr.Crashes
		out.Reverts += tr.Reverts
		out.Vetoes += tr.Vetoes
		rt := Retune{
			Hour: driftHour, Phase: driftPhase, Seed: seed,
			Stale: res.Ext, Tuned: tr.BestPerf,
			Crashes: tr.Crashes, Reverts: tr.Reverts, Vetoes: tr.Vetoes,
			SkippedSteps: tr.SkippedSteps, Seconds: tr.Seconds,
		}
		out.Retunes = append(out.Retunes, rt)
		if tr.Reverts > 0 {
			emit(DynamicEvent{Kind: "revert", Hour: e.Hour(), Phase: e.PhaseName(),
				Detail: fmt.Sprintf("guardrail reverted %d time(s) during re-tune", tr.Reverts)})
		}
		emit(DynamicEvent{Kind: "retune", Hour: e.Hour(), Phase: e.PhaseName(),
			Detail: fmt.Sprintf("%.0f → %.0f tx/s in %d steps (seed %s)", rt.Stale.Throughput, rt.Tuned.Throughput, opts.ReTuneSteps, orDash(seed))})
		if opts.OnEpisode != nil {
			opts.OnEpisode(EpisodeStats{
				Episode: len(out.Retunes), Steps: opts.ReTuneSteps,
				Crashes: tr.Crashes, BestThroughput: tr.BestPerf.Throughput,
				VirtualSeconds: tr.Seconds,
				Phase:          driftPhase, Hour: driftHour,
				Drifts: out.Drifts, Retunes: len(out.Retunes),
				Reverts: out.Reverts, DriftEWMA: s.EWMA,
			})
		}
		if terr != nil {
			if errors.Is(terr, context.Canceled) || errors.Is(terr, context.DeadlineExceeded) {
				return finish(terr)
			}
			// A re-tune that failed outright left the instance on its
			// best-known configuration only if the final deploy worked;
			// verify with a measurement before deciding.
			if _, merr := e.Measure(); merr != nil {
				out.Unreverted++
				return finish(fmt.Errorf("core: re-tune failed and instance unhealthy: %w", terr))
			}
		}
		out.Final = tr.BestPerf
		rebase = true // fingerprint the re-tuned steady state next window
	}

	// The window must end on a healthy configuration: a final
	// measurement that crashes means a guardrail violation survived.
	fin, err := e.Measure()
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return finish(err)
		}
		if benignFault(err) {
			return finish(nil)
		}
		out.Unreverted++
		return finish(fmt.Errorf("core: dynamic window ended unhealthy: %w", err))
	}
	out.Final = fin.Ext
	return finish(nil)
}

func orDash(s string) string {
	if s == "" {
		return "in-place"
	}
	return s
}
