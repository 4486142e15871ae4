// Package chaos injects faults into the measurement path of a tuning
// environment. A seeded Injector wraps any env.Database and, on a
// deterministic schedule, makes stress tests fail transiently, stall
// (charging extra virtual time), drop metrics (NaN/zeroed state vectors),
// fail knob deployments, crash in storms, or report the training server
// itself as lost. Every consumer of the measurement path — env retries,
// core's guardrails and worker respawn, the controller's revert logic —
// is tested against this package rather than against hand-written stubs,
// so the failure semantics stay consistent across layers.
//
// One Injector may wrap many databases (e.g. one per training episode):
// the schedule counters — run index, crash-storm window, worker kill —
// are global across every wrapped instance, which is what lets a test
// script "the 7th stress test of this training run crashes" regardless
// of which episode issues it. Probability draws consume one shared seeded
// rng, so a training run replays identically for a given seed; databases
// driven from several goroutines (concurrent serving sessions) interleave
// draws nondeterministically, like real outages do.
//
// Above the measurement path, FleetPlan schedules process-level faults —
// SIGKILLing a serve process, stalling its lease renewals past the TTL —
// against a multi-process fleet. The plan owns only the timing; the
// harness (internal/fleet tests, cmd/loadgen) supplies the arm that
// delivers each fault, so one schedule drives both in-process nodes and
// real child processes.
package chaos
