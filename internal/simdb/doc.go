// Package simdb simulates the cloud database instances the paper tunes.
//
// We have no Tencent CDB fleet, so this package is the substitute substrate
// (see DESIGN.md §1 and §10). It is one instance shell plus N cost models.
// The shell (DB) is what every engine must do identically for a tuner, so
// it exists once: the knob store, run/restart counters, the seeded noise
// source, the 5-second sample loop, accumulation of the 63 internal
// metrics ("show status"), the two external metrics, crash return and
// write-stall banking. An engine family is a Model — a pure function
// (knobs, workload, hardware) → Rates, including its mapping onto the
// canonical metrics — and nothing else: the buffer-pool model here serves
// CDB, local MySQL, MongoDB and Postgres; simdb/lsm supplies the LSM one.
//
// Determinism contract: same seed and same calls ⇒ bit-identical Results,
// so the RNG draw order is observable behaviour. Models cannot draw (Inputs
// has no RNG); knob operations and crashed runs draw nothing. Each sample
// of RunWorkload draws one value per counter in metrics.Defs order, then
// one per gauge in metrics.Defs order, then throughput, then latency;
// after the last sample one stall draw follows only when StallFrac > 0.
// ShowStatus draws the gauge values of one snapshot. internal/env's golden
// test pins the resulting bits per engine.
//
// The buffer-pool model reproduces the qualitative structure the paper
// reports: saturating buffer-pool returns with a swap cliff, redo-log
// checkpoint pressure with a crash when the log group outgrows the disk
// (§5.2.3), inverted-U IO-thread and concurrency responses,
// flush-durability tradeoffs, and a 266-dimensional nonlinear minor-knob
// surface with pairwise interactions (Figure 1d).
//
// Models are stateless in the workload: every RunWorkload evaluates the
// profile it is handed, so a time-varying caller (env.Env with a
// workload.Timeline) drives load dynamics simply by passing a different
// effective workload per measurement window.
package simdb
