// Package cdbtune is a from-scratch Go reproduction of "An End-to-End
// Automatic Cloud Database Tuning System Using Deep Reinforcement
// Learning" (CDBTune, SIGMOD 2019): a DDPG agent that maps 63 internal
// database metrics to full knob configurations, trained try-and-error
// against a simulated cloud-database fleet, with the OtterTune, BestConfig
// and expert-DBA baselines the paper compares against.
//
// The public entry point is the cdbtune command under cmd/: it trains,
// tunes and serves, and `cdbtune exp <id>` regenerates every table and
// figure of the paper's evaluation. The library packages are under
// internal/, and the Example tests in internal/core and
// internal/controller show their use — see README.md for the architecture
// overview and DESIGN.md for the paper-to-package mapping.
package cdbtune
