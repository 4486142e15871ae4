// Package expr is the experiment harness: one constructor per table and
// figure in the paper's evaluation (§5 and Appendix C), each returning the
// same rows/series the paper reports. `cdbtune exp <id>` (cmd/cdbtune)
// prints them; the Test*Micro tests run the paper's tables and figures at
// a micro budget.
//
// Absolute numbers come from the simulator substrate and are not expected
// to match the paper's Tencent testbed; EXPERIMENTS.md records, per
// experiment, the paper's shape next to the measured shape.
package expr
