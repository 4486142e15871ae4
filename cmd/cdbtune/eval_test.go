package main

import "testing"

// TestEval: a small my.cnf evaluates against the default workload, and
// the verb refuses to run without a configuration file.
func TestEval(t *testing.T) {
	if err := cmdEval([]string{"-config", "testdata/small.cnf"}); err != nil {
		t.Fatalf("eval testdata/small.cnf: %v", err)
	}
	if err := cmdEval(nil); err == nil {
		t.Fatal("eval without -config succeeded")
	}
}
