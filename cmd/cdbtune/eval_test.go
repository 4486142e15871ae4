package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// TestEval: a small my.cnf evaluates against the default workload, the
// header names the file, the tuned row's columns line up with the
// defaults row's whatever the path's length, and the verb refuses to run
// without a configuration file.
func TestEval(t *testing.T) {
	const path = "testdata/small.cnf"
	out := captureStdout(t, func() error { return cmdEval([]string{"-config", path}) })
	lines := strings.Split(out, "\n")
	if len(lines) < 3 || !strings.Contains(lines[0], path) {
		t.Fatalf("eval output does not name %s on its header line:\n%s", path, out)
	}
	defaults, tuned := lines[1], lines[2]
	if !strings.HasPrefix(defaults, "  defaults:") || !strings.HasPrefix(tuned, "  tuned:") {
		t.Fatalf("eval rows are not labelled defaults / tuned:\n%s", out)
	}
	// Each number is right-aligned in its column, so aligned columns end
	// at the same offset: the unit that follows each one.
	for _, unit := range []string{" txn/sec", " ms (99th)"} {
		if d, u := strings.Index(defaults, unit), strings.Index(tuned, unit); d < 0 || d != u {
			t.Fatalf("%q column at offset %d on the defaults row, %d on the tuned row:\n%s", unit, d, u, out)
		}
	}
	if err := cmdEval(nil); err == nil {
		t.Fatal("eval without -config succeeded")
	}
}

// captureStdout runs f with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	ferr := f()
	os.Stdout = stdout
	w.Close()
	out := <-done
	r.Close()
	if ferr != nil {
		t.Fatal(ferr)
	}
	return out
}
