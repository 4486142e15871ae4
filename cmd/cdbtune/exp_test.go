package main

import (
	"bytes"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"cdbtune/internal/expr"
)

// TestExperimentTable: IDs are unique, every row is complete, and the set
// is exactly the 28 the former standalone experiment driver accepted, so
// no script written against it loses an ID.
func TestExperimentTable(t *testing.T) {
	want := []string{"table1", "timing", "fig1c", "fig1d", "fig1ab", "table2",
		"fig5", "fig6", "fig7", "fig8", "fig9", "table3", "fig10", "fig11",
		"fig12", "fig14", "fig15", "table6", "fig16to18", "crossengine", "qdqn",
		"ablation-replay", "ablation-action", "findings", "ycsb-variants",
		"telemetry", "serving", "timeline"}
	var got []string
	seen := map[string]bool{}
	for _, e := range experiments {
		if seen[e.id] {
			t.Errorf("experiment %q listed twice", e.id)
		}
		seen[e.id] = true
		if e.group == "" || e.desc == "" || e.run == nil {
			t.Errorf("experiment %q has an empty field", e.id)
		}
		got = append(got, e.id)
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("experiment IDs\n got %v\nwant %v", got, want)
	}
	all, err := selectExperiments([]string{"all"})
	if err != nil || len(all) != len(experiments) {
		t.Fatalf("all selects %d experiments (err %v), want %d", len(all), err, len(experiments))
	}
	if _, err := selectExperiments([]string{"table1", "fig16"}); err == nil {
		t.Fatal("an unknown ID was accepted")
	}
}

// TestDocsNameOnlyKnownExperiments: every `cdbtune exp …` command written
// in the user-facing docs names IDs the table has. Flags and their values,
// `all` and placeholders (<id>, …) are skipped; a command ends at a
// closing backtick or a shell comment.
func TestDocsNameOnlyKnownExperiments(t *testing.T) {
	cmd := regexp.MustCompile("cdbtune exp\\b([^`#\n]*)")
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md"} {
		text, err := os.ReadFile("../../" + doc)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, m := range cmd.FindAllStringSubmatch(string(text), -1) {
			n++
			fields := strings.Fields(m[1])
			for i := 0; i < len(fields); i++ {
				f := fields[i]
				switch {
				case f == "-budget" || f == "-format":
					i++ // the flag's value
				case strings.HasPrefix(f, "-") || f == "all" ||
					strings.ContainsAny(f, "<[|…") || strings.Contains(f, "..."):
				default:
					if _, err := selectExperiments([]string{f}); err != nil {
						t.Errorf("%s: %q names unknown experiment %q", doc, "cdbtune exp"+m[1], f)
					}
				}
			}
		}
		if n == 0 {
			t.Errorf("%s shows no cdbtune exp command", doc)
		}
	}
}

// TestExperimentsRender runs the four instant experiments in every format.
func TestExperimentsRender(t *testing.T) {
	runs, err := selectExperiments([]string{"table1", "timing", "fig1c", "fig1d"})
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"text", "csv", "markdown"} {
		var buf bytes.Buffer
		for _, e := range runs {
			if err := e.run(expr.Quick(), printer{w: &buf, format: format}); err != nil {
				t.Fatalf("%s: %v", e.id, err)
			}
		}
		if lines := strings.Count(buf.String(), "\n"); lines < 20 {
			t.Errorf("%s: %d lines of output:\n%s", format, lines, buf.String())
		}
	}
}
