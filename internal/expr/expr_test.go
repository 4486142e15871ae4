package expr

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// micro is the smallest budget that still exercises every code path; the
// suite must stay unit-test fast on one core.
func micro() Budget {
	return Budget{
		Name:            "micro",
		Episodes:        3,
		StepsPerEpisode: 6,
		UpdatesPerStep:  1,
		ActorHidden:     []int{24, 24},
		CriticHidden:    []int{32, 24},
		RepoSamples:     10,
		OtterTuneSteps:  2,
		BestConfigSteps: 6,
		OnlineSteps:     2,
		Seed:            1,
	}
}

// renderAll concatenates the Render text of tables or figures.
func renderAll[R interface{ Render() string }](rs ...R) string {
	var b strings.Builder
	for _, r := range rs {
		b.WriteString(r.Render())
	}
	return b.String()
}

// pinRender checks a SHA-256 over the rendered text of what an experiment
// built at the micro budget. Each constant was recorded before the
// experiments' tuner runs moved into one table (tuners.go), and every
// experiment is deterministic in its budget, so a moved digest means a
// seed, a budget or a run order changed. A deliberate output change
// regenerates the constant from this test's -v log.
func pinRender(t *testing.T, want, text string) {
	t.Helper()
	sum := sha256.Sum256([]byte(text))
	got := hex.EncodeToString(sum[:])
	t.Logf("render digest %q", got)
	if got != want {
		t.Errorf("render digest %s, want %s: experiment output changed\n%s", got, want, text)
	}
}

func TestBudgets(t *testing.T) {
	q, f := Quick(), Full()
	if q.Episodes >= f.Episodes {
		t.Fatal("quick budget should train less than full")
	}
	if len(f.ActorHidden) != 4 || f.ActorHidden[0] != 128 {
		t.Fatal("full budget must use the Table 5 actor")
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{Title: "t", Header: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}}}
	out := tb.Render()
	if !strings.Contains(out, "== t ==") || !strings.Contains(out, "bb") {
		t.Fatalf("Render output:\n%s", out)
	}
}

func TestFigureRender(t *testing.T) {
	f := Figure{Title: "f", XLabel: "x", YLabel: "y", Series: []Series{{Name: "s", X: []float64{1}, Y: []float64{2}}}}
	out := f.Render()
	if !strings.Contains(out, "== f ==") || !strings.Contains(out, "-- s") {
		t.Fatalf("Render output:\n%s", out)
	}
}

func TestFig1C(t *testing.T) {
	tb := Fig1C()
	if len(tb.Rows) != 7 {
		t.Fatalf("Fig1C rows = %d, want 7 versions", len(tb.Rows))
	}
}

func TestFig1D(t *testing.T) {
	tb, err := Fig1D(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 || len(tb.Rows[0]) != 6 {
		t.Fatalf("Fig1D grid shape %dx%d", len(tb.Rows), len(tb.Rows[0]))
	}
	// The surface must be non-constant (Figure 1d's point).
	vals := map[string]bool{}
	for _, row := range tb.Rows {
		for _, c := range row[1:] {
			vals[c] = true
		}
	}
	if len(vals) < 5 {
		t.Fatalf("surface nearly constant: %d distinct cells", len(vals))
	}
}

func TestTable1(t *testing.T) {
	tb := Table1()
	if len(tb.Rows) != 7 { // 5 fixed + X1 + X2
		t.Fatalf("Table1 rows = %d", len(tb.Rows))
	}
}

func TestTiming(t *testing.T) {
	tb := Timing()
	if len(tb.Rows) != 6 {
		t.Fatalf("Timing rows = %d", len(tb.Rows))
	}
}

func TestFig1ABMicro(t *testing.T) {
	figs, err := Fig1AB(micro(), []int{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 {
		t.Fatalf("Fig1AB figures = %d", len(figs))
	}
	for _, f := range figs {
		if len(f.Series) != 4 {
			t.Fatalf("%s: series = %d, want 4", f.Title, len(f.Series))
		}
		for _, s := range f.Series {
			if len(s.X) != 2 {
				t.Fatalf("%s/%s: points = %d", f.Title, s.Name, len(s.X))
			}
		}
	}
	pinRender(t, "5fec94d6ce407cce056cec58fdb9ca3783009c95aecba464a19ec2273a149229", renderAll(figs...))
}

func TestTable2Micro(t *testing.T) {
	tb, err := Table2(micro())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("Table2 rows = %d, want 4 tools", len(tb.Rows))
	}
	// DBA must be by far the slowest (8.6 h); CDBTune the fastest protocol.
	if tb.Rows[0][0] != "CDBTune" || tb.Rows[3][0] != "DBA" {
		t.Fatalf("unexpected tool order: %v", tb.Rows)
	}
	pinRender(t, "2fd64423a72cf730973dd7b2067c663906bdcc4ea983ee480258996536a618b6", tb.Render())
}

func TestFig9AndTable3Micro(t *testing.T) {
	tables, err := Fig9(micro())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("Fig9 tables = %d", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) != 6 {
			t.Fatalf("%s: rows = %d, want 6 tuners", tb.Title, len(tb.Rows))
		}
	}
	t3, err := Table3(micro())
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Rows) != 3 || len(t3.Header) != 7 {
		t.Fatalf("Table3 shape %dx%d", len(t3.Rows), len(t3.Header))
	}
	pinRender(t, "5db2e1de2d4b8b73d4a3e54419f576bb730a3a428af28dd945ab7b81ab771cc0", renderAll(tables...)+t3.Render())
}

// TestFig9CacheKeysWholeBudget: two budgets that differ only in
// BestConfig's evaluation count must not share a cached Figure 9.
func TestFig9CacheKeysWholeBudget(t *testing.T) {
	few := micro()
	few.BestConfigSteps = 1
	a, err := Fig9(micro())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig9(few)
	if err != nil {
		t.Fatal(err)
	}
	if renderAll(a...) == renderAll(b...) {
		t.Fatal("a 1-evaluation BestConfig budget got the 6-evaluation budget's cached tables")
	}
}

func TestKnobSweepMicro(t *testing.T) {
	var text strings.Builder
	for _, order := range []KnobOrder{OrderDBA, OrderOtterTune, OrderRandom} {
		tput, lat, iters, err := KnobSweep(micro(), order, []int{5, 15})
		if err != nil {
			t.Fatal(err)
		}
		// Random order (Figure 8) only tracks CDBTune; Figures 6 and 7
		// add DBA and OtterTune.
		want := 3
		if order == OrderRandom {
			want = 1
		}
		if len(tput.Series) != want || len(lat.Series) != want {
			t.Fatalf("%s: %d tput, %d lat series, want %d", tput.Title, len(tput.Series), len(lat.Series), want)
		}
		if len(iters.Series[0].X) != 2 {
			t.Fatalf("%s: iterations series wrong length", iters.Title)
		}
		text.WriteString(renderAll(tput, lat, iters))
	}
	pinRender(t, "7da80e6e82437dc61a59041405b573869c55209bef0487293b0ee75dc10429d1", text.String())
}

func TestFig5Micro(t *testing.T) {
	figs, err := Fig5(micro(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 6 { // 3 workloads × (throughput, latency)
		t.Fatalf("Fig5 figures = %d", len(figs))
	}
	pinRender(t, "bf2bdebd409ebc9199d22687e64ecb91f4b863e3d9a62930c5d85d7dbaa8bc57", renderAll(figs...))
}

func TestFig10to12Micro(t *testing.T) {
	t10, err := Fig10(micro(), []float64{4})
	if err != nil {
		t.Fatal(err)
	}
	if len(t10) != 1 || len(t10[0].Rows) != 5 {
		t.Fatalf("Fig10 shape: %d tables, %d rows", len(t10), len(t10[0].Rows))
	}
	t11, err := Fig11(micro(), []float64{512})
	if err != nil {
		t.Fatal(err)
	}
	if len(t11) != 1 {
		t.Fatalf("Fig11 tables = %d", len(t11))
	}
	t12, err := Fig12(micro())
	if err != nil {
		t.Fatal(err)
	}
	if len(t12.Rows) != 5 {
		t.Fatalf("Fig12 rows = %d", len(t12.Rows))
	}
	pinRender(t, "a7edce0b5f313d10945b0475eb1eeefd14cd4b8271b77377c91b4984a7c88ad7", renderAll(t10...)+renderAll(t11...)+t12.Render())
}

func TestFig14Micro(t *testing.T) {
	tables, err := Fig14(micro())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("Fig14 tables = %d", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) != 4 {
			t.Fatalf("%s: rows = %d, want 4 reward functions", tb.Title, len(tb.Rows))
		}
	}
	pinRender(t, "4665f8ca2ab9a0d0026e0e13788af52bc123fd9e6ece6ade4add83145c66777d", renderAll(tables...))
}

func TestFig15Micro(t *testing.T) {
	fig, err := Fig15(micro(), []float64{0.3, 0.5, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 || len(fig.Series[0].X) != 3 {
		t.Fatalf("Fig15 shape wrong")
	}
	// The CT=0.5 point is the baseline: ratio exactly 1.
	for _, s := range fig.Series {
		if s.Y[1] != 1 {
			t.Fatalf("baseline ratio = %v, want 1", s.Y[1])
		}
	}
	pinRender(t, "22041e0bff3e37e5f801c72f54c4c330518e7d647e305567863ffd81e7a283a7", fig.Render())
}

func TestTable6Micro(t *testing.T) {
	tb, err := Table6(micro(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 8 {
		t.Fatalf("Table6 rows = %d, want 8 architectures", len(tb.Rows))
	}
	pinRender(t, "477fe7b843cf80d2bd76cdb0c842a3b82247d8b83c30adf8ce8d0261f5e80416", tb.Render())
}

func TestFig16to18Micro(t *testing.T) {
	tables, err := Fig16to18(micro())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("Fig16to18 tables = %d", len(tables))
	}
	pinRender(t, "50a140beab790b1b0a9fae5d8e6bd7ee3cbdf0554398bcf4d07cb198e20ad512", renderAll(tables...))
}

func TestQLearnDQNMicro(t *testing.T) {
	tb, err := QLearnDQN(micro(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("QLearnDQN rows = %d", len(tb.Rows))
	}
	if !strings.Contains(tb.Rows[3][1], "10^") {
		t.Fatalf("blow-up row missing: %v", tb.Rows[3])
	}
	pinRender(t, "d95fe37d006f13393a96485bd627bc65e08af3ceb9fae2a87adc68e62e5bebdd", tb.Render())
}

func TestAblationsMicro(t *testing.T) {
	rt, err := AblationReplay(micro())
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Rows) != 2 {
		t.Fatalf("AblationReplay rows = %d", len(rt.Rows))
	}
	at, err := AblationAction(micro())
	if err != nil {
		t.Fatal(err)
	}
	if len(at.Rows) != 2 {
		t.Fatalf("AblationAction rows = %d", len(at.Rows))
	}
	pinRender(t, "9349bbe142d4af6f709200be338baa233e15b1e40038fcb4bbe864faaf3a0a2b", rt.Render()+at.Render())
}

func TestFindingsMicro(t *testing.T) {
	tb, err := Findings(micro())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 { // defaults + 3 workloads
		t.Fatalf("Findings rows = %d", len(tb.Rows))
	}
	if len(tb.Header) != 7 {
		t.Fatalf("Findings header = %d", len(tb.Header))
	}
	pinRender(t, "2f586ba069a507b5c13d8456ce1d6312aa67d5b470926f89fa9781994e485fad", tb.Render())
}

func TestExtYCSBVariantsMicro(t *testing.T) {
	tb, err := ExtYCSBVariants(micro())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("variants rows = %d, want 5 (B-F)", len(tb.Rows))
	}
	pinRender(t, "0adfe27696f68748d69839fb05f7c20018058cee6d66d35013f096f7f3687d9c", tb.Render())
}

func TestCrossEngineMicro(t *testing.T) {
	tb, err := CrossEngine(micro(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("cross-engine table has %d rows, want 4 engine families", len(tb.Rows))
	}
	seen := map[string]bool{}
	for _, row := range tb.Rows {
		seen[row[0]] = true
		if row[3] != "6" {
			t.Fatalf("knob cap not applied: %v", row)
		}
	}
	for _, want := range []string{"cdb-mysql", "mongodb", "postgres", "lsm"} {
		if !seen[want] {
			t.Fatalf("engine %s missing from table: %v", want, seen)
		}
	}
	pinRender(t, "ad24f9431f3597c9e48acee8c5b30f1119cb82261bda81c5f00aaa32f7b7093a", tb.Render())
}
