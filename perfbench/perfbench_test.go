package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"emissary/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from seed-1 passes of every workload")

// tiny shrinks a workload's jobs to short windows so the whole
// benchmark path runs in seconds.
func tiny(t *testing.T, w *workloadDef, seed uint64) []sim.Options {
	t.Helper()
	jobs, err := w.jobs(seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		jobs[i].WarmupInstrs = 2_000
		jobs[i].MeasureInstrs = 8_000
	}
	return jobs
}

// TestWorkloadsTinyWindows drives every workload through the untraced
// and the traced run at tiny windows: every operation must succeed and
// every registered metric must be reported.
func TestWorkloadsTinyWindows(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	ctx := context.Background()
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			jobs := tiny(t, w, 2)
			var out bytes.Buffer
			o, err := runEndToEnd(ctx, w, jobs, 2, 0, &out)
			if err != nil {
				t.Fatal(err)
			}
			checkOutcome(t, o, endToEnd, unscaled, &out)

			out.Reset()
			o, err = runTraced(ctx, w, jobs, 2, &out, filepath.Join(t.TempDir(), "spans.json"))
			if err != nil {
				t.Fatal(err)
			}
			checkOutcome(t, o, perLayer, nil, &out)
		})
	}
}

// checkOutcome writes o and checks the result line.
func checkOutcome(t *testing.T, o *outcome, defs, extras []metricDef, out *bytes.Buffer) {
	t.Helper()
	if err := o.write(out, defs, extras); err != nil {
		t.Fatal(err)
	}
	var res result
	if err := json.Unmarshal(lastLine(out.Bytes()), &res); err != nil {
		t.Fatalf("result line: %v\n%s", err, out)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(defs))
	}
}

// TestTracedMatchesRunContextStats pins the observers' transparency:
// the hand-assembled, observed simulation produces byte-identical
// output to sim.RunContextStats, on two configurations that differ in
// policy family, prefetching and MSHR count.
func TestTracedMatchesRunContextStats(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"tomcat-emissary", "verilator-noprefetch"} {
		w, _ := workloadByName(name)
		jobs, err := w.jobs(3)
		if err != nil {
			t.Fatal(err)
		}
		opt := jobs[0]
		opt.WarmupInstrs, opt.MeasureInstrs = 20_000, 60_000
		want, _, err := sim.RunContextStats(ctx, opt)
		if err != nil {
			t.Fatal(err)
		}
		var (
			ls  layerStats
			rec recording
		)
		got, err := tracedJob(ctx, newTracer(), 0, opt, &ls, &rec)
		if err != nil {
			t.Fatal(err)
		}
		if resultDigest(got) != resultDigest(want) {
			t.Errorf("%s: traced result differs\n got %+v\nwant %+v", name, got, want)
		}
		if ls.source.nextBlock.calls == 0 || ls.policy.onFill.calls == 0 || len(rec.blocks) == 0 {
			t.Errorf("%s: observers saw nothing: %+v", name, ls)
		}
	}
}

// TestSelfTimes pins the span self-time arithmetic: a span's self time
// is its duration less the union of its children's intervals, clipped
// to the span.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "a", Start: 90, End: 120}, // runs past root
		{ID: 5, Parent: 3, Name: "c", Start: 25, End: 35},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20, 30 - 10, 30, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", spans[i].ID, got[i], want[i])
		}
	}
	totals := spanTotals(spans)
	if len(totals) != 4 || totals[1].Name != "a" || totals[1].Count != 2 || totals[1].TotalNs != 50 || totals[1].Self != 50 {
		t.Errorf("span totals = %+v", totals)
	}
}

// TestQuartiles pins the quartile definition to Python's
// statistics.quantiles(xs, n=4), which judges the repeat spread.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{3, 7}, 2, 8}, // the exclusive method extrapolates
		{[]float64{4}, 4, 4},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestJudge pins the comparison verdicts.
func TestJudge(t *testing.T) {
	mips := metricDef{name: "sim_mips", better: "higher", bound: 0.08}
	pair := func(a, b []float64) [][2]float64 {
		var ps [][2]float64
		for i := range a {
			ps = append(ps, [2]float64{a[i], b[i]})
		}
		return ps
	}
	base := []float64{10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.02}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	wide := []float64{8, 12, 9, 11, 10, 8, 12, 9, 11, 10}
	for _, c := range []struct {
		name      string
		parent    []float64
		change    []float64
		wantVerdt string
	}{
		{"same", base, base, "unchanged"},
		{"faster", base, scaled(1.2), "improved"},
		{"slower", base, scaled(0.8), "regressed"},
		{"slightly slower", base, scaled(0.97), "unchanged"},
		{"noisy", wide, wide, "unresolved"},
	} {
		v := judge(mips, c.parent, c.change, pair(c.parent, c.change))
		if v.verdict != c.wantVerdt {
			t.Errorf("%s: verdict %s, want %s (%+v)", c.name, v.verdict, c.wantVerdt, v)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestRegistryNames checks every workload and metric name, unit and
// reason against the benchmark definition's syntax.
func TestRegistryNames(t *testing.T) {
	seen := make(map[string]bool)
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("bad or duplicate workload name %q", w.name)
		}
		seen[w.name] = true
		if w.why == "" || len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || seen[d.name] {
			t.Errorf("bad or duplicate metric name %q", d.name)
		}
		seen[d.name] = true
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: bad unit %q", d.name, d.unit)
		}
		if d.better != "higher" && d.better != "lower" {
			t.Errorf("metric %s: better is %q", d.name, d.better)
		}
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(perLayer))
	}
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json and the code's
// registry in step, in both directions and in order.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, registry %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, registry {%s %s}", i, b.Workloads[i], w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, registry %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		e := b.EndToEnd[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better || e.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, registry %+v", i, e, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, registry %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		e := b.PerLayer[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, registry %+v", i, e, d)
		}
	}
	if len(b.Paths) != 1 || b.Paths[0] != "perfbench" {
		t.Errorf("paths = %v, want [perfbench]", b.Paths)
	}
}

// TestGolden checks the committed seed-1 digests against fresh passes
// of every workload at full size; -update rewrites them.
func TestGolden(t *testing.T) {
	if testing.Short() && !*update {
		t.Skip("runs every workload at full size")
	}
	ctx := context.Background()
	golden := make(map[string]string)
	for i := range workloads {
		w := &workloads[i]
		jobs, err := w.jobs(1)
		if err != nil {
			t.Fatal(err)
		}
		rs, errs := runPass(ctx, w, jobs)
		for j, err := range errs {
			if err != nil {
				t.Fatalf("%s job %d: %v", w.name, j, err)
			}
		}
		golden[w.name] = passDigest(rs)
		if *update {
			continue
		}
		if want, err := goldenDigest(w.name); err != nil || want != golden[w.name] {
			t.Errorf("%s: seed-1 digest %s, committed %s (%v)", w.name, golden[w.name], want, err)
		}
	}
	if *update {
		data, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", "golden.json"), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
