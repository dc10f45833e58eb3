package hotbench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestAddrsDeterministic(t *testing.T) {
	a, b := Addrs(1<<10), Addrs(1<<10)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("address stream diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
	span := uint64(Sets * Ways * 4)
	for i, v := range a {
		if v >= span {
			t.Fatalf("addr[%d] = %d outside span %d", i, v, span)
		}
	}
}

func TestMeasureAccessAndFill(t *testing.T) {
	for _, measure := range []func(string, int) (OpResult, error){MeasureAccess, MeasureFill} {
		r, err := measure("TPLRU", 2000)
		if err != nil {
			t.Fatal(err)
		}
		if r.NsPerOp <= 0 {
			t.Errorf("NsPerOp = %v, want > 0", r.NsPerOp)
		}
		if r.AllocsPerOp != 0 {
			t.Errorf("AllocsPerOp = %v, want 0", r.AllocsPerOp)
		}
		if r.Iterations != 2000 || r.Policy != "TPLRU" {
			t.Errorf("row mislabeled: %+v", r)
		}
	}
	if _, err := MeasureAccess("garbage!!", 10); err == nil {
		t.Error("MeasureAccess accepted a bad policy")
	}
}

func TestMeasureEndToEnd(t *testing.T) {
	r, err := MeasureEndToEnd(DefaultEndToEndConfig("xapian", "TPLRU", true), 10_000, 40_000, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.WallMS <= 0 || r.SimMIPS <= 0 || r.IPC <= 0 {
		t.Errorf("degenerate end-to-end row: %+v", r)
	}
	if !r.FDIP {
		t.Errorf("row not labeled with its FDIP mode: %+v", r)
	}
	if _, err := MeasureEndToEnd(DefaultEndToEndConfig("nope", "TPLRU", true), 1, 1, false); err == nil {
		t.Error("MeasureEndToEnd accepted an unknown benchmark")
	}
	if _, err := MeasureEndToEnd(DefaultEndToEndConfig("xapian", "garbage!!", true), 1, 1, false); err == nil {
		t.Error("MeasureEndToEnd accepted a bad policy")
	}
}

// TestMeasureEndToEndSkipFraction pins the schema-2 field: a no-FDIP
// run stalls on demand misses constantly, so the skipper must engage;
// a noSkip run must report exactly zero.
func TestMeasureEndToEndSkipFraction(t *testing.T) {
	r, err := MeasureEndToEnd(DefaultEndToEndConfig("xapian", "TPLRU", false), 10_000, 40_000, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.SkippedCycleFraction <= 0 {
		t.Errorf("skipped_cycle_fraction = %v on a no-FDIP run, want > 0", r.SkippedCycleFraction)
	}
	r, err = MeasureEndToEnd(DefaultEndToEndConfig("xapian", "TPLRU", false), 10_000, 40_000, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.SkippedCycleFraction != 0 {
		t.Errorf("skipped_cycle_fraction = %v with skipping disabled, want 0", r.SkippedCycleFraction)
	}
}

func TestReportRoundTrip(t *testing.T) {
	rep := &Report{
		Schema: SchemaVersion,
		Access: []OpResult{{Policy: "LRU", NsPerOp: 1.5, Iterations: 10}},
		EndToEnd: []EndToEndResult{
			{Benchmark: "xapian", Policy: "TPLRU", FDIP: false, SkippedCycleFraction: 0.75},
		},
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != SchemaVersion || len(back.Access) != 1 || back.Access[0].Policy != "LRU" {
		t.Errorf("round trip lost data: %+v", back)
	}
	if len(back.EndToEnd) != 1 || back.EndToEnd[0].SkippedCycleFraction != 0.75 {
		t.Errorf("round trip lost the skip fraction: %+v", back.EndToEnd)
	}
}

// TestEndToEndConfigs pins the measurement matrix shape: the full
// benchmark x policy x FDIP cross, plus dedicated stall-heavy rows
// (no prefetching, tight MSHR file) where skipping dominates.
func TestEndToEndConfigs(t *testing.T) {
	cfgs := EndToEndConfigs()
	want := len(EndToEndBenchmarks)*len(EndToEndPolicies)*2 + 4
	if len(cfgs) != want {
		t.Fatalf("EndToEndConfigs returned %d rows, want %d", len(cfgs), want)
	}
	stallHeavy := 0
	for _, c := range cfgs {
		if c.MaxMSHRs > 0 {
			stallHeavy++
			if c.FDIP || c.NLP {
				t.Errorf("stall-heavy row %+v still has a prefetcher enabled", c)
			}
		}
	}
	if stallHeavy != 4 {
		t.Errorf("got %d stall-heavy rows, want 4", stallHeavy)
	}
}

// TestMeasureEndToEndStallHeavy runs one stall-heavy row end to end:
// with misses serialized, well over half of all cycles must be
// skippable.
func TestMeasureEndToEndStallHeavy(t *testing.T) {
	cfg := EndToEndConfig{Benchmark: "tomcat", Policy: "LRU", MaxMSHRs: 4}
	r, err := MeasureEndToEnd(cfg, 10_000, 40_000, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.SkippedCycleFraction < 0.5 {
		t.Errorf("stall-heavy skipped_cycle_fraction = %v, want >= 0.5", r.SkippedCycleFraction)
	}
	if r.NLP || r.FDIP || r.MaxMSHRs != 4 {
		t.Errorf("row not labeled with its config: %+v", r)
	}
}

// TestVerifySchema pins the artifact gate: a current-schema report
// with a measured batched row passes; a stale schema, a missing
// batched sweep row, and an unmeasured one (allocs_per_job -1, the
// parallel-row marker) all fail with messages naming the problem.
func TestVerifySchema(t *testing.T) {
	write := func(t *testing.T, rep Report) string {
		t.Helper()
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "BENCH_hotpath.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := Report{
		Schema: SchemaVersion,
		Sweep: []SweepResult{
			{Mode: "cold", Workers: 1, AllocsPerJob: 900},
			{Mode: "warm", Workers: 1, AllocsPerJob: 0},
			{Mode: "batched", Workers: 1, AllocsPerJob: 0},
			{Mode: "batched", Workers: 8, AllocsPerJob: -1},
		},
	}
	if err := VerifySchema(write(t, good)); err != nil {
		t.Errorf("current artifact rejected: %v", err)
	}

	stale := good
	stale.Schema = SchemaVersion - 1
	if err := VerifySchema(write(t, stale)); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("stale schema not rejected usefully: %v", err)
	}

	unbatched := good
	unbatched.Sweep = good.Sweep[:2]
	if err := VerifySchema(write(t, unbatched)); err == nil || !strings.Contains(err.Error(), "batched") {
		t.Errorf("missing batched section not rejected usefully: %v", err)
	}

	unmeasured := good
	unmeasured.Sweep = []SweepResult{
		good.Sweep[0], good.Sweep[1],
		{Mode: "batched", Workers: 1, AllocsPerJob: -1},
	}
	if err := VerifySchema(write(t, unmeasured)); err == nil || !strings.Contains(err.Error(), "batched") {
		t.Errorf("unmeasured batched row not rejected usefully: %v", err)
	}
}
