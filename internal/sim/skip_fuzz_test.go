package sim_test

import (
	"context"
	"fmt"
	"testing"

	"emissary/internal/core"
	"emissary/internal/rng"
	"emissary/internal/sim"
	"emissary/internal/workload"
)

// TestSkipDifferentialFuzz drives randomly drawn configurations —
// workload, policy, FDIP on/off, front-end sizing, seeds — through
// paired skip-enabled and skip-disabled simulations of ~200k
// instructions each and asserts the full Result digest and final cycle
// count match exactly. The draw is seeded (determinism suite), so a
// failure reproduces by iteration index.
func TestSkipDifferentialFuzz(t *testing.T) {
	iters := 8
	if testing.Short() {
		iters = 3
	}
	benches := workload.ProfileNames()
	policies := []string{"TPLRU", "LRU", "SRRIP", "P(8):S&E&R(1/32)", "DRRIP", "GHRP"}
	mshrs := []int{2, 4, 8, 16}
	ftqs := []int{0, 8, 16} // 0 = Table 4 default

	r := rng.NewXoshiro256(0x5c1f)
	engaged := uint64(0)
	for i := 0; i < iters; i++ {
		bench, _ := workload.ProfileByName(benches[r.Uint64()%uint64(len(benches))])
		spec := core.MustParsePolicy(policies[r.Uint64()%uint64(len(policies))])
		opt := sim.DefaultOptions(bench, spec)
		opt.WarmupInstrs = 50_000
		opt.MeasureInstrs = 150_000
		opt.FDIP = r.Uint64()%2 == 0
		opt.MaxMSHRs = mshrs[r.Uint64()%uint64(len(mshrs))]
		opt.FTQEntries = ftqs[r.Uint64()%uint64(len(ftqs))]
		opt.TrackReuse = r.Uint64()%4 == 0
		opt.PriorityResetInterval = []uint64{0, 100_000}[r.Uint64()%2]
		opt.Seed = r.Uint64()

		name := fmt.Sprintf("iter %d: %s/%s fdip=%v mshrs=%d ftq=%d",
			i, bench.Name, spec.String(), opt.FDIP, opt.MaxMSHRs, opt.FTQEntries)

		resSkip, statsSkip, errSkip := sim.RunContextStats(context.Background(), opt)
		naive := opt
		naive.NoCycleSkip = true
		resNaive, statsNaive, errNaive := sim.RunContextStats(context.Background(), naive)

		if (errSkip == nil) != (errNaive == nil) {
			t.Fatalf("%s: error mismatch: %v (skip) vs %v (naive)", name, errSkip, errNaive)
		}
		if errSkip != nil {
			if errSkip.Error() != errNaive.Error() {
				t.Fatalf("%s: errors diverge: %v vs %v", name, errSkip, errNaive)
			}
			continue
		}
		if a, b := fmt.Sprintf("%+v", resSkip), fmt.Sprintf("%+v", resNaive); a != b {
			t.Fatalf("%s: result digests diverge:\nskip:  %s\nnaive: %s", name, a, b)
		}
		if statsSkip.Cycles != statsNaive.Cycles {
			t.Fatalf("%s: cycles %d (skip) != %d (naive)", name, statsSkip.Cycles, statsNaive.Cycles)
		}
		if statsNaive.SkippedCycles != 0 {
			t.Fatalf("%s: naive run reported %d skipped cycles", name, statsNaive.SkippedCycles)
		}
		engaged += statsSkip.SkippedCycles
	}
	if engaged == 0 {
		t.Error("cycle skipper never engaged across the whole fuzz run; differential coverage is vacuous")
	}
}

// noFDIPSkippedFraction runs a short built-in workload with FDIP off
// and returns the share of its cycles the skipper fast-forwarded.
// maxMSHRs 0 keeps the model default.
func noFDIPSkippedFraction(t *testing.T, benchName, policy string, nlp bool, maxMSHRs int) float64 {
	t.Helper()
	bench, _ := workload.ProfileByName(benchName)
	opt := sim.DefaultOptions(bench, core.MustParsePolicy(policy))
	opt.WarmupInstrs = 10_000
	opt.MeasureInstrs = 40_000
	opt.FDIP = false
	opt.NLP = nlp
	opt.MaxMSHRs = maxMSHRs
	opt.Seed = 1
	_, stats, err := sim.RunContextStats(context.Background(), opt)
	if err != nil {
		t.Fatalf("%s/%s: %v", benchName, policy, err)
	}
	return stats.SkippedFraction()
}

// TestSkipEngagesWithoutFDIP keeps the cycle skipper from silently
// rotting into never engaging on the built-in workloads: without FDIP
// the front end stalls on demand misses, so some cycles must be
// skipped.
func TestSkipEngagesWithoutFDIP(t *testing.T) {
	if f := noFDIPSkippedFraction(t, "xapian", "TPLRU", true, 0); f == 0 {
		t.Error("xapian/TPLRU without FDIP: no cycle was skipped")
	}
}

// TestSkipEngagesStallHeavy requires most cycles to be skipped where
// misses serialize: no prefetching at all and a 4-entry MSHR file.
func TestSkipEngagesStallHeavy(t *testing.T) {
	for _, bench := range []string{"tomcat", "verilator"} {
		for _, policy := range []string{"TPLRU", "LRU"} {
			if f := noFDIPSkippedFraction(t, bench, policy, false, 4); f < 0.5 {
				t.Errorf("%s/%s: skipped cycle fraction %.3f, want >= 0.50", bench, policy, f)
			}
		}
	}
}
