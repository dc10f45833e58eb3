package runner

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"emissary/internal/core"
	"emissary/internal/sim"
	"emissary/internal/workload"
)

func warmPoolJobs(t *testing.T) []sim.Options {
	t.Helper()
	return []sim.Options{
		tinyOptions(t, "TPLRU", 1),
		tinyOptions(t, "P(8):S&E", 2),
		tinyOptions(t, "P(8):S&E&R(1/32)", 3),
		tinyOptions(t, "DRRIP", 4),
		tinyOptions(t, "SRRIP", 5),
		tinyOptions(t, "GHRP", 6),
	}
}

// coldOutcomes is the cold reference for a sweep: every job built
// from scratch by sim.RunContextStats, with no slot and no shared
// program.
func coldOutcomes(t *testing.T, jobs []sim.Options) []SimOutcome {
	t.Helper()
	out := make([]SimOutcome, len(jobs))
	for i, opt := range jobs {
		res, st, err := sim.RunContextStats(context.Background(), opt)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		out[i] = SimOutcome{Result: res, Stats: st}
	}
	return out
}

// TestSimsWarmPoolMatchesColdStart is the sweep-level byte-identity
// contract: the warm-pooled run must equal cold construction of the
// same jobs at every worker count, including under the race detector
// (go test -race covers this file).
func TestSimsWarmPoolMatchesColdStart(t *testing.T) {
	jobs := warmPoolJobs(t)
	cold := coldOutcomes(t, jobs)
	for _, workers := range []int{1, 2, 8} {
		warm, err := RunSimsStats(context.Background(), jobs, SimsConfig{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(cold, warm) {
			t.Errorf("workers=%d: warm-pooled outcomes differ from cold", workers)
		}
	}
}

// TestSimsWarmPoolCallerRack reuses one caller-owned rack across
// consecutive sweeps: results stay byte-identical to cold, and the
// rack holds populated slots afterwards (the second sweep ran warm).
func TestSimsWarmPoolCallerRack(t *testing.T) {
	jobs := warmPoolJobs(t)
	cold := coldOutcomes(t, jobs)
	rack := make([]*sim.Warm, Workers(1))
	for round := 0; round < 3; round++ {
		got, err := RunSimsStats(context.Background(), jobs, SimsConfig{Workers: 1, WarmPool: rack})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !reflect.DeepEqual(cold, got) {
			t.Errorf("round %d: rack-pooled outcomes differ from cold", round)
		}
		if rack[0] == nil {
			t.Fatalf("round %d: clean sweep did not return the slot to the rack", round)
		}
	}
}

// TestSimsFailedJobDiscardsSlot is the slot-hygiene contract (DESIGN.md
// §14): a job that fails mid-run does not return its possibly
// half-mutated slot to the worker's rack, the jobs around it still
// match cold, and the next clean sweep on the same rack racks a slot
// again. Inject observes the rack entry each job finds before it takes
// the slot.
func TestSimsFailedJobDiscardsSlot(t *testing.T) {
	healthy := warmPoolJobs(t)
	cold := coldOutcomes(t, healthy)

	const bad = 2
	jobs := warmPoolJobs(t)
	jobs[bad].MaxCycles = 1_000 // trips mid-warm-up
	rack := make([]*sim.Warm, 1)
	racked := make([]bool, len(jobs))
	got, gotErr := RunSimsStats(context.Background(), jobs, SimsConfig{
		Workers:  1,
		Policy:   Continue,
		WarmPool: rack,
		Inject: func(_ context.Context, job, _ int) error {
			racked[job] = rack[0] != nil
			return nil
		},
	})
	fails := Failures(gotErr)
	if len(fails) != 1 || fails[0].Job != bad {
		t.Fatalf("expected exactly job %d to fail, got %v", bad, gotErr)
	}
	if !racked[bad] {
		t.Error("the job before the failure did not rack its slot")
	}
	if racked[bad+1] {
		t.Error("the failed job's slot was returned to the rack")
	}
	for k := range jobs {
		if k == bad {
			if !reflect.DeepEqual(got[k], SimOutcome{}) {
				t.Error("failed job reported a non-zero outcome")
			}
			continue
		}
		if !reflect.DeepEqual(got[k], cold[k]) {
			t.Errorf("job %d diverged from cold", k)
		}
	}

	again, err := RunSimsStats(context.Background(), healthy, SimsConfig{Workers: 1, WarmPool: rack})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, again) {
		t.Error("post-failure sweep on the same rack diverged from cold")
	}
	if rack[0] == nil {
		t.Error("clean sweep did not rack a slot")
	}
}

// allocSweepJobs is the sweep the allocation tests difference: two
// footprints crossed with four treatment families, each job with its
// own seed, appended to itself. The second half replays the first, so
// by the time it runs every structure the sweep retains is at capacity.
func allocSweepJobs(t *testing.T) []sim.Options {
	t.Helper()
	var jobs []sim.Options
	for _, pol := range []string{"TPLRU", "P(8):S&E&R(1/32)", "SRRIP", "GHRP"} {
		for _, bench := range []string{"xapian", "tomcat"} {
			p, ok := workload.ProfileByName(bench)
			if !ok {
				t.Fatalf("%s profile missing", bench)
			}
			opt := sim.DefaultOptions(p, core.MustParsePolicy(pol))
			opt.WarmupInstrs = 2_000
			opt.MeasureInstrs = 20_000
			opt.Seed = uint64(len(jobs))
			jobs = append(jobs, opt)
		}
	}
	return append(jobs, jobs...)
}

// steadyAllocsPerJob is the heap allocation count per job of a
// single-worker sweep of jobs under cfg in its steady state, by window
// differencing. One pass over jobs primes cfg's caller-owned state;
// then the first half of jobs and all of jobs run under the runtime's
// exact malloc counters at GOMAXPROCS(1), and the difference divided
// by the extra jobs cancels every per-call cost. A rare one-off, such
// as a census-arena doubling or the runtime growing its timer heap, can
// land in one window; a true per-job cost shows in every pair. So the
// result is the pair with the least absolute count of five.
func steadyAllocsPerJob(t *testing.T, jobs []sim.Options, cfg SimsConfig) float64 {
	t.Helper()
	ctx := context.Background()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if _, err := RunSimsStats(ctx, jobs, cfg); err != nil {
		t.Fatal(err)
	}
	mallocs := func(js []sim.Options) int64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := RunSimsStats(ctx, js, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return int64(after.Mallocs - before.Mallocs)
	}
	half := len(jobs) / 2
	best := math.Inf(1)
	for pair := 0; pair < 5; pair++ {
		m0 := mallocs(jobs[:half])
		perJob := float64(mallocs(jobs)-m0) / float64(len(jobs)-half)
		if math.Abs(perJob) < math.Abs(best) {
			best = perJob
		}
	}
	return best
}

// TestSimsWarmPoolZeroAllocsPerJob is the warm pool's allocs/job == 0
// contract (DESIGN.md §14): once its slot is primed, a single-worker
// sweep allocates nothing per job.
func TestSimsWarmPoolZeroAllocsPerJob(t *testing.T) {
	cfg := SimsConfig{Workers: 1, WarmPool: make([]*sim.Warm, 1)}
	if got := steadyAllocsPerJob(t, allocSweepJobs(t), cfg); got != 0 {
		t.Errorf("warm sweep allocates %v per job in steady state, want 0", got)
	}
}

// TestSimsWarmPoolTooSmall pins the sizing check: a rack with fewer
// slots than workers is a caller bug reported up front, not a panic
// mid-sweep.
func TestSimsWarmPoolTooSmall(t *testing.T) {
	jobs := warmPoolJobs(t)
	_, err := RunSimsStats(context.Background(), jobs, SimsConfig{
		Workers:  4,
		WarmPool: make([]*sim.Warm, 2),
	})
	if err == nil {
		t.Fatal("undersized WarmPool accepted")
	}
	if !strings.Contains(err.Error(), "WarmPool") {
		t.Errorf("error does not name WarmPool: %v", err)
	}
}
