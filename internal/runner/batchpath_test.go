package runner

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"emissary/internal/core"
	"emissary/internal/pipeline"
	"emissary/internal/sim"
	"emissary/internal/workload"
)

// batchMixJobs builds a sweep spanning several stream groups plus
// singletons: six same-stream xapian policy jobs, a pair on a longer
// measurement horizon, and one tomcat job — so one run exercises
// multi-member batches, a two-member batch, and the single-job path.
func batchMixJobs(t *testing.T) []sim.Options {
	t.Helper()
	jobs := warmPoolJobs(t)
	long1 := tinyOptions(t, "TPLRU", 7)
	long1.MeasureInstrs = 40_000
	long2 := tinyOptions(t, "SRRIP", 8)
	long2.MeasureInstrs = 40_000
	p, ok := workload.ProfileByName("tomcat")
	if !ok {
		t.Fatal("tomcat profile missing")
	}
	tom := sim.DefaultOptions(p, core.MustParsePolicy("GHRP"))
	tom.WarmupInstrs = 20_000
	tom.MeasureInstrs = 80_000
	tom.Seed = 9
	return append(jobs, long1, long2, tom)
}

// TestSimsBatchedMatchesNoBatch is the runner-level batching contract:
// the default batched sweep must be byte-identical to the same sweep
// with NoBatch set, at every worker count (go test -race covers this
// file, so the parallel batched path runs under the race detector).
func TestSimsBatchedMatchesNoBatch(t *testing.T) {
	jobs := batchMixJobs(t)
	ctx := context.Background()
	plain, err := RunSimsStats(ctx, jobs, SimsConfig{Workers: 1, NoBatch: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := RunSimsStats(ctx, jobs, SimsConfig{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(plain, got) {
			t.Errorf("workers=%d: batched outcomes differ from NoBatch", workers)
		}
	}
}

// TestSimsBatchedFailureMatchesNoBatch pins failure parity: a member
// whose cycle budget trips mid-batch yields the same *JobError-wrapped
// StallError, and the same surviving outcomes, as the non-batched
// sweep under Continue.
func TestSimsBatchedFailureMatchesNoBatch(t *testing.T) {
	jobs := batchMixJobs(t)
	jobs[2].MaxCycles = 1_000
	ctx := context.Background()
	plain, plainErr := RunSimsStats(ctx, jobs, SimsConfig{Workers: 1, NoBatch: true, Policy: Continue})
	if plainErr == nil {
		t.Fatal("budgeted job did not fail the NoBatch sweep")
	}
	for _, workers := range []int{1, 4} {
		got, gotErr := RunSimsStats(ctx, jobs, SimsConfig{Workers: workers, Policy: Continue})
		if gotErr == nil {
			t.Fatalf("workers=%d: budgeted job did not fail the batched sweep", workers)
		}
		var stall *pipeline.StallError
		if !errors.As(gotErr, &stall) {
			t.Errorf("workers=%d: batched error chain lost the StallError: %v", workers, gotErr)
		}
		if !reflect.DeepEqual(plain, got) {
			t.Errorf("workers=%d: batched outcomes differ from NoBatch after a failure", workers)
		}
		if !reflect.DeepEqual(plainErr, gotErr) {
			t.Errorf("workers=%d: batched error differs from NoBatch:\nbatched: %#v\nplain:   %#v", workers, gotErr, plainErr)
		}
	}
}

// TestSimsBatchFailedMemberDiscardsOwnSlot is the warm-pool × batch
// isolation contract: when one batch member fails, only its own slot
// is discarded from the worker's rack — its batch-mates' slots stay
// racked and their results remain byte-identical to cold — and the
// next sweep on the same pool rebuilds the hole transparently.
func TestSimsBatchFailedMemberDiscardsOwnSlot(t *testing.T) {
	healthy := warmPoolJobs(t) // one stream group: a single 6-member batch
	ctx := context.Background()
	cold, err := RunSimsStats(ctx, healthy, SimsConfig{Workers: 1, ColdStart: true})
	if err != nil {
		t.Fatal(err)
	}

	jobs := warmPoolJobs(t)
	jobs[2].MaxCycles = 1_000
	pool := NewBatchPool()
	got, gotErr := RunSimsStats(ctx, jobs, SimsConfig{Workers: 1, Policy: Continue, Batch: pool})
	if gotErr == nil {
		t.Fatal("budgeted member did not fail the sweep")
	}
	fails := Failures(gotErr)
	if len(fails) != 1 || fails[0].Job != 2 {
		t.Fatalf("expected exactly job 2 to fail, got %v", gotErr)
	}
	slots := pool.racks[0].slots
	for k := range jobs {
		if k == 2 {
			if slots[k] != nil {
				t.Error("failed member's slot was returned to the rack")
			}
			continue
		}
		if slots[k] == nil {
			t.Errorf("surviving member %d's slot was discarded", k)
		}
		if !reflect.DeepEqual(got[k], cold[k]) {
			t.Errorf("surviving member %d diverged from cold", k)
		}
	}
	if !reflect.DeepEqual(got[2], SimOutcome{}) {
		t.Error("failed member reported a non-zero outcome")
	}

	// The next sweep on the same pool rebuilds the discarded slot and
	// still matches cold.
	again, err := RunSimsStats(ctx, healthy, SimsConfig{Workers: 1, Batch: pool})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, again) {
		t.Error("post-failure sweep on the reused pool diverged from cold")
	}
	for k := range healthy {
		if pool.racks[0].slots[k] == nil {
			t.Errorf("slot %d not repopulated by the clean sweep", k)
		}
	}
}

// TestSimsBatchPoolReuse reuses one caller-owned BatchPool across
// consecutive sweeps (the allocation tests' steady-state pattern):
// every round stays byte-identical to cold and the racks stay warm.
func TestSimsBatchPoolReuse(t *testing.T) {
	jobs := warmPoolJobs(t)
	ctx := context.Background()
	cold, err := RunSimsStats(ctx, jobs, SimsConfig{Workers: 1, ColdStart: true})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewBatchPool()
	for round := 0; round < 3; round++ {
		got, err := RunSimsStats(ctx, jobs, SimsConfig{Workers: 1, Batch: pool})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !reflect.DeepEqual(cold, got) {
			t.Errorf("round %d: batched outcomes differ from ColdStart", round)
		}
		if pool.racks[0].exec == nil || pool.racks[0].slots[0] == nil {
			t.Fatalf("round %d: pool rack not populated", round)
		}
	}
}

// TestSimsBatchZeroAllocsPerJob extends the warm pool's allocs/job == 0
// contract to the batched path (DESIGN.md §15): with the batch pool's
// executors, member racks and grouping scratch primed on the full
// sweep, a single-worker batched sweep allocates nothing per job.
func TestSimsBatchZeroAllocsPerJob(t *testing.T) {
	cfg := SimsConfig{Workers: 1, WarmPool: make([]*sim.Warm, 1), Batch: NewBatchPool()}
	if got := steadyAllocsPerJob(t, allocSweepJobs(t), cfg); got != 0 {
		t.Errorf("batched sweep allocates %v per job in steady state, want 0", got)
	}
}

// TestSimsBatchedRetrySchedule pins retry parity: a fault injected into
// a batch member's first attempt retries on the single-job path with
// the same attempt numbering and backoff draws as the non-batched
// sweep — one member recovers on attempt 2, another exhausts its
// budget, and both outcomes and errors match NoBatch exactly.
func TestSimsBatchedRetrySchedule(t *testing.T) {
	jobs := warmPoolJobs(t)
	ctx := context.Background()
	var plainDraws, batchDraws []time.Duration
	mkCfg := func(noBatch bool, draws *[]time.Duration) SimsConfig {
		return SimsConfig{
			Workers: 1,
			NoBatch: noBatch,
			Policy:  Continue,
			Inject: func(_ context.Context, job, attempt int) error {
				if job == 3 && attempt == 1 {
					return fmt.Errorf("flaky fixture")
				}
				if job == 5 {
					return fmt.Errorf("hard fixture")
				}
				return nil
			},
			Retry: RetryPolicy{
				MaxAttempts: 2,
				Classify:    func(error) ErrorClass { return Transient },
				Sleep: func(_ context.Context, d time.Duration) error {
					*draws = append(*draws, d)
					return nil
				},
			},
		}
	}
	plain, plainErr := RunSimsStats(ctx, jobs, mkCfg(true, &plainDraws))
	got, gotErr := RunSimsStats(ctx, jobs, mkCfg(false, &batchDraws))
	if plainErr == nil || gotErr == nil {
		t.Fatalf("exhausted job did not fail (plain=%v batched=%v)", plainErr, gotErr)
	}
	if !reflect.DeepEqual(plain, got) {
		t.Error("batched outcomes differ from NoBatch under retry")
	}
	if !reflect.DeepEqual(plainErr, gotErr) {
		t.Errorf("batched error differs from NoBatch:\nbatched: %#v\nplain:   %#v", gotErr, plainErr)
	}
	if !reflect.DeepEqual(plainDraws, batchDraws) {
		t.Errorf("backoff schedules diverged: batched %v, plain %v", batchDraws, plainDraws)
	}
	fails := Failures(gotErr)
	if len(fails) != 1 || fails[0].Job != 5 || fails[0].Attempt != 2 {
		t.Fatalf("expected job 5 to fail on attempt 2, got %v", gotErr)
	}
}
