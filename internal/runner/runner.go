// Package runner schedules independent simulations across a pool of
// worker goroutines.
//
// The experiment matrix is embarrassingly parallel — every (benchmark,
// policy, seed) point is a self-contained simulation — so the pool
// preserves the sequential contract exactly: results come back in job
// order regardless of completion order, every job's options are fully
// determined before it is enqueued (so output is bit-identical at any
// worker count), and progress callbacks are serialized.
//
// Fault tolerance: a job that panics is recovered into a typed
// *JobError (index, cause, stack) instead of tearing down the process,
// and a FailurePolicy selects what happens next — FailFast cancels the
// sweep on the first failure (the historical behaviour), Continue
// drains every remaining job and reports all failures in job order.
// An optional Journal checkpoints completed simulations so an
// interrupted sweep resumes without recomputing them.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"emissary/internal/sim"
)

// FailurePolicy selects how a pool reacts to a failing job.
type FailurePolicy int

const (
	// FailFast cancels all outstanding jobs on the first failure and
	// returns only that error: correct for experiments whose artifacts
	// need the complete matrix.
	FailFast FailurePolicy = iota
	// Continue keeps draining the remaining jobs when one fails: the
	// surviving results come back (failed slots hold zero values) and
	// the error is an errors.Join of every *JobError in job order.
	// Surviving jobs are byte-identical to a run without the failures
	// — per-job options are fixed before scheduling, so a failed
	// neighbour cannot perturb them.
	Continue
)

// JobError is one job's failure: its index into the job list, the
// attempt that failed (1-based; only the final attempt's error is
// reported), the cause, and — when the job panicked — the recovered
// panic's stack. errors.Is/As see through it via Unwrap.
type JobError struct {
	Job     int
	Attempt int
	Cause   error
	Stack   []byte // non-nil only for recovered panics
}

func (e *JobError) Error() string {
	attempt := ""
	if e.Attempt > 1 {
		attempt = fmt.Sprintf(" (attempt %d)", e.Attempt)
	}
	if e.Stack != nil {
		return fmt.Sprintf("job %d%s: panic: %v", e.Job, attempt, e.Cause)
	}
	return fmt.Sprintf("job %d%s: %v", e.Job, attempt, e.Cause)
}

func (e *JobError) Unwrap() error { return e.Cause }

// Failures flattens the error tree a pool returns (single *JobError,
// errors.Join of them, or wrapped forms) into the job errors it
// carries, in the order joined — job order under Continue.
func Failures(err error) []*JobError {
	var out []*JobError
	var walk func(error)
	walk = func(err error) {
		if err == nil {
			return
		}
		// A direct assertion, not errors.As: As would traverse into a
		// joined error's children and surface only the first failure.
		if je, ok := err.(*JobError); ok {
			out = append(out, je)
			return
		}
		switch u := err.(type) {
		case interface{ Unwrap() []error }:
			for _, e := range u.Unwrap() {
				walk(e)
			}
		case interface{ Unwrap() error }:
			walk(u.Unwrap())
		}
	}
	walk(err)
	return out
}

// Workers normalizes a worker-count request: n < 1 selects
// runtime.GOMAXPROCS(0), i.e. one worker per available CPU.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// runJob executes fn(ctx, i, attempt, worker), converting an error
// return or a panic into a *JobError. The recover here is what keeps
// one corrupted simulation from destroying every completed result in
// the process.
func runJob[T any](ctx context.Context, i, attempt, worker int, fn func(ctx context.Context, i, attempt, worker int) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			cause, ok := r.(error)
			if !ok {
				cause = fmt.Errorf("%v", r)
			}
			err = &JobError{Job: i, Attempt: attempt, Cause: cause, Stack: debug.Stack()}
		}
	}()
	v, ferr := fn(ctx, i, attempt, worker)
	if ferr != nil {
		return v, &JobError{Job: i, Attempt: attempt, Cause: ferr}
	}
	return v, nil
}

// Do runs fn(ctx, i) for every i in [0, n) across `workers` goroutines
// (0 = GOMAXPROCS) under the FailFast policy and returns the results
// in index order. A nil ctx is treated as context.Background().
func Do[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	return DoPolicy(ctx, n, workers, FailFast, fn)
}

// DoPolicy is Do with an explicit failure policy. Under FailFast the
// first failure cancels the context passed to outstanding jobs and is
// returned (as a *JobError) after all workers drain; jobs that never
// started are skipped. Under Continue every schedulable job runs;
// failed slots hold zero values and the returned error joins each
// job's *JobError in job order. Context cancellation always stops
// scheduling and is reported alongside any job failures.
func DoPolicy[T any](ctx context.Context, n, workers int, policy FailurePolicy, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	return DoRetryPolicy(ctx, n, workers, policy, RetryPolicy{}, func(ctx context.Context, i, _ int) (T, error) {
		return fn(ctx, i)
	})
}

// DoRetryPolicy is DoPolicy with per-job retry: fn receives the
// 1-based attempt number, and a failure the retry policy classifies as
// Transient re-runs the job (after a deterministic backoff) up to
// retry.MaxAttempts times. Only the final attempt's *JobError is
// reported. The retry loop lives inside the job slot, so job order,
// the failure policies, and byte-identical output at any worker count
// are all preserved: retrying job i never reorders or perturbs job j.
func DoRetryPolicy[T any](ctx context.Context, n, workers int, policy FailurePolicy, retry RetryPolicy, fn func(ctx context.Context, i, attempt int) (T, error)) ([]T, error) {
	return doRetryPolicyWorker(ctx, n, workers, policy, retry, func(ctx context.Context, i, attempt, _ int) (T, error) {
		return fn(ctx, i, attempt)
	})
}

// doRetryPolicyWorker is DoRetryPolicy where fn also receives the
// stable index of the worker goroutine executing it (0-based; the
// sequential fast path is worker 0). Worker indices partition the job
// stream — no two concurrent jobs share one — which is what lets a
// caller keep per-worker mutable state (the sweep runner's warm
// simulation slots) without locks. The index is an execution-mechanics
// detail: results must never depend on it.
func doRetryPolicyWorker[T any](ctx context.Context, n, workers int, policy FailurePolicy, retry RetryPolicy, fn func(ctx context.Context, i, attempt, worker int) (T, error)) ([]T, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]T, n)
	if n == 0 {
		return out, ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Sequential fast path: byte-for-byte the pre-pool loop.
		jobErrs := make([]error, n)
		failed := false
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				if policy == FailFast {
					return nil, err
				}
				return out, errors.Join(append(compact(jobErrs[:i]), err)...)
			}
			v, err := attemptJob(ctx, i, 0, retry, fn)
			if err != nil {
				if policy == FailFast {
					return nil, err
				}
				jobErrs[i] = err
				failed = true
				continue
			}
			out[i] = v
		}
		if failed {
			return out, errors.Join(compact(jobErrs)...)
		}
		return out, nil
	}

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		errOnce  sync.Once
		firstErr error
		errMu    sync.Mutex
	)
	jobErrs := make([]error, n)
	work := func(worker int) {
		defer wg.Done()
		for {
			i := int(next.Add(1)) - 1
			if i >= n || ctx.Err() != nil {
				return
			}
			v, err := attemptJob(ctx, i, worker, retry, fn)
			if err != nil {
				if policy == FailFast {
					errOnce.Do(func() {
						firstErr = err
						cancel()
					})
					return
				}
				errMu.Lock()
				jobErrs[i] = err
				errMu.Unlock()
				continue
			}
			out[i] = v
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go work(w)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	all := compact(jobErrs)
	if err := parent.Err(); err != nil {
		if policy == FailFast {
			return nil, err
		}
		all = append(all, err)
	}
	if len(all) > 0 {
		return out, errors.Join(all...)
	}
	return out, nil
}

// compact drops nil slots, preserving job order, so the joined report
// is deterministic regardless of completion order.
func compact(errs []error) []error {
	out := make([]error, 0, len(errs))
	for _, err := range errs {
		if err != nil {
			out = append(out, err)
		}
	}
	return out
}

// Map runs fn over every element of items across `workers` goroutines,
// returning the mapped values in item order.
func Map[S, T any](ctx context.Context, items []S, workers int, fn func(ctx context.Context, i int, item S) (T, error)) ([]T, error) {
	return Do(ctx, len(items), workers, func(ctx context.Context, i int) (T, error) {
		return fn(ctx, i, items[i])
	})
}

// JournalFailureMode selects what a journal write failure does to a
// sweep whose simulations are otherwise healthy.
type JournalFailureMode int

const (
	// JournalFatal fails the job whose checkpoint could not be
	// written — the historical behaviour, and the right one when the
	// journal is the product (a resumable long sweep).
	JournalFatal JournalFailureMode = iota
	// JournalDegrade downgrades checkpointing to a loud warning: the
	// first write failure disables further journal writes (Warn is
	// invoked once), journal reads keep serving from memory, and the
	// sweep's results are unaffected. The right mode when results
	// matter more than resumability.
	JournalDegrade
)

// DefaultMaxBatch was the lockstep batch width; nothing in this module
// reads it.
//
// Deprecated: kept only for the benchmark harness; see
// internal/sim/batch.go.
const DefaultMaxBatch = 32

// SimsConfig tunes RunSims beyond the historical defaults.
type SimsConfig struct {
	// Workers is the pool size (0 = GOMAXPROCS, 1 = sequential).
	Workers int
	// Policy selects failure handling; the zero value is FailFast.
	Policy FailurePolicy
	// Journal, when non-nil, serves already-completed jobs from the
	// checkpoint and records each new completion as it finishes.
	Journal *Journal
	// Progress, when non-nil, is invoked under a mutex as each job
	// completes (completion order, never interleaved), including jobs
	// served from the journal.
	Progress func(sim.Result)
	// Retry re-runs transiently-failing jobs; the zero value runs each
	// job once. Unless Retry.Seed is set, backoff jitter derives from
	// each job's pre-scheduled sim.Options.Seed, so the attempt
	// schedule — and therefore the output — is byte-identical at any
	// worker count.
	Retry RetryPolicy
	// JobTimeout, when positive, bounds each attempt of each job with
	// its own context deadline. A tripped deadline classifies as
	// transient, so it composes with Retry.
	JobTimeout time.Duration
	// Inject, when non-nil, runs before each attempt's simulation with
	// the attempt's (deadline-bounded) context. A non-nil return or a
	// panic stands in for the simulation's failure — the fault-
	// injection hook the chaos suite drives.
	Inject func(ctx context.Context, job, attempt int) error
	// JournalFailure selects how a journal write failure is handled;
	// the zero value is JournalFatal.
	JournalFailure JournalFailureMode
	// WarmPool, when non-nil, supplies the per-worker slot rack itself,
	// so a caller can keep slots alive across RunSimsStats calls — the
	// allocation tests and perfbench do this to measure steady-state
	// sweeps with no construction noise. It must hold at least
	// Workers(cfg.Workers) entries (nil entries are populated on first
	// use, and a slot discarded after a failed job leaves nil behind);
	// the caller must not touch the rack while the sweep runs.
	WarmPool []*sim.Warm
	// NoBatch has no effect: every job runs on its worker's warm slot.
	//
	// Deprecated: kept only for the benchmark harness; see
	// internal/sim/batch.go.
	NoBatch bool
	// Warn receives non-fatal degradation notices (currently: the one
	// journal-disable notice under JournalDegrade). Nil discards them.
	Warn func(error)
}

// SimOutcome pairs a simulation's measured Result with its execution
// mechanics (sim.RunStats). Result feeds digests and journals; Stats
// reports how the simulator got there (cycle-skip engagement) and is
// what behavioral hypotheses about the machinery itself are asserted
// on.
type SimOutcome struct {
	Result sim.Result
	Stats  sim.RunStats
}

// RunSims executes every sim.Options job across the pool and returns
// the results in job order. Each job must be fully specified before
// the call: seeds live in the options, so the output is independent of
// scheduling, worker count, and which jobs a journal replayed.
func RunSims(ctx context.Context, jobs []sim.Options, cfg SimsConfig) ([]sim.Result, error) {
	outs, err := RunSimsStats(ctx, jobs, cfg)
	res := make([]sim.Result, len(outs))
	for i, o := range outs {
		res[i] = o.Result
	}
	return res, err
}

// RunSimsStats is RunSims returning each job's RunStats alongside its
// Result. Results obey the usual contract (job order, byte-identical
// at any worker count); Stats are mechanics and come with one caveat:
// a job served from a journal written before stats were recorded
// reports zero RunStats, and a journal hit recorded under a different
// NoCycleSkip setting reports the stats of whichever mechanism
// actually ran (the fingerprint deliberately ignores that flag).
//
// Each worker owns a sim.Warm slot that is reset between jobs instead
// of rebuilt — amortizing construction across the sweep without
// changing a single output byte (warm runs are byte-identical to cold
// by the sim package's contract). A slot is taken off its worker's
// rack just before the simulation runs and returned only when the run
// completes without error, so a job that panics or fails mid-run
// discards its possibly half-mutated slot and the next job on that
// worker starts from a fresh one.
func RunSimsStats(ctx context.Context, jobs []sim.Options, cfg SimsConfig) ([]SimOutcome, error) {
	var mu sync.Mutex
	report := func(r sim.Result) {
		if cfg.Progress != nil {
			mu.Lock()
			cfg.Progress(r)
			mu.Unlock()
		}
	}
	retry := cfg.Retry
	if retry.Seed == nil {
		// Backoff jitter from the job's own pre-scheduled seed: fixed
		// before anything runs, so the attempt schedule cannot depend
		// on worker count or completion order.
		retry.Seed = func(job int) uint64 { return jobs[job].Seed }
	}
	var (
		journalDown atomic.Bool
		warnOnce    sync.Once
	)
	// record checkpoints one finished job, applying the configured
	// journal-failure mode. A non-nil return is the job's failure.
	record := func(opt sim.Options, res sim.Result, st sim.RunStats) error {
		if cfg.Journal == nil || journalDown.Load() {
			return nil
		}
		if jerr := cfg.Journal.RecordStats(opt, res, st); jerr != nil {
			if cfg.JournalFailure == JournalFatal {
				return fmt.Errorf("journal: %w", jerr)
			}
			// Degrade: results keep flowing, checkpointing stops.
			// Lookup still serves records loaded at open, so resume
			// semantics for earlier runs are unaffected.
			journalDown.Store(true)
			warnOnce.Do(func() {
				if cfg.Warn != nil {
					cfg.Warn(fmt.Errorf("journal degraded, checkpointing disabled for the rest of the sweep: %w", jerr))
				}
			})
		}
		return nil
	}
	// One warm slot rack entry per worker. Worker indices partition
	// the job stream (doRetryPolicyWorker's contract), so each entry
	// is only ever touched by its own goroutine — no locks needed.
	warm := cfg.WarmPool
	if warm == nil {
		warm = make([]*sim.Warm, Workers(cfg.Workers))
	} else if need := Workers(cfg.Workers); len(warm) < need {
		return nil, fmt.Errorf("runner: WarmPool holds %d slots, need %d for the requested worker count", len(warm), need)
	}
	jobFn := func(ctx context.Context, i, attempt, worker int) (SimOutcome, error) {
		opt := jobs[i]
		if cfg.Journal != nil {
			if out, ok := cfg.Journal.LookupStats(opt); ok {
				report(out.Result)
				return out, nil
			}
		}
		runCtx := ctx
		if cfg.JobTimeout > 0 {
			var cancel context.CancelFunc
			runCtx, cancel = context.WithTimeout(ctx, cfg.JobTimeout)
			defer cancel()
		}
		if cfg.Inject != nil {
			// The injector sees the deadline-bounded context so a stall
			// fault is cut short by JobTimeout like a real hang.
			if err := cfg.Inject(runCtx, i, attempt); err != nil {
				return SimOutcome{}, deadline(ctx, runCtx, err)
			}
		}
		// Take this worker's slot off the rack; an empty rack entry (the
		// worker's first job, or its predecessor failed) gets a new one.
		slot := warm[worker]
		if slot == nil {
			slot = sim.NewWarm()
		}
		warm[worker] = nil
		res, st, err := slot.RunContextStats(runCtx, opt)
		out := SimOutcome{Result: res, Stats: st}
		if err != nil {
			return out, deadline(ctx, runCtx, err)
		}
		// Clean completion: the slot's state is sound, rack it for the
		// worker's next job. (Journal trouble below is I/O, not simulator
		// corruption, so it does not discard the slot.)
		warm[worker] = slot
		if jerr := record(opt, res, st); jerr != nil {
			return out, jerr
		}
		report(res)
		return out, nil
	}
	return doRetryPolicyWorker(ctx, len(jobs), cfg.Workers, cfg.Policy, retry, jobFn)
}

// deadline annotates err when the per-job deadline (not the sweep's
// own context) is what expired, so the report says which budget was
// blown.
func deadline(parent, runCtx context.Context, err error) error {
	if errors.Is(runCtx.Err(), context.DeadlineExceeded) && parent.Err() == nil {
		return fmt.Errorf("job deadline exceeded: %w", err)
	}
	return err
}

// Sims executes every sim.Options job across the pool and returns the
// results in job order, failing fast and without checkpointing; see
// RunSims for the configurable form.
func Sims(ctx context.Context, jobs []sim.Options, workers int, progress func(sim.Result)) ([]sim.Result, error) {
	return RunSims(ctx, jobs, SimsConfig{Workers: workers, Progress: progress})
}

// Replicated is the parallel counterpart of sim.RunReplicated: it runs
// the n derived-seed replicas of opt across the pool and aggregates.
// The replica set and the aggregate are identical to the sequential
// path at any worker count.
func Replicated(ctx context.Context, opt sim.Options, n, workers int) (sim.Replicated, error) {
	opts, err := sim.ReplicaOptions(opt, n)
	if err != nil {
		return sim.Replicated{}, err
	}
	runs, err := Sims(ctx, opts, workers, nil)
	if err != nil {
		return sim.Replicated{}, err
	}
	return sim.Aggregate(runs), nil
}
