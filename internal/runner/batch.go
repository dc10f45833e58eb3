// Batched lockstep execution: RunSimsStats groups jobs that share an
// architectural stream (sim.BatchKey — same workload profile, seed,
// and horizon) and runs each group through a per-worker sim.Batch, so
// a sweep of R policies over one workload pays for block-stream
// generation once per group instead of once per job. Grouping is
// scheduling metadata only: results remain in job order and
// byte-identical to the sequential path at any worker count.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"emissary/internal/sim"
)

// DefaultMaxBatch caps how many members one lockstep batch carries. A
// batch holds every member's core and hierarchy live at once, so the
// cap bounds per-worker memory and keeps one failed batch's blast
// radius (members sharing a panic-corrupted executor round) small;
// larger groups simply split into consecutive batches on one stream
// each.
const DefaultMaxBatch = 32

// BatchPool carries the batched path's reusable execution state across
// RunSimsStats calls: per-worker lockstep executors with their member
// slot racks, plus the grouping plan's scratch. Like WarmPool, worker
// indices partition it — each rack is only touched by its own worker
// goroutine — and the caller must not use one BatchPool from two
// concurrent RunSimsStats calls. TestSimsBatchZeroAllocsPerJob owns one
// across sweep windows to measure steady-state batches with zero
// allocations.
type BatchPool struct {
	racks []*batchRack
	plan  batchPlan
}

// NewBatchPool returns an empty pool; sweeps populate it on first use.
func NewBatchPool() *BatchPool {
	return &BatchPool{}
}

// grow pre-sizes the rack table on the caller's goroutine, so workers
// only ever read the slice.
func (p *BatchPool) grow(workers int) {
	for len(p.racks) < workers {
		p.racks = append(p.racks, &batchRack{})
	}
}

// rack returns the given worker's rack; grow must have covered the
// index already (workers never mutate the table).
func (p *BatchPool) rack(worker int) *batchRack {
	return p.racks[worker]
}

// batchRack is one worker's reusable batch state: the lockstep
// executor, the member slot rack (nil entries are rebuilt by the
// executor; a failed member's slot is discarded back to nil), and the
// per-unit scratch for collecting runnable members.
type batchRack struct {
	exec  *sim.Batch
	slots []*sim.Warm
	idx   []int
	opts  []sim.Options
}

// planUnit is one schedulable unit: members[lo:hi] of the plan's
// member arena. A unit of one job runs on the plain per-job path; a
// larger unit runs as one lockstep batch.
type planUnit struct{ lo, hi int }

// batchPlan is the grouping scratch, reused across sweeps so planning
// allocates nothing in steady state.
type batchPlan struct {
	keys    map[sim.BatchKey]int
	counts  []int
	offs    []int
	groupOf []int
	members []int
	units   []planUnit
}

// resizeInts returns s with length n, reallocating only on growth.
func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// build groups jobs by stream key in first-occurrence order and chunks
// each group to maxBatch members. Unit order is deterministic (group
// first-occurrence, then chunk order) but is scheduling metadata only:
// every job's output is written to its own index.
func (p *batchPlan) build(jobs []sim.Options, maxBatch int) []planUnit {
	n := len(jobs)
	if p.keys == nil {
		p.keys = make(map[sim.BatchKey]int)
	} else {
		clear(p.keys)
	}
	p.groupOf = resizeInts(p.groupOf, n)
	p.counts = p.counts[:0]
	for i := range jobs {
		key, ok := sim.BatchKeyOf(jobs[i])
		if !ok {
			// Unbatchable (trace replay): a group of its own.
			p.groupOf[i] = len(p.counts)
			p.counts = append(p.counts, 1)
			continue
		}
		g, seen := p.keys[key]
		if !seen {
			g = len(p.counts)
			p.keys[key] = g
			p.counts = append(p.counts, 0)
		}
		p.groupOf[i] = g
		p.counts[g]++
	}

	p.offs = p.offs[:0]
	total := 0
	for _, c := range p.counts {
		p.offs = append(p.offs, total)
		total += c
	}
	p.members = resizeInts(p.members, total)
	for i := 0; i < n; i++ {
		g := p.groupOf[i]
		p.members[p.offs[g]] = i
		p.offs[g]++
	}

	// offs[g] now marks the end of group g's members.
	p.units = p.units[:0]
	for g, c := range p.counts {
		end := p.offs[g]
		for lo := end - c; lo < end; lo += maxBatch {
			hi := lo + maxBatch
			if hi > end {
				hi = end
			}
			p.units = append(p.units, planUnit{lo, hi})
		}
	}
	return p.units
}

// batchedSims is one RunSimsStats invocation's batched execution
// state, threading the shared hooks (progress, journal, retry, the
// per-job fallback fn) into unit execution.
type batchedSims struct {
	jobs   []sim.Options
	cfg    SimsConfig
	retry  RetryPolicy
	report func(sim.Result)
	record func(opt sim.Options, res sim.Result, st sim.RunStats) error
	jobFn  func(ctx context.Context, i, attempt, worker int) (SimOutcome, error)

	outs    []SimOutcome
	jobErrs []error
}

// run executes the sweep batched: plan on the caller goroutine, units
// across the pool, results and error reporting matching the per-job
// path's contract exactly (job order, FailFast first error, Continue
// joined job errors plus any context error).
func (b *batchedSims) run(ctx context.Context) ([]SimOutcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(b.jobs)
	b.outs = make([]SimOutcome, n)
	if n == 0 {
		return b.outs, ctx.Err()
	}
	b.jobErrs = make([]error, n)
	pool := b.cfg.Batch
	if pool == nil {
		pool = NewBatchPool()
	}
	maxBatch := b.cfg.MaxBatch
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	units := pool.plan.build(b.jobs, maxBatch)
	pool.grow(Workers(b.cfg.Workers))

	err := runUnits(ctx, len(units), b.cfg.Workers, b.cfg.Policy, func(ctx context.Context, u, worker int) error {
		unit := units[u]
		return b.runUnit(ctx, pool.plan.members[unit.lo:unit.hi], worker, pool)
	})
	if b.cfg.Policy == FailFast {
		if err != nil {
			return nil, err
		}
		return b.outs, nil
	}
	all := compact(b.jobErrs)
	if err != nil {
		all = append(all, err)
	}
	if len(all) > 0 {
		return b.outs, errors.Join(all...)
	}
	return b.outs, nil
}

// fail records a job's final error under Continue or surfaces it to
// cancel the sweep under FailFast.
func (b *batchedSims) fail(i int, err error) error {
	if b.cfg.Policy == FailFast {
		return err
	}
	b.jobErrs[i] = err
	return nil
}

// runUnit executes one schedulable unit on its worker. Single-job
// units take the plain per-job path (warm slot, full retry loop).
// Multi-member units run attempt 1 of every member in one lockstep
// batch; members that fail transiently are retried individually from
// attempt 2 on the worker's single-job slot, preserving the exact
// attempt schedule (attempt numbers, backoff draws) of the
// non-batched path.
func (b *batchedSims) runUnit(ctx context.Context, members []int, worker int, pool *BatchPool) error {
	if len(members) == 1 {
		i := members[0]
		v, err := attemptJob(ctx, i, worker, b.retry, b.jobFn)
		if err != nil {
			return b.fail(i, err)
		}
		b.outs[i] = v
		return nil
	}

	rack := pool.rack(worker)
	rack.idx = rack.idx[:0]
	rack.opts = rack.opts[:0]
	for _, i := range members {
		hit, err := b.preMember(ctx, i)
		if err != nil {
			if ferr := b.retryMember(ctx, i, worker, err); ferr != nil {
				if uerr := b.fail(i, ferr); uerr != nil {
					return uerr
				}
			}
			continue
		}
		if hit {
			continue
		}
		rack.idx = append(rack.idx, i)
		rack.opts = append(rack.opts, b.jobs[i])
	}
	if len(rack.idx) == 0 {
		return nil
	}

	if rack.exec == nil {
		rack.exec = sim.NewBatch()
	}
	for len(rack.slots) < len(rack.idx) {
		rack.slots = append(rack.slots, nil)
	}
	results := rack.exec.Run(ctx, rack.opts, rack.slots[:len(rack.idx)])
	for k, i := range rack.idx {
		br := results[k]
		if br.Err == nil {
			// Clean member: its slot stays racked for the next batch —
			// post-batch trouble (journal I/O, a panicking progress
			// hook) is not simulator corruption, exactly like the
			// sequential path.
			if jerr := b.postMember(i, br); jerr != nil {
				if ferr := b.retryMember(ctx, i, worker, jerr); ferr != nil {
					if uerr := b.fail(i, ferr); uerr != nil {
						return uerr
					}
				}
			}
			continue
		}
		// Failed member: its possibly half-mutated slot is discarded;
		// the executor rebuilds the nil entry next batch.
		rack.slots[k] = nil
		cause, stack := br.Err, []byte(nil)
		if p, ok := cause.(*sim.BatchPanic); ok {
			cause, stack = p.Cause, p.Stack
		}
		ferr := b.retryMember(ctx, i, worker, &JobError{Job: i, Attempt: 1, Cause: cause, Stack: stack})
		if ferr != nil {
			if uerr := b.fail(i, ferr); uerr != nil {
				return uerr
			}
		}
	}
	return nil
}

// preMember runs a member's pre-batch steps — the journal lookup —
// under runJob's panic conversion, so a panicking hook fails its own
// member instead of tearing down the sweep. hit reports the job was
// served from the journal (its outcome is recorded).
func (b *batchedSims) preMember(ctx context.Context, i int) (hit bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			cause, ok := r.(error)
			if !ok {
				cause = fmt.Errorf("%v", r)
			}
			err = &JobError{Job: i, Attempt: 1, Cause: cause, Stack: debug.Stack()}
		}
	}()
	if b.cfg.Journal != nil {
		if out, ok := b.cfg.Journal.LookupStats(b.jobs[i]); ok {
			b.report(out.Result)
			b.outs[i] = out
			return true, nil
		}
	}
	// No Inject call here: fault-injected sweeps take the sequential
	// path (see the dispatch in RunSimsStats), where injector ordering
	// semantics — one stall blocks one job — actually hold.
	return false, nil
}

// postMember completes a cleanly-simulated member — journal record,
// outcome, progress — under the same panic conversion as preMember.
func (b *batchedSims) postMember(i int, br sim.BatchResult) (err error) {
	defer func() {
		if r := recover(); r != nil {
			cause, ok := r.(error)
			if !ok {
				cause = fmt.Errorf("%v", r)
			}
			err = &JobError{Job: i, Attempt: 1, Cause: cause, Stack: debug.Stack()}
		}
	}()
	if jerr := b.record(b.jobs[i], br.Result, br.Stats); jerr != nil {
		return &JobError{Job: i, Attempt: 1, Cause: jerr}
	}
	b.outs[i] = SimOutcome{Result: br.Result, Stats: br.Stats}
	b.report(br.Result)
	return nil
}

// retryMember continues a member's retry loop after its batched
// attempt 1 failed, mirroring attemptJob's schedule exactly: classify,
// deterministic backoff, then individual attempts 2..MaxAttempts on
// the worker's single-job path. Returns nil if a retry succeeded (the
// outcome is recorded), else the final attempt's error.
func (b *batchedSims) retryMember(ctx context.Context, i, worker int, err error) error {
	max := b.retry.maxAttempts()
	for attempt := 1; ; attempt++ {
		if attempt >= max || ctx.Err() != nil {
			return err
		}
		if b.retry.classify()(err) != Transient {
			return err
		}
		d := b.retry.backoff()(b.retry.seed(i), i, attempt)
		if serr := b.retry.sleep()(ctx, d); serr != nil {
			return err // cancelled mid-backoff: report the job's failure
		}
		v, nerr := runJob(ctx, i, attempt+1, worker, b.jobFn)
		if nerr == nil {
			b.outs[i] = v
			return nil
		}
		err = nerr
	}
}

// runUnits schedules n units across the pool with stable worker
// indices (the same partitioning contract as doRetryPolicyWorker: no
// two concurrent units share a worker index, so per-worker racks need
// no locks). run returns a non-nil error only to trigger FailFast;
// under Continue the unit records its own job errors and returns nil.
func runUnits(ctx context.Context, n, workers int, policy FailurePolicy, run func(ctx context.Context, unit, worker int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if n == 0 {
		return ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for u := 0; u < n; u++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := run(ctx, u, 0); err != nil && policy == FailFast {
				return err
			}
		}
		return ctx.Err()
	}

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		errOnce  sync.Once
		firstErr error
	)
	work := func(worker int) {
		defer wg.Done()
		for {
			u := int(next.Add(1)) - 1
			if u >= n || ctx.Err() != nil {
				return
			}
			if err := run(ctx, u, worker); err != nil && policy == FailFast {
				errOnce.Do(func() {
					firstErr = err
					cancel()
				})
				return
			}
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go work(w)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return parent.Err()
}
