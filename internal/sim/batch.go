package sim

import (
	"context"

	"emissary/internal/workload"
)

// BatchKey, BatchKeyOf, Batch, NewBatch and BatchResult remain only
// because the benchmark harness (perfbench) still times a "batch pass"
// through them; a later change to the benchmark retires them together
// with its sim.batch_job_ms metrics. Every sweep job runs on the
// per-job warm-slot path, and Batch.Run is a loop over it.

// BatchKey identifies one architectural stream: Options values with
// the same workload profile (including its synthesis seed) and the
// same warm-up and measurement windows observe the identical
// committed-path block sequence, whatever their policy or core knobs.
type BatchKey struct {
	Bench   workload.Profile
	Warmup  uint64
	Measure uint64
}

// BatchKeyOf maps opt to its stream key; ok is false for trace replays
// and zero measurement windows.
func BatchKeyOf(opt Options) (BatchKey, bool) {
	if opt.TracePath != "" || opt.MeasureInstrs == 0 {
		return BatchKey{}, false
	}
	return BatchKey{Bench: opt.Benchmark, Warmup: opt.WarmupInstrs, Measure: opt.MeasureInstrs}, true
}

// BatchResult is one member's outcome; on error, Result and Stats are
// zero.
type BatchResult struct {
	Result Result
	Stats  RunStats
	Err    error
}

// Batch runs a group of jobs one after another, each on its own warm
// slot. It is not safe for concurrent use.
type Batch struct {
	results []BatchResult
}

// NewBatch returns an empty Batch.
func NewBatch() *Batch {
	return &Batch{}
}

// Run executes opts in order, member i on slots[i]; slots holds one
// entry per member, and nil entries are populated in place. The
// returned slice is valid until the next Run call.
func (b *Batch) Run(ctx context.Context, opts []Options, slots []*Warm) []BatchResult {
	b.results = b.results[:0]
	for i, opt := range opts {
		if slots[i] == nil {
			slots[i] = NewWarm()
		}
		res, st, err := slots[i].RunContextStats(ctx, opt)
		b.results = append(b.results, BatchResult{Result: res, Stats: st, Err: err})
	}
	return b.results
}
