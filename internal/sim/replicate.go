package sim

import (
	"fmt"
	"math"

	"emissary/internal/rng"
)

// Replicated aggregates one configuration run under several seeds:
// both the workload synthesis randomness and the policies' stochastic
// components (R(r) draws, BRRIP) vary across replicas, so the spread
// estimates how much of a measured speedup is signal.
type Replicated struct {
	Runs []Result

	MeanIPC    float64
	StdIPC     float64
	MeanL2I    float64
	MeanCycles float64
}

// ReplicaOptions derives the n per-replica option sets RunReplicated
// executes: the simulation seed and (for synthetic workloads) the
// program-synthesis seed both vary per replica, derived from opt.Seed
// alone so the set is independent of execution order. n must be at
// least 1.
func ReplicaOptions(opt Options, n int) ([]Options, error) {
	if n < 1 {
		return nil, fmt.Errorf("sim: need at least one replica, got %d", n)
	}
	opts := make([]Options, n)
	for i := range opts {
		o := opt
		o.Seed = rng.Mix2(opt.Seed, uint64(i)+0x5eed)
		if o.TracePath == "" {
			// Re-synthesize the workload too: replicas measure the
			// profile, not one particular program instance.
			o.Benchmark.Seed = rng.Mix2(opt.Benchmark.Seed, uint64(i)+0xbe9c)
		}
		opts[i] = o
	}
	return opts, nil
}

// Aggregate summarizes finished replica runs.
func Aggregate(runs []Result) Replicated {
	out := Replicated{Runs: runs}
	var sum, sumSq, l2i, cyc float64
	for _, r := range runs {
		sum += r.IPC
		sumSq += r.IPC * r.IPC
		l2i += r.L2IMPKI
		cyc += float64(r.Cycles)
	}
	n := len(runs)
	if n == 0 {
		return out
	}
	fn := float64(n)
	out.MeanIPC = sum / fn
	out.MeanL2I = l2i / fn
	out.MeanCycles = cyc / fn
	if n > 1 {
		variance := (sumSq - sum*sum/fn) / (fn - 1)
		if variance > 0 {
			out.StdIPC = math.Sqrt(variance)
		}
	}
	return out
}

// RunReplicated executes opt under n different seeds (derived from
// opt.Seed) and aggregates. n must be at least 1. For a parallel
// version see runner.Replicated, which produces identical output.
func RunReplicated(opt Options, n int) (Replicated, error) {
	opts, err := ReplicaOptions(opt, n)
	if err != nil {
		return Replicated{}, err
	}
	runs := make([]Result, 0, n)
	for _, o := range opts {
		res, err := Run(o)
		if err != nil {
			return Replicated{}, err
		}
		runs = append(runs, res)
	}
	return Aggregate(runs), nil
}

// SpeedupVs returns the mean speedup of r over base (by mean cycles)
// and a conservative significance flag: true when the IPC gap exceeds
// the combined standard deviations.
func (r Replicated) SpeedupVs(base Replicated) (float64, bool) {
	if r.MeanCycles == 0 {
		return 0, false
	}
	speedup := base.MeanCycles/r.MeanCycles - 1
	gap := math.Abs(r.MeanIPC - base.MeanIPC)
	noise := r.StdIPC + base.StdIPC
	return speedup, gap > noise && noise > 0
}
