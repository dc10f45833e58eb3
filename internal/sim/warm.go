package sim

import (
	"context"
	"fmt"
	"os"

	"emissary/internal/cache"
	"emissary/internal/core"
	"emissary/internal/pipeline"
	"emissary/internal/rng"
	"emissary/internal/trace"
	"emissary/internal/workload"
)

// Warm is a reusable simulation-state slot: one hierarchy, one core,
// one workload engine, plus small derived-value caches, all reset in
// place between runs instead of rebuilt. A sweep worker that owns a
// slot runs job after job with zero per-job allocations on the steady
// path (the runner's TestSimsWarmPoolZeroAllocsPerJob pins this).
//
// The correctness contract is absolute: a warm run produces results
// byte-identical to the package-level RunContextStats with the same
// Options (pinned by TestWarmColdLockstep and TestWarmColdFuzz). When
// a run's geometry cannot be expressed by resetting the held state —
// different cache or pipeline sizing, or a trace replay — the slot
// transparently falls back to fresh construction and, where possible,
// adopts the new state for subsequent runs.
//
// A Warm is NOT safe for concurrent use; give each worker its own.
// After an error or panic escapes a run, the held state may be
// half-mutated — every component reset restores from any intermediate
// state, so reuse is still sound, but the sweep runner discards the
// slot instead (the runner's TestSimsFailedJobDiscardsSlot pins this).
type Warm struct {
	hier *cache.Hierarchy
	core *pipeline.Core
	eng  *workload.Engine

	// polNames caches Spec.String renderings. (Programs come from the
	// process-wide workload.SharedPrograms cache — content-addressed by
	// the full profile — so slots across workers share one synthesis.)
	polNames map[core.Spec]string

	// censusArena parcels out per-run PriorityCensus storage. Results
	// retain their census slices, so exhausted arenas are abandoned to
	// their holders and replaced, never rewound.
	censusArena []int
	censusOff   int
}

// NewWarm returns an empty slot; the first run populates it.
func NewWarm() *Warm {
	return &Warm{
		polNames: make(map[core.Spec]string),
	}
}

// RunContextStats is the package-level RunContextStats executed
// against the slot's reusable state. A nil receiver always runs cold,
// so (*Warm)(nil) is the plain un-pooled path.
func (w *Warm) RunContextStats(ctx context.Context, opt Options) (Result, RunStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opt.MeasureInstrs == 0 {
		return Result{}, RunStats{}, fmt.Errorf("sim: MeasureInstrs must be positive")
	}
	if w == nil || opt.TracePath != "" {
		return runCold(ctx, opt)
	}

	prog, err := workload.SharedPrograms.Get(opt.Benchmark)
	if err != nil {
		return Result{}, RunStats{}, err
	}
	if w.eng == nil {
		w.eng = workload.NewEngine(prog)
	} else {
		w.eng.Reset(prog)
	}

	spec, ccfg, pcfg := deriveConfigs(opt)
	if w.hier == nil || !w.hier.Reset(ccfg) {
		w.hier = cache.NewHierarchy(ccfg)
	}
	if w.core == nil || !w.core.Reset(pcfg, w.eng, w.hier, ccfg.Seed) {
		c, err := pipeline.NewCore(pcfg, w.eng, w.hier, ccfg.Seed)
		if err != nil {
			return Result{}, RunStats{}, err
		}
		w.core = c
	}

	polName, ok := w.polNames[spec]
	if !ok {
		polName = spec.String()
		w.polNames[spec] = polName
	}
	return finishRun(ctx, w.core, opt, w.hier, opt.Benchmark.Name, polName, prog.FootprintBytes(), w)
}

// runCold is the un-pooled construction path: build everything fresh,
// exactly as the pre-warm-pool simulator did.
func runCold(ctx context.Context, opt Options) (Result, RunStats, error) {
	var (
		source    trace.Source
		footprint int
		benchName string
	)
	if opt.TracePath != "" {
		f, err := os.Open(opt.TracePath)
		if err != nil {
			return Result{}, RunStats{}, fmt.Errorf("sim: %w", err)
		}
		defer f.Close()
		replay, err := trace.NewReplay(f)
		if err != nil {
			return Result{}, RunStats{}, err
		}
		source = replay
		footprint = replay.FootprintBytes()
		benchName = opt.TracePath
	} else {
		prog, err := workload.NewProgram(opt.Benchmark)
		if err != nil {
			return Result{}, RunStats{}, err
		}
		source = workload.NewEngine(prog)
		footprint = prog.FootprintBytes()
		benchName = opt.Benchmark.Name
	}

	spec, ccfg, pcfg := deriveConfigs(opt)
	hier := cache.NewHierarchy(ccfg)
	c, err := pipeline.NewCore(pcfg, source, hier, ccfg.Seed)
	if err != nil {
		return Result{}, RunStats{}, err
	}
	return finishRun(ctx, c, opt, hier, benchName, spec.String(), footprint, nil)
}

// deriveConfigs maps Options to the cache and pipeline configurations,
// shared verbatim by the cold and warm paths so they cannot diverge.
func deriveConfigs(opt Options) (core.Spec, cache.Config, pipeline.Config) {
	spec := opt.Policy
	if opt.TrueLRU {
		spec.TrueLRU = true
	}
	ccfg := cache.DefaultConfig(spec)
	ccfg.L1TrueLRU = opt.TrueLRU
	ccfg.IdealL2I = opt.IdealL2I
	ccfg.Seed = rng.Mix2(opt.Seed, opt.Benchmark.Seed+1)
	if !opt.NLP {
		ccfg.L1I.NLP = false
		ccfg.L1D.NLP = false
		ccfg.L2.NLP = false
		ccfg.L3.NLP = false
	}

	pcfg := pipeline.DefaultConfig()
	pcfg.FDIP = opt.FDIP
	pcfg.TrackReuse = opt.TrackReuse
	pcfg.PriorityResetInterval = opt.PriorityResetInterval
	if opt.FTQEntries > 0 {
		pcfg.FTQEntries = opt.FTQEntries
		pcfg.FTQInstrCap = opt.FTQEntries * 8
	}
	if opt.MaxMSHRs > 0 {
		pcfg.MaxMSHRs = opt.MaxMSHRs
	}
	pcfg.MRCEntries = opt.MRCEntries
	pcfg.MaxCycles = opt.MaxCycles
	pcfg.NoCycleSkip = opt.NoCycleSkip
	return spec, ccfg, pcfg
}

// finishRun executes the warm-up and measurement windows on an
// assembled core and packages the Result. w, when non-nil, supplies
// arena storage for the priority census.
func finishRun(ctx context.Context, c *pipeline.Core, opt Options, hier *cache.Hierarchy, benchName, polName string, footprint int, w *Warm) (Result, RunStats, error) {
	if err := runWindow(ctx, c, opt, "warm-up", opt.WarmupInstrs); err != nil {
		return Result{}, RunStats{}, err
	}
	start := c.TakeSnapshot()
	if err := runWindow(ctx, c, opt, "measurement", opt.MeasureInstrs); err != nil {
		return Result{}, RunStats{}, err
	}
	end := c.TakeSnapshot()

	var census []int
	if w != nil {
		census = hier.L2.FillPriorityCensus(w.censusBuf(hier.L2.Ways() + 1))
	} else {
		census = hier.L2.PriorityCensus()
	}
	res := pipeline.Diff(start, end, census)
	return Result{
		Result:               res,
		Benchmark:            benchName,
		Policy:               polName,
		FootprintBytes:       footprint,
		BranchMispredictRate: c.BranchMispredictRate(),
	}, RunStats{Cycles: c.Cycle(), SkippedCycles: c.SkippedCycles()}, nil
}

// censusBuf carves an n-element capacity-capped slice out of the
// arena, replacing the arena when exhausted (old arenas stay alive
// exactly as long as the Results that retain pieces of them). The
// full-slice expression caps the window so FillPriorityCensus cannot
// touch a neighbouring run's census.
func (w *Warm) censusBuf(n int) []int {
	if w.censusOff+n > len(w.censusArena) {
		// The floor is generous (512 KB, several thousand jobs' worth)
		// and each replacement doubles, so arena allocation is a
		// vanishing rarity rather than a periodic blip inside an
		// otherwise allocation-free sweep — the runner's allocation
		// tests and perfbench's runner.allocs_per_job rely on that.
		size := 2 * len(w.censusArena)
		if size < 1<<16 {
			size = 1 << 16
		}
		for size < n {
			size *= 2
		}
		w.censusArena = make([]int, size)
		w.censusOff = 0
	}
	buf := w.censusArena[w.censusOff : w.censusOff+n : w.censusOff+n]
	w.censusOff += n
	return buf
}
