package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"emissary/internal/cache"
	"emissary/internal/pipeline"
	"emissary/internal/runner"
	"emissary/internal/sim"
	"emissary/internal/stats"
	"emissary/internal/workload"
)

// Traced-run shape.
const (
	allocWindow  = 32                     // longest job window differenced for runner.allocs_per_job
	replayMinDur = 200 * time.Millisecond // the cache replay repeats until it has run this long
	replayMinRun = 3                      // and at least this many times
)

// layerStats accumulates what the traced jobs measured, layer by layer.
type layerStats struct {
	source            sourceStats
	policy            policyStats
	buildNs, runNs    int64
	cycles, skipped   uint64
	probes, accesses  uint64
	instrs, simCycles uint64
	l2iMiss, l2dMiss  float64 // MPKI × measured instructions
}

// tracedJob assembles one simulation from the layers' public
// constructors, as sim.RunContextStats does cold, with observers on the
// workload source and the L2 replacement policy and a span around
// every call into a layer. rec, when non-nil, records the job's
// committed-path stream.
func tracedJob(ctx context.Context, tr *tracer, parent int, opt sim.Options, ls *layerStats, rec *recording) (sim.Result, error) {
	run := tr.newRun()
	job := tr.begin("sim.traced_job", parent, run)
	defer tr.end(job)

	sp := tr.begin("workload.new_program", job, run)
	prog, err := workload.NewProgram(opt.Benchmark)
	ls.buildNs += int64(tr.end(sp))
	if err != nil {
		return sim.Result{}, err
	}
	src := &sourceObserver{inner: workload.NewEngine(prog), clock: tr, rec: rec}
	ccfg, pcfg := configsFor(opt)
	sp = tr.begin("cache.new_hierarchy", job, run)
	hier := cache.NewHierarchy(ccfg)
	pol := &policyObserver{inner: hier.L2.Policy(), clock: tr}
	hier.L2.Reset(pol)
	tr.end(sp)
	sp = tr.begin("pipeline.new_core", job, run)
	c, err := pipeline.NewCore(pcfg, src, hier, ccfg.Seed)
	tr.end(sp)
	if err != nil {
		return sim.Result{}, err
	}

	if err := runWindow(ctx, tr, job, run, c, opt.WarmupInstrs, ls); err != nil {
		return sim.Result{}, err
	}
	start := c.TakeSnapshot()
	if err := runWindow(ctx, tr, job, run, c, opt.MeasureInstrs, ls); err != nil {
		return sim.Result{}, err
	}
	end := c.TakeSnapshot()
	res := sim.Result{
		Result:               pipeline.Diff(start, end, hier.L2.PriorityCensus()),
		Benchmark:            opt.Benchmark.Name,
		Policy:               opt.Policy.String(),
		FootprintBytes:       prog.FootprintBytes(),
		BranchMispredictRate: c.BranchMispredictRate(),
	}

	ls.source.merge(src.stats)
	ls.policy.merge(pol.stats)
	ls.cycles += c.Cycle()
	ls.skipped += c.SkippedCycles()
	ls.probes += hier.L1I.InstrStats.Accesses()
	ls.accesses += hier.L1D.DataStats.Accesses()
	ls.instrs += res.Instructions
	ls.simCycles += res.Cycles
	ls.l2iMiss += res.L2IMPKI * float64(res.Instructions)
	ls.l2dMiss += res.L2DMPKI * float64(res.Instructions)
	return res, nil
}

// runWindow commits n more instructions in the same 1M-instruction
// chunks sim uses, one pipeline.run_committed span per chunk.
func runWindow(ctx context.Context, tr *tracer, parent, run int, c *pipeline.Core, n uint64, ls *layerStats) error {
	const chunk = 1 << 20
	target := c.Committed() + n
	for c.Committed() < target {
		if err := ctx.Err(); err != nil {
			return err
		}
		before := c.Committed()
		sp := tr.begin("pipeline.run_committed", parent, run)
		got, err := c.RunCommitted(min(target-before, chunk))
		ls.runNs += int64(tr.end(sp))
		if err != nil {
			return err
		}
		if got == before {
			return fmt.Errorf("workload stream ended %d instructions short", target-got)
		}
	}
	return nil
}

// tracedJobs lists the jobs a workload's traced run assembles by hand:
// the sweep's cross-check jobs, or a long workload's single job.
func tracedJobs(w *workloadDef, n int) []int {
	if w.sweep {
		return sweepCrossCheck
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// batchGroups splits the jobs into the lockstep batches the runner
// would form: jobs sharing a sim.BatchKey, in first-occurrence order,
// at most runner.DefaultMaxBatch to a batch.
func batchGroups(jobs []sim.Options) [][]int {
	var (
		keys   []sim.BatchKey
		groups [][]int
	)
	for i, opt := range jobs {
		key, _ := sim.BatchKeyOf(opt)
		g := -1
		for k := range keys {
			if keys[k] == key && len(groups[k]) < runner.DefaultMaxBatch {
				g = k
			}
		}
		if g < 0 {
			keys = append(keys, key)
			groups = append(groups, nil)
			g = len(groups) - 1
		}
		groups[g] = append(groups[g], i)
	}
	return groups
}

// allocsPerJob is the steady-state heap allocation count per job on
// the runner's warm path, by window differencing: one worker runs a
// window of jobs and its first half on a primed slot at GOMAXPROCS(1),
// and the difference in malloc counts, divided by the extra jobs,
// cancels every per-call cost. A single-job workload repeats its job
// to form the window. One-off allocations elsewhere in the process only
// ever add to a window's count, so each count is the least of two runs.
func allocsPerJob(ctx context.Context, jobs []sim.Options, primed *sim.Warm) (float64, error) {
	window := append([]sim.Options(nil), jobs...)
	for len(window) < 2 {
		window = append(window, window...)
	}
	window = window[:min(len(window), allocWindow)]
	half := len(window) / 2

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := runner.SimsConfig{Workers: 1, WarmPool: []*sim.Warm{primed}, NoBatch: true}
	mallocs := func(js []sim.Options) (uint64, error) {
		least := uint64(math.MaxUint64)
		for i := 0; i < 2; i++ {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if _, err := runner.RunSimsStats(ctx, js, cfg); err != nil {
				return 0, err
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.Mallocs-before.Mallocs)
		}
		return least, nil
	}
	m0, err := mallocs(window[:half])
	if err != nil {
		return 0, err
	}
	m1, err := mallocs(window)
	if err != nil {
		return 0, err
	}
	return (float64(m1) - float64(m0)) / float64(len(window)-half), nil
}

// runTraced is the per-layer run. It measures, in order: the cost of a
// clock read; a cold pass through sim.RunContextStats, which fixes the
// reference output; the traced assembly of tracedJobs, whose outputs
// must equal the reference; a replay of one recorded committed-path
// stream through a fresh hierarchy; then the warm-slot, lockstep-batch
// and runner paths over every job, and the runner's allocations per
// job. Spans go to spansPath.
func runTraced(ctx context.Context, w *workloadDef, jobs []sim.Options, seed uint64, out io.Writer, spansPath string) (*outcome, error) {
	o := newOutcome()
	tr := newTracer()
	root := tr.begin("perfbench."+w.name, 0, 0)
	hits0, misses0, _ := workload.SharedPrograms.Stats()

	sp := tr.begin("trace.calibrate", root, 0)
	clockNs := calibrateClock(tr)
	tr.end(sp)

	// Cold reference pass.
	ref := make([]sim.Result, len(jobs))
	want := make([][32]byte, len(jobs))
	coldMs := make([]float64, len(jobs))
	phase := tr.begin("sim.cold_pass", root, 0)
	for i, opt := range jobs {
		js := tr.begin("sim.run_context_stats", phase, tr.newRun())
		r, _, err := sim.RunContextStats(ctx, opt)
		coldMs[i] = float64(tr.end(js)) / 1e6
		o.checkJob(out, "cold pass", i, err, true)
		ref[i], want[i] = r, resultDigest(r)
	}
	tr.end(phase)
	if err := checkGolden(o, out, w, seed, ref); err != nil {
		return nil, err
	}

	// Traced assembly: per-layer counters and sampled call costs.
	var (
		ls               layerStats
		rec              recording
		recCfg           cache.Config
		tracedMs, baseMs float64
	)
	phase = tr.begin("sim.traced_pass", root, 0)
	for k, i := range tracedJobs(w, len(jobs)) {
		var r *recording
		if k == 0 {
			r = &rec
			recCfg, _ = configsFor(jobs[i])
		}
		start := tr.now()
		res, err := tracedJob(ctx, tr, phase, jobs[i], &ls, r)
		tracedMs += float64(tr.now()-start) / 1e6
		baseMs += coldMs[i]
		o.checkJob(out, "traced job", i, err, resultDigest(res) == want[i])
	}
	tr.end(phase)

	// Cache replay: the cost of one ProbeFetch or AccessData call.
	var replayNs []float64
	phase = tr.begin("cache.replay", root, 0)
	for spent := time.Duration(0); len(replayNs) < replayMinRun || spent < replayMinDur; {
		calls, d := rec.replay(recCfg)
		spent += d
		replayNs = append(replayNs, float64(d.Nanoseconds())/float64(max(calls, 1)))
	}
	tr.end(phase)

	// Warm slot, lockstep batch and runner paths.
	slot := sim.NewWarm()
	warmMs := make([]float64, len(jobs))
	phase = tr.begin("sim.warm_pass", root, 0)
	for i, opt := range jobs {
		js := tr.begin("sim.warm_job", phase, tr.newRun())
		r, _, err := slot.RunContextStats(ctx, opt)
		warmMs[i] = float64(tr.end(js)) / 1e6
		o.checkJob(out, "warm job", i, err, resultDigest(r) == want[i])
	}
	tr.end(phase)

	batchMs := make([]float64, len(jobs))
	b := sim.NewBatch()
	phase = tr.begin("sim.batch_pass", root, 0)
	for _, g := range batchGroups(jobs) {
		opts := make([]sim.Options, len(g))
		for k, i := range g {
			opts[k] = jobs[i]
		}
		js := tr.begin("sim.batch_run", phase, tr.newRun())
		outs := b.Run(ctx, opts, make([]*sim.Warm, len(g)))
		perJob := float64(tr.end(js)) / 1e6 / float64(len(g))
		for k, i := range g {
			batchMs[i] = perJob
			o.checkJob(out, "batch job", i, outs[k].Err, resultDigest(outs[k].Result) == want[i])
		}
	}
	tr.end(phase)

	phase = tr.begin("runner.run_sims_stats", root, 0)
	got, errs := runnerPass(ctx, jobs)
	runnerWall := tr.end(phase)
	failedJobs := 0
	for i := range jobs {
		if errs[i] != nil {
			failedJobs++
		}
		o.checkJob(out, "runner pass", i, errs[i], resultDigest(got[i]) == want[i])
	}

	phase = tr.begin("runner.alloc_windows", root, 0)
	allocs, err := allocsPerJob(ctx, jobs, slot)
	tr.end(phase)
	o.checkJob(out, "allocation windows", 0, err, true)
	tr.end(root)
	hits1, misses1, _ := workload.SharedPrograms.Stats()

	// Derived per-layer metrics.
	src := ls.source
	workloadSelf := src.nextBlock.selfSeconds(clockNs) + src.blocksInLine.selfSeconds(clockNs) +
		src.instrClass.selfSeconds(clockNs) + src.blockInfo.selfSeconds(clockNs)
	replayPerCall := stats.Median(replayNs)
	cacheSelf := replayPerCall * float64(ls.probes+ls.accesses) / 1e9
	runS := float64(ls.runNs) / 1e9
	pol := ls.policy

	o.add("workload.next_block.calls", float64(src.nextBlock.calls))
	o.add("workload.next_block.ns_per_call", src.nextBlock.nsPerCall(clockNs))
	o.add("workload.blocks_in_line.calls", float64(src.blocksInLine.calls))
	o.add("workload.blocks_in_line.ns_per_call", src.blocksInLine.nsPerCall(clockNs))
	o.add("workload.instr_class.calls", float64(src.instrClass.calls))
	o.add("workload.instr_class.ns_per_call", src.instrClass.nsPerCall(clockNs))
	o.add("workload.block_info.calls", float64(src.blockInfo.calls))
	o.add("workload.block_info.ns_per_call", src.blockInfo.nsPerCall(clockNs))
	o.add("workload.self_s", workloadSelf)
	o.add("workload.program_build_s", float64(ls.buildNs)/1e9)
	o.add("workload.program_cache.hits", float64(hits1-hits0))
	o.add("workload.program_cache.misses", float64(misses1-misses0))

	o.add("pipeline.run_s", runS)
	o.add("pipeline.residual_s", runS-workloadSelf-cacheSelf)
	o.add("pipeline.cycles", float64(ls.cycles))
	o.add("pipeline.skipped_cycle_fraction", float64(ls.skipped)/float64(max(ls.cycles, 1)))
	o.add("pipeline.ns_per_stepped_cycle", float64(ls.runNs)/float64(max(ls.cycles-ls.skipped, 1)))
	o.add("pipeline.ipc", float64(ls.instrs)/float64(max(ls.simCycles, 1)))

	o.add("cache.probe_fetch.calls", float64(ls.probes))
	o.add("cache.access_data.calls", float64(ls.accesses))
	o.add("cache.replay.ns_per_call", replayPerCall)
	o.add("cache.est_self_s", cacheSelf)
	o.add("cache.l2i_mpki", ls.l2iMiss/float64(max(ls.instrs, 1)))
	o.add("cache.l2d_mpki", ls.l2dMiss/float64(max(ls.instrs, 1)))

	o.add("policy.victim.calls", float64(pol.victim.calls))
	o.add("policy.victim.ns_per_call", pol.victim.nsPerCall(clockNs))
	o.add("policy.on_hit.calls", float64(pol.onHit.calls))
	o.add("policy.on_fill.calls", float64(pol.onFill.calls))
	o.add("policy.self_s", pol.victim.selfSeconds(clockNs)+pol.onHit.selfSeconds(clockNs)+pol.onFill.selfSeconds(clockNs))

	o.add("sim.cold_job_ms.p50", stats.Median(coldMs))
	o.add("sim.cold_job_ms.p90", stats.Quantile(coldMs, 0.9))
	o.add("sim.warm_job_ms.p50", stats.Median(warmMs))
	o.add("sim.warm_job_ms.p90", stats.Quantile(warmMs, 0.9))
	o.add("sim.batch_job_ms.p50", stats.Median(batchMs))
	o.add("sim.batch_job_ms.p90", stats.Quantile(batchMs, 0.9))
	o.add("runner.wall_s", runnerWall.Seconds())
	o.add("runner.allocs_per_job", allocs)
	o.add("runner.failed_jobs", float64(failedJobs))

	o.add("trace.overhead_pct", 100*(tracedMs-baseMs)/baseMs)
	o.add("trace.clock_ns", clockNs)

	fmt.Fprintf(out, "%-28s %6s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, t := range spanTotals(tr.spans) {
		fmt.Fprintf(out, "%-28s %6d %12.3f %12.3f\n", t.Name, t.Count, float64(t.TotalNs)/1e6, float64(t.Self)/1e6)
	}
	if err := saveSpans(spansPath, w.name, seed, tr.spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "spans: %s\n", spansPath)
	return o, nil
}
