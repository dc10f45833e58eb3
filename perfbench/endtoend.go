package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"
	"syscall"
	"time"

	"emissary/internal/cache"
	"emissary/internal/pipeline"
	"emissary/internal/rng"
	"emissary/internal/runner"
	"emissary/internal/sim"
	"emissary/internal/workload"
)

// Run shape of the end-to-end measurement.
const (
	setupRuns  = 15 // timed cold constructions; setup_s is their median
	minRepeats = 5  // timed passes at least, after one untimed warm-up pass
	maxRepeats = 30 // timed passes at most, however short they are
)

//go:embed testdata/golden.json
var goldenJSON []byte

// goldenDigest returns the committed seed-1 pass digest of a workload.
func goldenDigest(name string) (string, error) {
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return "", fmt.Errorf("testdata/golden.json: %w", err)
	}
	d, ok := golden[name]
	if !ok {
		return "", fmt.Errorf("testdata/golden.json has no digest for %s", name)
	}
	return d, nil
}

// configsFor maps a job's options to the cache and pipeline
// configurations, as sim does for every field the workloads set.
func configsFor(opt sim.Options) (cache.Config, pipeline.Config) {
	ccfg := cache.DefaultConfig(opt.Policy)
	ccfg.Seed = rng.Mix2(opt.Seed, opt.Benchmark.Seed+1)
	if !opt.NLP {
		ccfg.L1I.NLP = false
		ccfg.L1D.NLP = false
		ccfg.L2.NLP = false
		ccfg.L3.NLP = false
	}
	pcfg := pipeline.DefaultConfig()
	pcfg.FDIP = opt.FDIP
	if opt.MaxMSHRs > 0 {
		pcfg.MaxMSHRs = opt.MaxMSHRs
	}
	return ccfg, pcfg
}

// construct builds, cold, everything a pass needs before its first
// cycle: the program of each distinct profile, and around it an
// engine, a memory hierarchy and a core.
func construct(jobs []sim.Options) error {
	var built []workload.Profile
	for _, opt := range jobs {
		if slices.Contains(built, opt.Benchmark) {
			continue
		}
		built = append(built, opt.Benchmark)
		prog, err := workload.NewProgram(opt.Benchmark)
		if err != nil {
			return err
		}
		ccfg, pcfg := configsFor(opt)
		if _, err := pipeline.NewCore(pcfg, workload.NewEngine(prog), cache.NewHierarchy(ccfg), ccfg.Seed); err != nil {
			return err
		}
	}
	return nil
}

// runnerPass runs the jobs through the sweep runner at maxWorkers with
// its default warm-pool and batched configuration. errs has one slot
// per job.
func runnerPass(ctx context.Context, jobs []sim.Options) (res []sim.Result, errs []error) {
	res = make([]sim.Result, len(jobs))
	errs = make([]error, len(jobs))
	outs, err := runner.RunSimsStats(ctx, jobs, runner.SimsConfig{Workers: maxWorkers, Policy: runner.Continue})
	for i := range outs {
		res[i] = outs[i].Result
	}
	failures := runner.Failures(err)
	for _, je := range failures {
		errs[je.Job] = je
	}
	if err != nil && len(failures) == 0 {
		for i := range errs {
			errs[i] = err
		}
	}
	return res, errs
}

// runPass runs every job once, the way the workload's users do.
func runPass(ctx context.Context, w *workloadDef, jobs []sim.Options) ([]sim.Result, []error) {
	if w.sweep {
		return runnerPass(ctx, jobs)
	}
	res := make([]sim.Result, len(jobs))
	errs := make([]error, len(jobs))
	for i, opt := range jobs {
		res[i], _, errs[i] = sim.RunContextStats(ctx, opt)
	}
	return res, errs
}

// checkGolden compares a seed-1 pass with its committed digest,
// counting the comparison as one operation.
func checkGolden(o *outcome, out io.Writer, w *workloadDef, seed uint64, rs []sim.Result) error {
	if seed != 1 {
		return nil
	}
	want, err := goldenDigest(w.name)
	if err != nil {
		return err
	}
	got := passDigest(rs)
	o.check(got == want)
	if got != want {
		fmt.Fprintf(out, "output mismatch: %s seed 1 digest %s, committed %s\n", w.name, got, want)
	}
	return nil
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// runEndToEnd measures a workload with tracing off: set-up time over
// setupRuns cold constructions, then one untimed warm-up pass that
// fixes the reference output, then timed passes until both minRepeats
// and the requested seconds are reached. Every timing is scaled to
// refSpeedIndex by host probes taken around it. Every pass is checked
// against the warm-up pass job by job, and the warm-up pass against the
// committed digest at seed 1.
func runEndToEnd(ctx context.Context, w *workloadDef, jobs []sim.Options, seed uint64, seconds float64, out io.Writer) (*outcome, error) {
	o := newOutcome()
	probe := newHostProbe()
	// speed probes the host and returns the scale for the interval since
	// the previous probe: the host's mean speed index over it relative to
	// refSpeedIndex.
	last := probe.speedIndex()
	speed := func() float64 {
		h := probe.speedIndex()
		o.add("host.speed_index", h)
		scale := (last + h) / 2 / refSpeedIndex
		last = h
		return scale
	}

	setup := make([]float64, setupRuns)
	for i := range setup {
		runtime.GC()
		start := time.Now()
		if err := construct(jobs); err != nil {
			return nil, err
		}
		setup[i] = time.Since(start).Seconds()
	}
	scale := speed()
	for _, s := range setup {
		o.add("setup_s", s*scale)
		o.add("unscaled.setup_s", s)
	}

	ref, errs := runPass(ctx, w, jobs)
	want := make([][32]byte, len(jobs))
	var instrs uint64
	for i, opt := range jobs {
		o.checkJob(out, "warm-up pass", i, errs[i], true)
		want[i] = resultDigest(ref[i])
		instrs += opt.WarmupInstrs + opt.MeasureInstrs
	}
	if err := checkGolden(o, out, w, seed, ref); err != nil {
		return nil, err
	}
	if w.sweep {
		for _, i := range sweepCrossCheck {
			r, _, err := sim.RunContextStats(ctx, jobs[i])
			o.checkJob(out, "cold cross-check", i, err, resultDigest(r) == want[i])
		}
	}

	speed() // the first timed pass is scaled from a fresh probe
	var measured time.Duration
	for rep := 0; rep < minRepeats || (measured.Seconds() < seconds && rep < maxRepeats); rep++ {
		runtime.GC()
		start := time.Now()
		got, errs := runPass(ctx, w, jobs)
		d := time.Since(start)
		scale := speed()
		measured += d
		for i := range jobs {
			o.checkJob(out, "timed pass", i, errs[i], resultDigest(got[i]) == want[i])
		}
		mips, jobsPerSec := float64(instrs)/d.Seconds()/1e6, float64(len(jobs))/d.Seconds()
		o.add("sim_mips", mips/scale)
		o.add("jobs_per_sec", jobsPerSec/scale)
		o.add("unscaled.sim_mips", mips)
		o.add("unscaled.jobs_per_sec", jobsPerSec)
	}
	rss, err := maxRSSMB()
	if err != nil {
		return nil, err
	}
	o.add("max_rss_mb", rss)
	return o, nil
}
