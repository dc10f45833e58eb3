package main

import (
	"fmt"

	"emissary/internal/core"
	"emissary/internal/sim"
	"emissary/internal/workload"
)

// maxWorkers caps the sweep's worker goroutines and the process's
// GOMAXPROCS: the benchmark is one closed-loop process sized for a
// two-vCPU host.
const maxWorkers = 2

// Window sizes, in committed instructions.
const (
	longWarmup   = 1_000_000
	longMeasure  = 4_000_000
	sweepWarmup  = 20_000
	sweepMeasure = 100_000
)

// Sweep shape: sweepBenchmarks × sweepPolicies × sweepSeeds jobs.
// Jobs are ordered benchmark-fastest, then policy, then seed, so any
// prefix of 16 jobs covers every (benchmark, policy) pair once.
var (
	sweepBenchmarks = []string{"xapian", "tomcat"}
	sweepPolicies   = []string{"TPLRU", "LRU", "BIP", "M:S&E&R(1/32)", "P(8):S&E&R(1/32)", "SRRIP", "DRRIP", "GHRP"}
)

const sweepSeeds = 6

// sweepCrossCheck lists the sweep jobs re-run cold through
// sim.RunContextStats and compared with the sweep's output: both
// benchmarks, the EMISSARY and M-treatment policies, two RRIP-family
// baselines, and three different seeds.
var sweepCrossCheck = []int{0, 9, 27, 86}

// workloadDef is one named benchmark workload.
type workloadDef struct {
	name string
	why  string
	// sweep selects how one pass runs the jobs: a single
	// runner.RunSimsStats call at maxWorkers with the runner's default
	// warm-pool and batched configuration, instead of one cold
	// sim.RunContextStats call per job.
	sweep bool
	jobs  func(seed uint64) ([]sim.Options, error)
}

// workloads is the registry BENCHMARK.json mirrors, in its order.
var workloads = []workloadDef{
	{
		name: "tomcat-emissary",
		why:  "paper headline: tomcat (2.57 MB code, 2.5x L2) under P(8):S&E&R(1/32) with FDIP+NLP; FDIP scan, L2 instruction misses and the EMISSARY Victim are all busy",
		jobs: longJob("tomcat", "P(8):S&E&R(1/32)", true, true, 0),
	},
	{
		name: "specjbb-data",
		why:  "data-heavy specjbb under DRRIP with FDIP: the cache layer serves L1D/L2D misses beside fetch, so an instruction-side gain that costs the data path shows here",
		jobs: longJob("specjbb", "DRRIP", true, true, 0),
	},
	{
		name: "verilator-noprefetch",
		why:  "verilator under TPLRU, FDIP and NLP off, 4 MSHRs: no FDIP scan, the cycle skipper engages on most cycles and the workload engine has its largest share",
		jobs: longJob("verilator", "TPLRU", false, false, 4),
	},
	{
		name:  "sweep-short",
		why:   "96 short jobs (20K+100K, caches mostly empty) through the runner at 2 workers: per-job construction, reset, batching and the program cache dominate",
		sweep: true,
		jobs:  sweepJobs,
	},
}

// workloadByName finds a registered workload.
func workloadByName(name string) (*workloadDef, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// profileFor returns the named built-in profile with its synthesis
// seed offset by seed-1, so seed 1 simulates the stock program and
// every other seed a different program of the same shape.
func profileFor(name string, seed uint64) (workload.Profile, error) {
	p, ok := workload.ProfileByName(name)
	if !ok {
		return workload.Profile{}, fmt.Errorf("unknown benchmark %q", name)
	}
	p.Seed += seed - 1
	return p, nil
}

// longJob returns the single-job generator of a long workload: one
// 1M-instruction warm-up plus 4M measured instructions.
func longJob(bench, policy string, fdip, nlp bool, maxMSHRs int) func(uint64) ([]sim.Options, error) {
	return func(seed uint64) ([]sim.Options, error) {
		prof, err := profileFor(bench, seed)
		if err != nil {
			return nil, err
		}
		spec, err := core.ParsePolicy(policy)
		if err != nil {
			return nil, err
		}
		opt := sim.DefaultOptions(prof, spec)
		opt.WarmupInstrs = longWarmup
		opt.MeasureInstrs = longMeasure
		opt.FDIP = fdip
		opt.NLP = nlp
		opt.MaxMSHRs = maxMSHRs
		opt.Seed = seed
		return []sim.Options{opt}, nil
	}
}

// sweepJobs returns the 96 sweep jobs. The six simulation seeds of
// benchmark seed S are 6(S-1)+1 … 6S, so different seeds never share a
// job.
func sweepJobs(seed uint64) ([]sim.Options, error) {
	var jobs []sim.Options
	for s := uint64(0); s < sweepSeeds; s++ {
		for _, pol := range sweepPolicies {
			spec, err := core.ParsePolicy(pol)
			if err != nil {
				return nil, err
			}
			for _, bench := range sweepBenchmarks {
				prof, err := profileFor(bench, seed)
				if err != nil {
					return nil, err
				}
				opt := sim.DefaultOptions(prof, spec)
				opt.WarmupInstrs = sweepWarmup
				opt.MeasureInstrs = sweepMeasure
				opt.Seed = sweepSeeds*(seed-1) + s + 1
				jobs = append(jobs, opt)
			}
		}
	}
	return jobs, nil
}

// metricDef is one reported metric. Better is "higher" or "lower";
// bound, for end-to-end metrics only, is the share of the parent's
// median by which the metric may worsen before a change counts as a
// regression.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off; the timings are scaled to the reference host speed (see
// hostProbe). setup_s and max_rss_mb get the widest bound allowed: a
// set-up of tens of milliseconds, and the sweep's peak RSS, which follows
// garbage-collection timing, vary most from run to run.
var endToEnd = []metricDef{
	{"sim_mips", "MIPS", "higher", 0.20},
	{"jobs_per_sec", "1/s", "higher", 0.20},
	{"setup_s", "s", "lower", 0.25},
	{"max_rss_mb", "MB", "lower", 0.25},
}

// unscaled are printed beside the end-to-end metrics but kept out of the
// result: the timings before host-speed scaling, and the host's speed
// index.
var unscaled = []metricDef{
	{"unscaled.sim_mips", "MIPS", "higher", 0},
	{"unscaled.jobs_per_sec", "1/s", "higher", 0},
	{"unscaled.setup_s", "s", "lower", 0},
	{"host.speed_index", "index", "higher", 0},
}

// perLayer are the traced run's metrics, grouped by the module whose
// host cost or work they measure.
var perLayer = []metricDef{
	{"workload.next_block.calls", "count", "lower", 0},
	{"workload.next_block.ns_per_call", "ns", "lower", 0},
	{"workload.blocks_in_line.calls", "count", "lower", 0},
	{"workload.blocks_in_line.ns_per_call", "ns", "lower", 0},
	{"workload.instr_class.calls", "count", "lower", 0},
	{"workload.instr_class.ns_per_call", "ns", "lower", 0},
	{"workload.block_info.calls", "count", "lower", 0},
	{"workload.block_info.ns_per_call", "ns", "lower", 0},
	{"workload.self_s", "s", "lower", 0},
	{"workload.program_build_s", "s", "lower", 0},
	{"workload.program_cache.hits", "count", "higher", 0},
	{"workload.program_cache.misses", "count", "lower", 0},

	{"pipeline.run_s", "s", "lower", 0},
	{"pipeline.residual_s", "s", "lower", 0},
	{"pipeline.cycles", "count", "lower", 0},
	{"pipeline.skipped_cycle_fraction", "fraction", "higher", 0},
	{"pipeline.ns_per_stepped_cycle", "ns", "lower", 0},
	{"pipeline.ipc", "instr/cycle", "higher", 0},

	{"cache.probe_fetch.calls", "count", "lower", 0},
	{"cache.access_data.calls", "count", "lower", 0},
	{"cache.replay.ns_per_call", "ns", "lower", 0},
	{"cache.est_self_s", "s", "lower", 0},
	{"cache.l2i_mpki", "MPKI", "lower", 0},
	{"cache.l2d_mpki", "MPKI", "lower", 0},

	{"policy.victim.calls", "count", "lower", 0},
	{"policy.victim.ns_per_call", "ns", "lower", 0},
	{"policy.on_hit.calls", "count", "lower", 0},
	{"policy.on_fill.calls", "count", "lower", 0},
	{"policy.self_s", "s", "lower", 0},

	{"sim.cold_job_ms.p50", "ms", "lower", 0},
	{"sim.cold_job_ms.p90", "ms", "lower", 0},
	{"sim.warm_job_ms.p50", "ms", "lower", 0},
	{"sim.warm_job_ms.p90", "ms", "lower", 0},
	{"sim.batch_job_ms.p50", "ms", "lower", 0},
	{"sim.batch_job_ms.p90", "ms", "lower", 0},
	{"runner.wall_s", "s", "lower", 0},
	{"runner.allocs_per_job", "count", "lower", 0},
	{"runner.failed_jobs", "count", "lower", 0},

	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.clock_ns", "ns", "lower", 0},
}
