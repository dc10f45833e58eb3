// Command perfbench is the repository's benchmark: it measures how fast
// the EMISSARY simulator runs, end to end and layer by layer, on four
// named workloads, and checks that every output it measured is correct.
// BENCHMARK.json at the repository root names the workloads and metrics
// and fixes each end-to-end metric's regression bound; the registry in
// registry.go mirrors it, and a test keeps the two in step.
//
// Run it from the repository root through the wrapper, which builds the
// binary from source under .bench_build/:
//
//	bash perfbench/run.sh -workload tomcat-emissary -seed 1 -seconds 20 -trace 0
//	bash perfbench/run.sh -workload all -seed 2 >> change.jsonl
//	bash perfbench/run.sh -compare parent.jsonl change.jsonl
//
// One run measures one workload in its own process. The seed sets every
// job's sim.Options.Seed and, for seeds other than 1, offsets each
// workload profile's synthesis seed by seed-1, so each seed simulates a
// different program of the same shape. The load is closed-loop: one
// process, at most two worker goroutines, and each job starts when the
// previous one on its worker ends.
//
// # Workloads
//
//   - tomcat-emissary: tomcat (2.57 MB of code, 2.5x the L2) under the
//     paper's headline policy P(8):S&E&R(1/32), FDIP and next-line
//     prefetching on, 1M warm-up plus 4M measured instructions through
//     sim.RunContextStats. The FDIP scan, L2 instruction misses and the
//     EMISSARY Victim are all busy.
//   - specjbb-data: specjbb under DRRIP with FDIP, 1M+4M. The cache layer
//     serves heavy data traffic (L1D ~100 MPKI, L2D ~57 MPKI) beside
//     instruction fetch under a different policy family, so an
//     instruction-side gain that costs the data path shows here.
//   - verilator-noprefetch: verilator under TPLRU with FDIP and NLP off
//     and 4 MSHRs, 1M+4M. No FDIP scan runs and the cycle skipper engages
//     on most cycles, so the workload engine has its largest share; a
//     prefetchScan gain must read "no change" here.
//   - sweep-short: 96 jobs, {xapian, tomcat} × {TPLRU, LRU, BIP,
//     M:S&E&R(1/32), P(8):S&E&R(1/32), SRRIP, DRRIP, GHRP} × 6 seeds, each
//     20K warm-up plus 100K measured instructions, so the caches are
//     mostly empty when measurement starts. They go through
//     runner.RunSimsStats at 2 workers with the default warm-pool and
//     batched configuration. Per-job construction, reset, batching and
//     the program cache dominate; the long workloads must not move when
//     only this path changes.
//
// # End-to-end run (-trace 0)
//
// A run times setup_s, the median of 15 cold constructions (NewProgram
// for each distinct profile, NewHierarchy, NewCore), then runs one
// untimed warm-up pass and at least 5 timed passes, continuing until
// -seconds have been measured. sim_mips (simulated instructions per host
// second) and jobs_per_sec are medians over the passes; max_rss_mb is the
// peak resident set from getrusage, about 14 MB of which is the host
// probe's. Each timing is scaled to a reference host speed by a probe of
// two frozen kernels taken around it (see hostProbe), because co-tenant
// load on a shared host moves raw timings by tens of percent for minutes
// at a time; the unscaled values and the speed index are printed too.
// Every pass is compared job by job with the warm-up pass, the warm-up
// pass with the committed seed-1 digest in testdata/golden.json, and
// four sweep jobs with cold sim.RunContextStats. Each mismatch or job
// error is a failed operation and makes the run exit non-zero.
//
// # Traced run (-trace 1 or -trace FILE)
//
// A separate run assembles the simulation from the layers' public calls
// (NewProgram, NewEngine, NewHierarchy, NewCore, RunCommitted windows,
// TakeSnapshot and Diff), wraps the trace.Source and the L2 policy in
// observers that count every call and time one in 64, and records spans
// in memory, written at the end to FILE or to
// .bench_build/spans/WORKLOAD-seedS.json. The layer metrics and the
// end-to-end metric each should move:
//
//	workload.*  next_block, blocks_in_line, instr_class, block_info calls
//	            and ns/call; self_s; program_build_s; program_cache hits
//	            and misses. sim_mips on verilator-noprefetch most;
//	            setup_s when work moves into program build.
//	pipeline.*  run_s; residual_s (run - workload.self - cache.est_self);
//	            cycles; skipped_cycle_fraction; ns_per_stepped_cycle; ipc.
//	            sim_mips on tomcat-emissary and specjbb-data; skipper
//	            changes on verilator-noprefetch.
//	cache.*     probe_fetch and access_data calls in situ;
//	            replay.ns_per_call from a replay of the recorded
//	            committed path through a fresh hierarchy; est_self_s;
//	            l2i_mpki, l2d_mpki. sim_mips on specjbb-data most.
//	policy.*    victim calls and ns/call; on_hit and on_fill calls;
//	            self_s. sim_mips on tomcat-emissary.
//	sim.*       cold, warm and batch job ms (p50, p90) through
//	runner.*    sim.RunContextStats, sim.Warm and sim.Batch; runner wall_s,
//	            allocs_per_job (window-differenced), failed_jobs.
//	            jobs_per_sec on sweep-short only.
//	trace.*     overhead_pct of the traced jobs over their cold runs;
//	            clock_ns, the calibrated cost of a clock read.
//
// The traced outputs must equal the cold reference, so tracing never
// changes what is simulated.
//
// # Comparing two commits
//
// -workload all runs every workload, each in its own process, and prints
// one JSON record per workload. Collect ten or more seeds for the parent
// and the change, alternating which runs first, then -compare PARENT
// CHANGE reports, per workload and end-to-end metric, both medians and
// quartiles, the share of seed-paired runs the change wins, and a
// verdict against the metric's bound: improved, unchanged, regressed or
// unresolved.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"emissary/internal/atomicfile"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var (
		name    = fs.String("workload", "", "workload to run: "+strings.Join(names, ", ")+", or all")
		seed    = fs.Uint64("seed", 1, "input seed")
		seconds = fs.Float64("seconds", 20, "measure at least this many seconds (end-to-end run)")
		traceTo = fs.String("trace", "0", "0: end-to-end run; 1: traced per-layer run, spans to .bench_build/spans; FILE: traced run, spans to FILE")
		compare = fs.Bool("compare", false, "compare two record files from -workload all: -compare PARENT CHANGE")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare takes two record files")
			return 2
		}
		if err := compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxWorkers))

	var err error
	if *name == "all" {
		err = runAll(stdout, stderr, *seed, *seconds, *traceTo)
	} else if w, ok := workloadByName(*name); ok {
		err = runOne(stdout, w, *seed, *seconds, *traceTo)
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s, or all)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// runOne runs one workload in this process and prints its metrics,
// ending with the result line.
func runOne(stdout io.Writer, w *workloadDef, seed uint64, seconds float64, traceTo string) error {
	ctx := context.Background()
	fmt.Fprintf(stdout, "workload %s seed %d\n", w.name, seed)
	jobs, err := w.jobs(seed)
	if err != nil {
		return err
	}
	var (
		o            *outcome
		defs, extras []metricDef
	)
	if traceTo == "0" {
		o, err = runEndToEnd(ctx, w, jobs, seed, seconds, stdout)
		defs, extras = endToEnd, unscaled
	} else {
		path := traceTo
		if path == "1" {
			path = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", w.name, seed))
		}
		o, err = runTraced(ctx, w, jobs, seed, stdout, path)
		defs = perLayer
	}
	if err != nil {
		return err
	}
	if err := o.write(stdout, defs, extras); err != nil {
		return err
	}
	if o.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", w.name, o.failed, o.attempted)
	}
	return nil
}

// saveSpans writes the traced run's spans to path.
func saveSpans(path, workload string, seed uint64, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return atomicfile.WriteTo(path, func(w io.Writer) error {
		return writeSpans(w, workload, seed, spans)
	})
}

// record is one workload's run as -workload all prints it and -compare
// reads it.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

// runAll re-executes this binary once per workload with the same
// flags, passes each child's report through to stderr and prints its
// result as one record line on stdout.
func runAll(stdout, stderr io.Writer, seed uint64, seconds float64, traceTo string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range workloads {
		childTrace := traceTo
		if childTrace != "0" && childTrace != "1" {
			childTrace = strings.TrimSuffix(childTrace, ".json") + "." + w.name + ".json"
		}
		var buf bytes.Buffer
		cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", childTrace)
		cmd.Stdout = io.MultiWriter(&buf, stderr)
		cmd.Stderr = stderr
		runErr := cmd.Run()
		rec := record{Workload: w.name, Seed: seed, Trace: childTrace != "0"}
		if err := json.Unmarshal(lastLine(buf.Bytes()), &rec.Result); err != nil {
			failed = append(failed, w.name)
			continue
		}
		line, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if runErr != nil {
			failed = append(failed, w.name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %s", strings.Join(failed, ", "))
	}
	return nil
}

// lastLine returns the last non-empty line of b.
func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}
