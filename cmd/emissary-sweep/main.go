// Command emissary-sweep runs custom policy sweeps: a set of policies
// against a set of benchmarks, reporting per-benchmark speedups and
// geomeans versus the TPLRU+FDIP baseline. It is the free-form
// companion to emissary-figures' fixed artifacts. The whole
// (benchmark x policy) matrix fans out across CPUs; -j caps the worker
// count without changing any output byte.
//
// -checkpoint journals every completed simulation so an interrupted
// sweep (SIGINT, crash, OOM) resumes where it left off; -keep-going
// runs the matrix to completion even when individual cells fail,
// rendering the failed cells as such instead of aborting the sweep.
// -retries re-runs transiently-failing simulations with deterministic
// backoff (output stays byte-identical at any -j), -job-timeout bounds
// each attempt, and -best-effort-checkpoint downgrades checkpoint
// write failures to a loud warning instead of killing a healthy sweep.
//
// Examples:
//
//	emissary-sweep -policies "P(4):S&E,P(8):S&E,P(12):S&E"
//	emissary-sweep -benchmarks tomcat,verilator -policies "DRRIP,P(8):S&E&R(1/32)" -measure 30000000 -j 8
//	emissary-sweep -checkpoint sweep.journal -keep-going -measure 100000000
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"emissary/internal/core"
	"emissary/internal/faultinject"
	"emissary/internal/profiling"
	"emissary/internal/runner"
	"emissary/internal/sim"
	"emissary/internal/stats"
	"emissary/internal/workload"
)

func main() {
	var (
		policies   = flag.String("policies", "P(8):S&E,P(8):S&E&R(1/32),DRRIP", "comma-separated policy list")
		benches    = flag.String("benchmarks", "", "comma-separated benchmark subset (default: all 13)")
		warmup     = flag.Uint64("warmup", 2_000_000, "warm-up instructions")
		measure    = flag.Uint64("measure", 8_000_000, "measured instructions")
		seed       = flag.Uint64("seed", 1, "simulation seed")
		jobs       = flag.Int("j", 0, "simulations to run in parallel (0 = all CPUs, 1 = sequential)")
		verbose    = flag.Bool("v", false, "print progress to stderr")
		checkpoint = flag.String("checkpoint", "", "journal completed simulations to this file and resume from it on rerun")
		keepGoing  = flag.Bool("keep-going", false, "run remaining cells when one fails; failed cells render as 'failed'")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile on exit to this file")
		noSkip     = flag.Bool("no-cycle-skip", false, "walk every cycle instead of event-driven skipping (debugging; output is identical, only slower)")
		retries    = flag.Int("retries", 0, "extra attempts for transiently-failing simulations (0 = fail on first error; output is identical at any -j)")
		jobTimeout = flag.Duration("job-timeout", 0, "per-simulation deadline (0 = none; a tripped deadline is transient and composes with -retries)")
		bestEffort = flag.Bool("best-effort-checkpoint", false, "keep sweeping when checkpoint writes fail (loud warning) instead of failing the sweep")
		inject     = flag.String("inject", "", "deterministic job fault plan 'job:error|panic|stall[@attempts]', comma-separated (testing; e.g. '3:error@1,0:stall')")
	)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	var specs []core.Spec
	for _, p := range strings.Split(*policies, ",") {
		spec, err := core.ParsePolicy(strings.TrimSpace(p))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		specs = append(specs, spec)
	}

	var profiles []workload.Profile
	if *benches == "" {
		profiles = workload.Profiles()
	} else {
		for _, name := range strings.Split(*benches, ",") {
			p, ok := workload.ProfileByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", name)
				os.Exit(1)
			}
			profiles = append(profiles, p)
		}
	}

	// One flat batch: per benchmark, the baseline then every policy.
	stride := 1 + len(specs)
	batch := make([]sim.Options, 0, len(profiles)*stride)
	addJob := func(bench workload.Profile, spec core.Spec) {
		batch = append(batch, sim.Options{
			Benchmark:     bench,
			Policy:        spec,
			WarmupInstrs:  *warmup,
			MeasureInstrs: *measure,
			FDIP:          true,
			NLP:           true,
			NoCycleSkip:   *noSkip,
			Seed:          *seed,
		})
	}
	for _, bench := range profiles {
		addJob(bench, core.Spec{})
		for _, spec := range specs {
			addJob(bench, spec)
		}
	}

	// SIGINT/SIGTERM cancel in-flight simulations; with -checkpoint the
	// completed ones are already durable and the sweep resumes on rerun.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	scfg := runner.SimsConfig{
		Workers:    *jobs,
		Retry:      runner.RetryPolicy{MaxAttempts: *retries + 1},
		JobTimeout: *jobTimeout,
		Warn: func(e error) {
			fmt.Fprintf(os.Stderr, "warning: %v\n", e)
		},
	}
	if *keepGoing {
		scfg.Policy = runner.Continue
	}
	if *bestEffort {
		scfg.JournalFailure = runner.JournalDegrade
	}
	if *inject != "" {
		ji, err := faultinject.ParseJobPlan(*inject)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		scfg.Inject = ji.Before
	}
	if *verbose {
		scfg.Progress = func(r sim.Result) {
			fmt.Fprintf(os.Stderr, "done %-16s %-20s IPC %.4f\n", r.Benchmark, r.Policy, r.IPC)
		}
	}
	if *checkpoint != "" {
		journal, err := runner.OpenJournal(*checkpoint)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer journal.Close()
		if rec := journal.Recovery(); rec.DiscardedRecords > 0 {
			fmt.Fprintf(os.Stderr, "warning: checkpoint %s lost %d complete record(s) (%d bytes) to mid-file corruption; they will be recomputed\n",
				*checkpoint, rec.DiscardedRecords, rec.DiscardedBytes)
		} else if rec.DiscardedBytes > 0 {
			fmt.Fprintf(os.Stderr, "checkpoint: discarded a torn final record (%d bytes) from %s\n", rec.DiscardedBytes, *checkpoint)
		}
		if n := journal.Completed(); n > 0 {
			fmt.Fprintf(os.Stderr, "checkpoint: resuming with %d completed simulation(s) from %s\n", n, *checkpoint)
		}
		scfg.Journal = journal
	}

	results, err := runner.RunSims(ctx, batch, scfg)
	failed := make(map[int]*runner.JobError)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "interrupted")
			if *checkpoint != "" {
				done := 0
				for i := range batch {
					if _, ok := scfg.Journal.Lookup(batch[i]); ok {
						done++
					}
				}
				fmt.Fprintf(os.Stderr, "%d/%d simulations journaled in %s; rerun the same command to resume\n",
					done, len(batch), *checkpoint)
			}
			os.Exit(130)
		}
		if !*keepGoing {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, je := range runner.Failures(err) {
			failed[je.Job] = je
			fmt.Fprintln(os.Stderr, je)
		}
		if len(failed) == 0 {
			// Not a per-job failure (e.g. journal I/O): nothing to render.
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "continuing with %d/%d cells failed\n", len(failed), len(batch))
	}

	// Header.
	fmt.Printf("%-16s", "benchmark")
	for _, s := range specs {
		fmt.Printf("  %18s", s.String())
	}
	fmt.Println()

	speedups := make([][]float64, len(specs))
	for bi, bench := range profiles {
		base := results[bi*stride]
		baseOK := failed[bi*stride] == nil
		fmt.Printf("%-16s", bench.Name)
		for i := range specs {
			cell := bi*stride + 1 + i
			switch {
			case !baseOK:
				fmt.Printf("  %18s", "n/a")
			case failed[cell] != nil:
				fmt.Printf("  %18s", "failed")
			default:
				res := results[cell]
				s := stats.Speedup(base.Cycles, res.Cycles)
				speedups[i] = append(speedups[i], s)
				fmt.Printf("  %17.2f%%", s*100)
			}
		}
		fmt.Println()
	}
	fmt.Printf("%-16s", "geomean")
	for i := range specs {
		if len(speedups[i]) == 0 {
			fmt.Printf("  %18s", "n/a")
			continue
		}
		fmt.Printf("  %17.2f%%", stats.Geomean(speedups[i])*100)
	}
	fmt.Println()
	if len(failed) > 0 {
		fmt.Printf("\n%d cell(s) failed; geomeans cover successful cells only\n", len(failed))
	}
}
