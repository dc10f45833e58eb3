// Command emissary-figures regenerates the paper's tables and figures.
//
// Usage:
//
//	emissary-figures [flags] <artifact>...
//	emissary-figures -measure 20000000 fig1 fig7
//	emissary-figures -j 8 all
//
// Artifacts: fig1 fig2 fig3 fig4 tab5 fig5 fig6 fig7 fig8 ideal fdip
// reset all. The paper simulates 5M+100M instructions per point; the
// defaults here are sized for minutes — pass -warmup/-measure to scale
// up (EMISSARY's gains grow with horizon as priority marks accumulate).
// Independent simulations fan out across all CPUs; -j caps the worker
// count (-j 1 forces the sequential schedule) without changing any
// output byte.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"emissary/internal/atomicfile"
	"emissary/internal/experiments"
	"emissary/internal/profiling"
	"emissary/internal/runner"
	"emissary/internal/workload"
)

func main() {
	var (
		warmup     = flag.Uint64("warmup", 2_000_000, "warm-up instructions per simulation")
		measure    = flag.Uint64("measure", 8_000_000, "measured instructions per simulation")
		seed       = flag.Uint64("seed", 1, "simulation seed")
		benches    = flag.String("benchmarks", "", "comma-separated subset of benchmarks (default: all 13)")
		progress   = flag.Bool("progress", false, "print one line per completed simulation")
		csvDir     = flag.String("csv", "", "also write machine-readable CSVs into this directory")
		jobs       = flag.Int("j", 0, "simulations to run in parallel (0 = all CPUs, 1 = sequential; output is identical either way)")
		checkpoint = flag.String("checkpoint", "", "journal completed simulations to this file and resume from it on rerun")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile on exit to this file")
		noSkip     = flag.Bool("no-cycle-skip", false, "walk every cycle instead of event-driven skipping (debugging; output is identical, only slower)")
		retries    = flag.Int("retries", 0, "extra attempts for transiently-failing simulations (0 = fail on first error; output is identical at any -j)")
		jobTimeout = flag.Duration("job-timeout", 0, "per-simulation deadline (0 = none; a tripped deadline is transient and composes with -retries)")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: emissary-figures [flags] fig1|fig2|fig3|fig4|tab5|fig5|fig6|fig7|fig8|ideal|fdip|reset|horizon|all")
		os.Exit(2)
	}

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

	// SIGINT/SIGTERM cancel in-flight simulations; completed ones are
	// already durable in the journal, so the run can be resumed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := experiments.DefaultConfig()
	cfg.Warmup = *warmup
	cfg.Measure = *measure
	cfg.Seed = *seed
	cfg.Parallelism = *jobs
	cfg.Context = ctx
	cfg.NoCycleSkip = *noSkip
	cfg.Retries = *retries
	cfg.JobTimeout = *jobTimeout
	cfg.Warn = func(e error) {
		fmt.Fprintf(os.Stderr, "warning: %v\n", e)
	}
	if *progress {
		cfg.Progress = os.Stderr
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
		cfg.Journal = journal
	}
	if *benches != "" {
		var ps []workload.Profile
		for _, name := range strings.Split(*benches, ",") {
			p, ok := workload.ProfileByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", name)
				os.Exit(1)
			}
			ps = append(ps, p)
		}
		cfg.Benchmarks = ps
	}

	names := flag.Args()
	if len(names) == 1 && names[0] == "all" {
		names = []string{"fig1", "fig2", "fig3", "fig4", "tab5", "fig5", "fig6", "fig7", "fig8", "ideal", "fdip", "reset", "horizon"}
	}

	benchNames := make([]string, len(cfg.Benchmarks))
	for i, b := range cfg.Benchmarks {
		benchNames[i] = b.Name
	}
	if len(benchNames) == 0 {
		benchNames = workload.ProfileNames()
	}

	writeCSV := func(name string, fn func(io.Writer) error) {
		if *csvDir == "" {
			return
		}
		if err := atomicfile.WriteTo(filepath.Join(*csvDir, name+".csv"), fn); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	for _, name := range names {
		var err error
		switch name {
		case "fig1":
			var pts []experiments.Fig1Point
			if pts, err = experiments.Fig1(cfg); err == nil {
				experiments.WriteFig1(os.Stdout, pts)
			}
		case "fig2":
			var rows []experiments.Fig2Row
			if rows, err = experiments.Fig2(cfg); err == nil {
				experiments.WriteFig2(os.Stdout, rows)
				writeCSV("fig2", func(w io.Writer) error { return experiments.CSVFig2(w, rows) })
			}
		case "fig3":
			var rows []experiments.Fig3Row
			if rows, err = experiments.Fig3(cfg); err == nil {
				experiments.WriteFig3(os.Stdout, rows)
				writeCSV("fig3", func(w io.Writer) error { return experiments.CSVFig3(w, rows) })
			}
		case "fig4":
			var rows []experiments.Fig4Row
			if rows, err = experiments.Fig4(cfg); err == nil {
				experiments.WriteFig4(os.Stdout, rows)
				writeCSV("fig4", func(w io.Writer) error { return experiments.CSVFig4(w, rows) })
			}
		case "tab5":
			var r *experiments.Table5Result
			if r, err = experiments.Table5(cfg); err == nil {
				experiments.WriteTable5(os.Stdout, r)
				writeCSV("tab5", func(w io.Writer) error { return experiments.CSVTable5(w, r) })
			}
		case "fig5":
			var series []experiments.Fig5Series
			if series, err = experiments.Fig5(cfg, nil); err == nil {
				experiments.WriteFig5(os.Stdout, series)
				writeCSV("fig5", func(w io.Writer) error { return experiments.CSVFig5(w, series) })
			}
		case "fig6":
			var rows []experiments.Fig6Row
			if rows, err = experiments.Fig6(cfg); err == nil {
				experiments.WriteFig6(os.Stdout, rows)
			}
		case "fig7":
			var r *experiments.Fig7Result
			if r, err = experiments.Fig7(cfg); err == nil {
				experiments.WriteFig7(os.Stdout, r, benchNames)
				writeCSV("fig7", func(w io.Writer) error { return experiments.CSVFig7(w, r, benchNames) })
			}
		case "fig8":
			var r *experiments.Fig8Result
			if r, err = experiments.Fig8(cfg); err == nil {
				experiments.WriteFig8(os.Stdout, r)
			}
		case "ideal":
			var rows []experiments.IdealRow
			var captured float64
			if rows, captured, err = experiments.Ideal(cfg); err == nil {
				experiments.WriteIdeal(os.Stdout, rows, captured)
			}
		case "fdip":
			var rows []experiments.FDIPRow
			var g float64
			if rows, g, err = experiments.FDIP(cfg); err == nil {
				experiments.WriteFDIP(os.Stdout, rows, g)
			}
		case "horizon":
			var rows []experiments.HorizonResult
			win := cfg.Measure
			if rows, err = experiments.Horizon(cfg, "tomcat",
				[]string{"P(8):S&E&R(1/32)", "P(8):S&E&R(1/32)+GHRP"}, 5, win); err == nil {
				experiments.WriteHorizon(os.Stdout, "tomcat", rows, win)
				writeCSV("horizon", func(w io.Writer) error { return experiments.CSVHorizon(w, rows) })
			}
		case "reset":
			var rows []experiments.ResetRow
			if rows, err = experiments.Reset(cfg, 0); err == nil {
				experiments.WriteReset(os.Stdout, rows)
			}
		default:
			fmt.Fprintf(os.Stderr, "unknown artifact %q\n", name)
			os.Exit(2)
		}
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "%s: interrupted\n", name)
				if *checkpoint != "" {
					fmt.Fprintf(os.Stderr, "completed simulations are journaled in %s; rerun the same command to resume\n", *checkpoint)
				}
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}
