// Command emissary-hypothesis runs the behavioral hypothesis catalog:
// paper-derived claims posed as controlled multi-seed experiments,
// judged CONFIRMED / REFUTED / INCONCLUSIVE, and rendered as markdown
// reports. It is the third CI gate — golden tests pin bytes, the
// allocation and cycle-skip tests pin speed, this pins behavior.
//
// Exit status: 0 when no hypothesis refutes and every -require ID
// confirms; 1 on any REFUTED verdict or a required hypothesis that
// fails to confirm (the behavioral regression signal); 2 on usage or
// execution errors.
//
// Examples:
//
//	emissary-hypothesis                       # full catalog, reports to results/hypotheses
//	emissary-hypothesis -short -out /tmp/hyp  # the CI configuration
//	emissary-hypothesis -run H2,H3 -seeds 7,8,9,10
//	emissary-hypothesis -short -require H1,H2,H3,H4,H5
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"emissary/internal/hypothesis"
	"emissary/internal/runner"
)

func main() {
	var (
		run        = flag.String("run", "", "comma-separated hypothesis IDs to run (default: whole catalog)")
		seedsFlag  = flag.String("seeds", "", "comma-separated seed override (default: each hypothesis' seed set)")
		jobs       = flag.Int("j", 0, "simulations to run in parallel (0 = all CPUs, 1 = sequential)")
		short      = flag.Bool("short", false, "reduced scale: shorter windows, fewer workloads (the CI configuration)")
		out        = flag.String("out", "results/hypotheses", "directory for the markdown reports ('' = skip writing)")
		checkpoint = flag.String("checkpoint", "", "journal completed simulations to this file and resume from it on rerun")
		require    = flag.String("require", "", "comma-separated IDs that must be CONFIRMED (exit 1 otherwise) — the CI regression gate")
		verbose    = flag.Bool("v", false, "print per-simulation progress to stderr")
		warmup     = flag.Uint64("warmup", 0, "override warm-up instructions (0 = scale default)")
		measure    = flag.Uint64("measure", 0, "override measured instructions (0 = scale default)")
		retries    = flag.Int("retries", 0, "extra attempts for transiently-failing simulations (0 = fail on first error; reports are identical at any -j)")
		jobTimeout = flag.Duration("job-timeout", 0, "per-simulation deadline (0 = none; a tripped deadline is transient and composes with -retries)")
	)
	flag.Parse()

	catalog := hypothesis.Catalog()
	if *run != "" {
		var selected []*hypothesis.Hypothesis
		for _, id := range splitList(*run) {
			h := hypothesis.ByID(id)
			if h == nil {
				fmt.Fprintf(os.Stderr, "unknown hypothesis %q (catalog: %s)\n", id, catalogIDs(catalog))
				os.Exit(2)
			}
			selected = append(selected, h)
		}
		catalog = selected
	}

	cfg := hypothesis.Config{Workers: *jobs, Retries: *retries, JobTimeout: *jobTimeout}
	if *short {
		cfg.Scale = hypothesis.ShortScale()
	} else {
		cfg.Scale = hypothesis.FullScale()
	}
	if *warmup > 0 {
		cfg.Scale.Warmup = *warmup
	}
	if *measure > 0 {
		cfg.Scale.Measure = *measure
	}
	if *seedsFlag != "" {
		for _, s := range splitList(*seedsFlag) {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad seed %q: %v\n", s, err)
				os.Exit(2)
			}
			cfg.Seeds = append(cfg.Seeds, v)
		}
	}
	if *verbose {
		cfg.Progress = os.Stderr
	}
	if *checkpoint != "" {
		j, err := runner.OpenJournal(*checkpoint)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer j.Close()
		if rec := j.Recovery(); rec.DiscardedRecords > 0 {
			fmt.Fprintf(os.Stderr, "warning: checkpoint %s lost %d complete record(s) (%d bytes) to mid-file corruption; they will be recomputed\n",
				*checkpoint, rec.DiscardedRecords, rec.DiscardedBytes)
		} else if rec.DiscardedBytes > 0 {
			fmt.Fprintf(os.Stderr, "checkpoint: discarded a torn final record (%d bytes) from %s\n", rec.DiscardedBytes, *checkpoint)
		}
		if n := j.Completed(); n > 0 {
			fmt.Fprintf(os.Stderr, "resuming: %d simulations already journaled in %s\n", n, *checkpoint)
		}
		cfg.Journal = j
	}

	// SIGINT/SIGTERM cancel in-flight simulations; with -checkpoint the
	// completed ones are already durable and the run resumes on rerun.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg.Context = ctx

	evs, err := hypothesis.RunCatalog(catalog, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		if ctx.Err() != nil {
			os.Exit(130)
		}
		os.Exit(2)
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := hypothesis.WriteReports(*out, evs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	verdicts := make(map[string]hypothesis.Verdict, len(evs))
	failed := false
	for _, ev := range evs {
		verdicts[ev.H.ID] = ev.Verdict
		fmt.Printf("%-4s %-12s %-13s %s\n", ev.H.ID, ev.H.Family, ev.Verdict, ev.Reason)
		if ev.Verdict == hypothesis.Refuted {
			failed = true
		}
	}
	for _, id := range splitList(*require) {
		v, ran := verdicts[id]
		if !ran {
			fmt.Printf("%-4s REQUIRED but not run\n", id)
			failed = true
			continue
		}
		if v != hypothesis.Confirmed {
			fmt.Printf("%-4s REQUIRED to be CONFIRMED but is %s — behavioral regression\n", id, v)
			failed = true
		}
	}
	if *out != "" {
		fmt.Printf("reports written to %s\n", *out)
	}
	if failed {
		os.Exit(1)
	}
}

// splitList splits a comma-separated flag, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// catalogIDs renders the catalog's IDs for error messages.
func catalogIDs(hs []*hypothesis.Hypothesis) string {
	ids := make([]string, len(hs))
	for i, h := range hs {
		ids[i] = h.ID
	}
	return strings.Join(ids, ",")
}
