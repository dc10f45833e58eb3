// Package experiments regenerates every table and figure of the
// paper's evaluation (§5-§6): one function per artifact, each running
// the required set of simulations and rendering the same rows/series
// the paper reports. Absolute numbers differ from the paper (the
// substrate is a from-scratch simulator and the workloads are
// synthetic); the shapes — policy orderings, the N=8 sweet spot, the
// random-filter tradeoff, saturation behaviour — are the reproduction
// target.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"emissary/internal/core"
	"emissary/internal/runner"
	"emissary/internal/sim"
	"emissary/internal/stats"
	"emissary/internal/workload"
)

// Config scales and scopes an experiment run.
type Config struct {
	// Warmup and Measure are per-simulation instruction counts. The
	// paper uses 5M + 100M; EMISSARY's priority marks accumulate over
	// the whole run, so short measurements understate its gains.
	Warmup  uint64
	Measure uint64
	// Benchmarks defaults to the 13 paper workloads.
	Benchmarks []workload.Profile
	// Seed decorrelates stochastic components across repetitions.
	Seed uint64
	// Progress, when non-nil, receives one line per completed
	// simulation (completion order; lines never interleave).
	Progress io.Writer
	// Parallelism is the number of worker goroutines independent
	// simulations run across: 0 uses every available CPU
	// (GOMAXPROCS), 1 forces the sequential schedule. Every artifact
	// is bit-identical at any setting; only wall-clock changes.
	Parallelism int
	// Context, when non-nil, cancels in-flight simulations (SIGINT
	// plumbing for the CLIs); nil means context.Background().
	Context context.Context
	// Failure selects job-failure handling; the zero value is
	// runner.FailFast, which artifacts that need the whole matrix
	// should keep.
	Failure runner.FailurePolicy
	// Journal, when non-nil, checkpoints every completed simulation
	// and serves already-completed ones on a rerun. Artifacts share
	// jobs (every figure runs the TPLRU baseline), so one journal
	// dedupes across them too.
	Journal *runner.Journal
	// NoCycleSkip disables the core's event-driven fast-forward in
	// every simulation of the run (debugging escape hatch; results are
	// byte-identical either way, only wall-clock changes).
	NoCycleSkip bool
	// Retries is the number of extra attempts a transiently-failing
	// simulation gets (0 = fail on first error). Backoff is virtual-
	// time deterministic, so artifacts stay byte-identical at any
	// Parallelism.
	Retries int
	// JobTimeout, when positive, bounds each simulation attempt with
	// its own deadline; a tripped deadline is transient and composes
	// with Retries.
	JobTimeout time.Duration
	// JournalFailure selects how a checkpoint write failure is handled
	// (runner.JournalFatal fails the job; runner.JournalDegrade warns
	// and keeps the sweep alive).
	JournalFailure runner.JournalFailureMode
	// Warn receives non-fatal degradation notices; nil discards them.
	Warn func(error)
}

// DefaultConfig returns a configuration sized to minutes, not hours.
func DefaultConfig() Config {
	return Config{
		Warmup:     2_000_000,
		Measure:    8_000_000,
		Benchmarks: workload.Profiles(),
		Seed:       1,
	}
}

func (c Config) benchmarks() []workload.Profile {
	if len(c.Benchmarks) > 0 {
		return c.Benchmarks
	}
	return workload.Profiles()
}

// fill applies the Config's default instruction counts and seed to one
// job. Every field of the returned options is fully determined, so a
// filled job can run on any worker at any time with the same outcome.
func (c Config) fill(opt sim.Options) sim.Options {
	if opt.WarmupInstrs == 0 {
		opt.WarmupInstrs = c.Warmup
	}
	if opt.MeasureInstrs == 0 {
		opt.MeasureInstrs = c.Measure
	}
	if opt.Seed == 0 {
		opt.Seed = c.Seed
	}
	if c.NoCycleSkip {
		opt.NoCycleSkip = true
	}
	return opt
}

// progress returns the serialized per-simulation progress callback, or
// nil when no Progress writer is configured.
func (c Config) progress() func(sim.Result) {
	if c.Progress == nil {
		return nil
	}
	return func(r sim.Result) {
		fmt.Fprintf(c.Progress, "  done %-16s %-20s IPC %.4f\n", r.Benchmark, r.Policy, r.IPC)
	}
}

// run executes one simulation, reporting progress.
func (c Config) run(opt sim.Options) (sim.Result, error) {
	res, err := sim.Run(c.fill(opt))
	if err != nil {
		return res, err
	}
	if p := c.progress(); p != nil {
		p(res)
	}
	return res, nil
}

// ctx returns the configured context, defaulting to Background.
func (c Config) ctx() context.Context {
	if c.Context != nil {
		return c.Context
	}
	return context.Background()
}

// runBatch executes a set of independent jobs across the worker pool,
// returning results in job order. Failure handling follows c.Failure
// (FailFast cancels the outstanding jobs on the first error), and a
// configured Journal checkpoints completions / resumes prior runs.
func (c Config) runBatch(jobs []sim.Options) ([]sim.Result, error) {
	filled := make([]sim.Options, len(jobs))
	for i, job := range jobs {
		filled[i] = c.fill(job)
	}
	return runner.RunSims(c.ctx(), filled, runner.SimsConfig{
		Workers:        c.Parallelism,
		Policy:         c.Failure,
		Journal:        c.Journal,
		Progress:       c.progress(),
		Retry:          runner.RetryPolicy{MaxAttempts: c.Retries + 1},
		JobTimeout:     c.JobTimeout,
		JournalFailure: c.JournalFailure,
		Warn:           c.Warn,
	})
}

// baseOptions is the TPLRU + FDIP + NLP baseline the evaluations
// compare against.
func (c Config) baseOptions(bench workload.Profile) sim.Options {
	return sim.Options{
		Benchmark: bench,
		Policy:    core.Spec{}, // TPLRU recency baseline
		FDIP:      true,
		NLP:       true,
	}
}

// policyOptions is the baseline with a different L2 policy.
func (c Config) policyOptions(bench workload.Profile, spec core.Spec) sim.Options {
	o := c.baseOptions(bench)
	o.Policy = spec
	return o
}

// Cell is one (benchmark, policy) outcome relative to the baseline.
type Cell struct {
	Benchmark string
	Policy    string
	Speedup   float64 // fraction vs baseline
	EnergyRed float64 // fractional energy reduction vs baseline
	Result    sim.Result
}

// runPolicies runs the baseline plus each policy for every benchmark,
// all as one flat batch across the worker pool. Results are keyed
// [benchmark][policy-index]; baselines come back separately.
func (c Config) runPolicies(policies []core.Spec) (map[string]sim.Result, map[string][]Cell, error) {
	benches := c.benchmarks()
	stride := 1 + len(policies)
	jobs := make([]sim.Options, 0, len(benches)*stride)
	for _, bench := range benches {
		jobs = append(jobs, c.baseOptions(bench))
		for _, spec := range policies {
			jobs = append(jobs, c.policyOptions(bench, spec))
		}
	}
	results, err := c.runBatch(jobs)
	if err != nil {
		return nil, nil, err
	}
	baselines := make(map[string]sim.Result)
	cells := make(map[string][]Cell)
	for bi, bench := range benches {
		base := results[bi*stride]
		baselines[bench.Name] = base
		for pi, spec := range policies {
			res := results[bi*stride+1+pi]
			cells[bench.Name] = append(cells[bench.Name], Cell{
				Benchmark: bench.Name,
				Policy:    spec.String(),
				Speedup:   stats.Speedup(base.Cycles, res.Cycles),
				EnergyRed: stats.PercentChange(base.EnergyPJ, res.EnergyPJ) * -1,
				Result:    res,
			})
		}
	}
	return baselines, cells, nil
}

// geomeanOver computes the geomean speedup of policy index i across
// benchmarks. Benchmarks are visited in sorted-name order: float
// accumulation is order-sensitive in the last bits, and Go randomizes
// map iteration, so a fixed order is required for run-to-run
// byte-identical artifacts.
func geomeanOver(cells map[string][]Cell, idx int, pick func(Cell) float64) float64 {
	names := make([]string, 0, len(cells))
	for name := range cells {
		names = append(names, name)
	}
	sort.Strings(names)
	xs := make([]float64, 0, len(names))
	for _, name := range names {
		xs = append(xs, pick(cells[name][idx]))
	}
	return stats.Geomean(xs)
}

// table is a minimal text-table renderer.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) addRow(cols ...string) { t.rows = append(t.rows, cols) }

func (t *table) render(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cols []string) {
		parts := make([]string, len(cols))
		for i, c := range cols {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

func pct(f float64) string  { return fmt.Sprintf("%+.2f%%", f*100) }
func f2(f float64) string   { return fmt.Sprintf("%.2f", f) }
func f4(f float64) string   { return fmt.Sprintf("%.4f", f) }
func frac(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }
