package hypothesis

import (
	"context"
	"fmt"
	"io"
	"time"

	"emissary/internal/runner"
	"emissary/internal/sim"
)

// Config tunes an experiment run.
type Config struct {
	// Scale sizes every simulation; the zero value selects FullScale.
	Scale Scale
	// Seeds overrides every hypothesis' seed set when non-empty.
	Seeds []uint64
	// Workers is the pool size (0 = GOMAXPROCS, 1 = sequential). The
	// report is byte-identical at any setting.
	Workers int
	// Journal, when non-nil, checkpoints completed simulations and
	// serves them on reruns; hypotheses sharing jobs (every EMISSARY
	// comparison runs the TPLRU baseline) dedupe through it too.
	Journal *runner.Journal
	// Context cancels in-flight simulations; nil means Background.
	Context context.Context
	// Progress, when non-nil, receives one line per completed
	// simulation.
	Progress io.Writer
	// Retries is the number of extra attempts a transiently-failing
	// simulation gets (0 = fail on first error); the deterministic
	// backoff keeps reports byte-identical at any Workers setting.
	Retries int
	// JobTimeout, when positive, bounds each simulation attempt with
	// its own deadline (tripped deadlines are transient).
	JobTimeout time.Duration
}

func (c Config) scale() Scale {
	if c.Scale.Warmup == 0 && c.Scale.Measure == 0 {
		return FullScale()
	}
	return c.Scale
}

func (c Config) ctx() context.Context {
	if c.Context != nil {
		return c.Context
	}
	return context.Background()
}

// jobKey identifies a schedulable simulation for in-batch dedup. The
// fingerprint alone is not enough: NoCycleSkip is deliberately outside
// it (results are identical either way) but RunStats are not, and
// hypotheses about the machinery itself read stats.
func jobKey(opt sim.Options) string {
	return fmt.Sprintf("%s|noskip=%v", opt.Fingerprint(), opt.NoCycleSkip)
}

// Run executes one hypothesis' experiment: every (pair × seed × job)
// simulation is scheduled on the runner pool in deterministic order
// (pairs outer, seeds inner, baseline before treatment), identical
// jobs within the batch run once, and the outcomes are folded into an
// evaluated, verdict-bearing Evaluation.
func Run(h *Hypothesis, cfg Config) (*Evaluation, error) {
	scale := cfg.scale()
	seeds := h.seeds()
	if len(cfg.Seeds) > 0 {
		seeds = cfg.Seeds
	}
	pairs := h.Pairs(scale)
	if len(pairs) == 0 {
		return nil, fmt.Errorf("hypothesis %s: no pairs at this scale", h.ID)
	}

	// Flatten to a deduped job list, remembering for each (pair, seed,
	// arm, job) which slot serves it. Filling happens before dedup so
	// two arms sharing options (and therefore a fingerprint) collapse.
	var (
		jobs  []sim.Options
		slot  = make(map[string]int)
		index = make(map[cellJobRef]int)
	)
	add := func(ref cellJobRef, opt sim.Options) {
		filled := scale.fill(opt, ref.seed)
		k := jobKey(filled)
		i, ok := slot[k]
		if !ok {
			i = len(jobs)
			jobs = append(jobs, filled)
			slot[k] = i
		}
		index[ref] = i
	}
	for pi, p := range pairs {
		for _, seed := range seeds {
			for ji, opt := range p.Baseline.Jobs {
				add(cellJobRef{pi, seed, armBase, ji}, opt)
			}
			for ji, opt := range p.Treatment.Jobs {
				add(cellJobRef{pi, seed, armTreat, ji}, opt)
			}
		}
	}

	var progress func(sim.Result)
	if cfg.Progress != nil {
		progress = func(r sim.Result) {
			fmt.Fprintf(cfg.Progress, "  %s done %-16s %-20s IPC %.4f\n", h.ID, r.Benchmark, r.Policy, r.IPC)
		}
	}
	outs, err := runner.RunSimsStats(cfg.ctx(), jobs, runner.SimsConfig{
		Workers:    cfg.Workers,
		Journal:    cfg.Journal,
		Progress:   progress,
		Retry:      runner.RetryPolicy{MaxAttempts: cfg.Retries + 1},
		JobTimeout: cfg.JobTimeout,
	})
	if err != nil {
		return nil, fmt.Errorf("hypothesis %s: %w", h.ID, err)
	}

	ev := &Evaluation{H: h, Scale: scale, Seeds: seeds}
	for pi, p := range pairs {
		sum := PairSummary{Name: p.Name}
		for _, seed := range seeds {
			cell := Cell{Pair: p.Name, Seed: seed}
			for ji := range p.Baseline.Jobs {
				cell.Base = append(cell.Base, outs[index[cellJobRef{pi, seed, armBase, ji}]])
			}
			for ji := range p.Treatment.Jobs {
				cell.Treat = append(cell.Treat, outs[index[cellJobRef{pi, seed, armTreat, ji}]])
			}
			if cell.BaseMetric, err = metricOf(p.Baseline, cell.Base); err != nil {
				return nil, err
			}
			if cell.TreatMetric, err = metricOf(p.Treatment, cell.Treat); err != nil {
				return nil, err
			}
			cell.Delta = p.delta(cell.BaseMetric, cell.TreatMetric)
			sum.Deltas = append(sum.Deltas, cell.Delta)
			ev.Cells = append(ev.Cells, cell)
			ev.Deltas = append(ev.Deltas, cell.Delta)
		}
		sum.Median = median(sum.Deltas)
		ev.Pairs = append(ev.Pairs, sum)
	}
	summarize(ev)
	if h.Assert == nil {
		return nil, fmt.Errorf("hypothesis %s: no assertion", h.ID)
	}
	ev.Verdict, ev.Reason = h.Assert(ev)
	return ev, nil
}

// RunCatalog evaluates hypotheses in order, sharing the pool and
// journal across them. Hypotheses are independent: one failing to run
// (as opposed to refuting) aborts the catalog, because a partial
// catalog would silently weaken the CI gate.
func RunCatalog(hs []*Hypothesis, cfg Config) ([]*Evaluation, error) {
	evs := make([]*Evaluation, 0, len(hs))
	for _, h := range hs {
		ev, err := Run(h, cfg)
		if err != nil {
			return nil, err
		}
		evs = append(evs, ev)
	}
	return evs, nil
}

type arm int

const (
	armBase arm = iota
	armTreat
)

// cellJobRef addresses one job of one cell.
type cellJobRef struct {
	pair int
	seed uint64
	arm  arm
	job  int
}
