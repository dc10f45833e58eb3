// Package hypothesis turns the simulator into a research instrument:
// a behavioral claim from the paper is posed as a controlled
// experiment (baseline/treatment variants differing in exactly one
// dimension), run across multiple seeds on the runner pool, and judged
// by effect-size and direction statistics into a CONFIRMED / REFUTED /
// INCONCLUSIVE verdict. A confirmed hypothesis becomes a CI-runnable
// regression on *behavior*, complementing the golden digests (bytes)
// and the allocation and cycle-skip gates (speed).
//
// The methodology follows inference-sim's hypotheses/ discipline:
// identify a hypothesis family, pose an intuitive behavioral claim,
// design a one-dimension-controlled experiment, run it across seeds,
// and document the resolution honestly — an effect that fails to
// clear its thresholds is INCONCLUSIVE, not quietly confirmed.
package hypothesis

import (
	"fmt"

	"emissary/internal/runner"
	"emissary/internal/sim"
	"emissary/internal/stats"
)

// DefaultSeeds is the seed set hypotheses run across when they do not
// declare their own: three decorrelated seeds, enough for a
// sign-consistency check without tripling CI cost.
var DefaultSeeds = []uint64{42, 123, 456}

// Scale sizes each simulation of an experiment. It is orthogonal to
// the hypothesis definitions so the same catalog runs at full depth
// locally and in a fast -short configuration in CI.
type Scale struct {
	// Warmup and Measure are per-simulation instruction counts applied
	// to every job that does not set its own.
	Warmup  uint64
	Measure uint64
	// Short marks the reduced configuration: hypotheses shrink their
	// pair lists (fewer workloads) in addition to the shorter windows.
	Short bool
}

// FullScale is the committed-report configuration: long enough for
// EMISSARY's priority marks to accumulate.
func FullScale() Scale {
	return Scale{Warmup: 1_000_000, Measure: 4_000_000}
}

// ShortScale is the CI configuration: small enough to run the whole
// catalog under the race detector in minutes.
func ShortScale() Scale {
	return Scale{Warmup: 300_000, Measure: 1_000_000, Short: true}
}

// fill applies the scale's instruction counts and the cell's seed to
// one job. Every field of the returned options is fully determined
// before scheduling, which is what keeps reports byte-identical at any
// worker count.
func (s Scale) fill(opt sim.Options, seed uint64) sim.Options {
	if opt.WarmupInstrs == 0 {
		opt.WarmupInstrs = s.Warmup
	}
	if opt.MeasureInstrs == 0 {
		opt.MeasureInstrs = s.Measure
	}
	opt.Seed = seed
	return opt
}

// Variant is one arm of a controlled comparison: the simulations to
// run and the scalar metric extracted from their outcomes. Most
// variants are a single simulation; derived metrics (e.g. "EMISSARY's
// speedup over TPLRU") run the two sims they are computed from.
type Variant struct {
	// Name labels the arm in reports ("P(8):S&E", "FDIP off", ...).
	Name string
	// Jobs are the simulations the metric needs. Seeds are assigned by
	// the harness (the same seed across both arms of a pair — common
	// random numbers maximize paired power); warm-up and measurement
	// windows come from the Scale unless a job pins its own.
	Jobs []sim.Options
	// Metric reduces the jobs' outcomes (same order as Jobs) to the
	// scalar under comparison.
	Metric func(outs []runner.SimOutcome) float64
}

// Pair is one controlled comparison: baseline and treatment variants
// that differ in exactly one dimension, evaluated once per seed.
type Pair struct {
	// Name identifies the comparison point, conventionally the
	// workload ("tomcat") or the controlled step ("grow/tomcat").
	Name string
	// Baseline and Treatment are the two arms.
	Baseline, Treatment Variant
	// Diff maps the two arms' metric values to the pair's delta; nil
	// selects stats.PercentChange (relative). Absolute differences
	// (func(b, t) { return t - b }) suit metrics that are already
	// fractions, like speedups.
	Diff func(base, treat float64) float64
}

// delta applies the pair's Diff (defaulting to relative change).
func (p Pair) delta(base, treat float64) float64 {
	if p.Diff != nil {
		return p.Diff(base, treat)
	}
	return stats.PercentChange(base, treat)
}

// Hypothesis is one catalog entry: a behavioral claim and the
// controlled experiment that tests it.
type Hypothesis struct {
	// ID is the stable catalog key ("H1"); Family groups related
	// claims ("starvation", "policy", "mechanics").
	ID     string
	Family string
	// Claim is the behavioral statement under test, in prose.
	Claim string
	// Seeds overrides DefaultSeeds when non-nil.
	Seeds []uint64
	// Pairs builds the experiment for a scale (short scales typically
	// return fewer pairs).
	Pairs func(s Scale) []Pair
	// Assert judges the evaluated experiment.
	Assert Assert
}

// seeds returns the hypothesis' seed set.
func (h *Hypothesis) seeds() []uint64 {
	if len(h.Seeds) > 0 {
		return h.Seeds
	}
	return DefaultSeeds
}

// Cell is one (pair × seed) observation: both arms' raw outcomes and
// the derived delta.
type Cell struct {
	Pair string
	Seed uint64
	// Base and Treat hold each arm's outcomes in the variant's job
	// order.
	Base, Treat []runner.SimOutcome
	// BaseMetric and TreatMetric are the arms' scalar metrics;
	// Delta is the pair's Diff of the two.
	BaseMetric, TreatMetric float64
	Delta                   float64
}

// PairSummary aggregates one pair's per-seed deltas.
type PairSummary struct {
	Name   string
	Deltas []float64 // seed order
	Median float64
}

// Evaluation is a fully-run experiment: raw cells, per-pair and
// aggregate effect statistics, and the verdict.
type Evaluation struct {
	H     *Hypothesis
	Scale Scale
	Seeds []uint64

	// Cells holds every (pair × seed) observation in deterministic
	// order: pairs outer, seeds inner.
	Cells []Cell
	// Pairs summarizes each pair across seeds, in pair order.
	Pairs []PairSummary

	// Deltas collects every cell's delta (cell order); Median,
	// Consistency and the bootstrap CI are computed over it.
	Deltas      []float64
	Median      float64
	Consistency float64
	CILo, CIHi  float64

	Verdict Verdict
	Reason  string
}

// metricOf guards a variant's metric evaluation: a variant with no
// metric is a catalog bug worth failing loudly on.
func metricOf(v Variant, outs []runner.SimOutcome) (float64, error) {
	if v.Metric == nil {
		return 0, fmt.Errorf("hypothesis: variant %q has no metric", v.Name)
	}
	return v.Metric(outs), nil
}
