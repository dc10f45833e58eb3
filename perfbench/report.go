package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"emissary/internal/sim"
	"emissary/internal/stats"
)

// summary describes the samples of one metric within a run.
type summary struct {
	Median, Q1, Q3, Min, Max float64
	N                        int
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q1, q3 := quartiles(s)
	return summary{Median: stats.Median(s), Q1: q1, Q3: q3, Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// quartiles returns the first and third quartiles of sorted xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// definition the benchmark's repeat spread is judged by. A single
// sample is its own quartiles.
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	if n == 1 {
		return sorted[0], sorted[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: the benchmark's contract with
// whoever drives it.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome collects one run's samples and operation counts.
type outcome struct {
	attempted, failed int
	samples           map[string][]float64
}

func newOutcome() *outcome { return &outcome{samples: make(map[string][]float64)} }

func (o *outcome) add(name string, v float64) { o.samples[name] = append(o.samples[name], v) }

// check counts one operation, failing it when ok is false.
func (o *outcome) check(ok bool) {
	o.attempted++
	if !ok {
		o.failed++
	}
}

// checkJob counts one simulation job as an operation. It fails when the
// job returned an error or its output differs from the reference (same
// is false), and says why.
func (o *outcome) checkJob(out io.Writer, phase string, job int, err error, same bool) {
	o.check(err == nil && same)
	if err != nil {
		fmt.Fprintf(out, "%s: job %d failed: %v\n", phase, job, err)
	} else if !same {
		fmt.Fprintf(out, "%s: job %d output differs from the reference\n", phase, job)
	}
}

// write prints every metric of defs with its spread, then extras, which
// stay out of the result, then the result line. It fails when a metric
// was never measured, so a run can never silently drop one.
func (o *outcome) write(w io.Writer, defs, extras []metricDef) error {
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]metricValue, len(defs))}
	for i, d := range append(append([]metricDef(nil), defs...), extras...) {
		xs := o.samples[d.name]
		if len(xs) == 0 {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		s := summarize(xs)
		fmt.Fprintf(w, "%-36s %14.6g %-11s median; q1 %.6g q3 %.6g; min %.6g max %.6g; n=%d\n",
			d.name, s.Median, d.unit, s.Q1, s.Q3, s.Min, s.Max, s.N)
		if i < len(defs) {
			res.Metrics[d.name] = metricValue{Value: s.Median, Unit: d.unit}
		}
	}
	rate := 0.0
	if o.attempted > 0 {
		rate = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(w, "error_rate %.6g (%d of %d operations failed)\n", rate, o.failed, o.attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// resultDigest fingerprints one simulation's complete output.
func resultDigest(r sim.Result) [32]byte {
	return sha256.Sum256([]byte(fmt.Sprintf("%+v", r)))
}

// passDigest is the job-order digest of a pass's results, the form the
// committed seed-1 digests take.
func passDigest(rs []sim.Result) string {
	h := sha256.New()
	for _, r := range rs {
		fmt.Fprintf(h, "%+v\n", r)
	}
	return hex.EncodeToString(h.Sum(nil))
}
