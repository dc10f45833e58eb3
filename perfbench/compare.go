package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// readRecords loads the end-to-end records of a -workload all output
// file, one JSON record per line; traced records are skipped.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if !r.Trace {
			recs = append(recs, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// verdict is the comparison of one workload × metric.
type verdict struct {
	parent, change summary
	wins, pairs    int
	worse          float64 // relative worsening of the change's median; negative is better
	verdict        string
}

// judge compares a change's runs of one metric with its parent's.
// pairs holds (parent, change) values of runs made with the same seed.
// A gain needs the change to win at least nine tenths of all pairs,
// ties counting for neither, and the medians to differ by more than
// the distance between the parent's quartiles. Otherwise a relative
// spread wider than the bound leaves the metric unresolved, unless
// every change run beats every parent run; a median worse by more than
// the bound is a regression.
func judge(d metricDef, parent, change []float64, pairs [][2]float64) verdict {
	v := verdict{parent: summarize(parent), change: summarize(change), pairs: len(pairs)}
	better := func(x, y float64) bool {
		if d.better == "higher" {
			return x > y
		}
		return x < y
	}
	for _, p := range pairs {
		if better(p[1], p[0]) {
			v.wins++
		}
	}
	pa, ch := v.parent, v.change
	v.worse = (ch.Median - pa.Median) / pa.Median
	if d.better == "higher" {
		v.worse = -v.worse
	}
	spread := max((pa.Q3-pa.Q1)/pa.Median, (ch.Q3-ch.Q1)/ch.Median)
	allBetter := better(ch.Min, pa.Max) && better(ch.Max, pa.Min)
	switch {
	case v.pairs > 0 && 10*v.wins >= 9*v.pairs && v.worse < 0 && math.Abs(ch.Median-pa.Median) > pa.Q3-pa.Q1:
		v.verdict = "improved"
	case spread > d.bound && !allBetter:
		v.verdict = "unresolved"
	case v.worse > d.bound:
		v.verdict = "regressed"
	default:
		v.verdict = "unchanged"
	}
	return v
}

// compareFiles prints the verdict of every workload × end-to-end metric
// found in both record files.
func compareFiles(w io.Writer, parentPath, changePath string) error {
	parent, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-22s %-13s %-32s %-32s %8s %7s %s\n",
		"workload", "metric", "parent median [q1 q3]", "change median [q1 q3]", "worse", "wins", "verdict")
	rows := 0
	for _, wl := range workloads {
		pr, cr := byWorkload(parent, wl.name), byWorkload(change, wl.name)
		if len(pr) == 0 || len(cr) == 0 {
			continue
		}
		for _, d := range endToEnd {
			pv, cv, pairs := metricValues(pr, cr, d.name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			v := judge(d, pv, cv, pairs)
			fmt.Fprintf(w, "%-22s %-13s %-32s %-32s %+7.2f%% %3d/%-3d %s (bound %.0f%%)\n",
				wl.name, d.name, fmtSummary(v.parent), fmtSummary(v.change),
				100*v.worse, v.wins, v.pairs, v.verdict, 100*d.bound)
			rows++
		}
	}
	if rows == 0 {
		return fmt.Errorf("no workload has end-to-end records in both %s and %s", parentPath, changePath)
	}
	return nil
}

func fmtSummary(s summary) string {
	return fmt.Sprintf("%.4g [%.4g %.4g] n=%d", s.Median, s.Q1, s.Q3, s.N)
}

func byWorkload(recs []record, name string) []record {
	var out []record
	for _, r := range recs {
		if r.Workload == name {
			out = append(out, r)
		}
	}
	return out
}

// metricValues extracts one metric from both sides and pairs runs of
// equal seed, each change run used at most once.
func metricValues(parent, change []record, metric string) (pv, cv []float64, pairs [][2]float64) {
	used := make([]bool, len(change))
	for _, c := range change {
		if m, ok := c.Result.Metrics[metric]; ok {
			cv = append(cv, m.Value)
		}
	}
	for _, p := range parent {
		m, ok := p.Result.Metrics[metric]
		if !ok {
			continue
		}
		pv = append(pv, m.Value)
		for j, c := range change {
			if cm, ok := c.Result.Metrics[metric]; ok && !used[j] && c.Seed == p.Seed {
				used[j] = true
				pairs = append(pairs, [2]float64{m.Value, cm.Value})
				break
			}
		}
	}
	return pv, cv, pairs
}
