package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func readResult(path string) (resultFile, error) {
	var f resultFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Sets) == 0 {
		return f, fmt.Errorf("%s: no sets", path)
	}
	return f, nil
}

// pooled returns the runs of one end-to-end metric of one workload over every
// set in the file.
func (f resultFile) pooled(workload, metric string) []float64 {
	var runs []float64
	for _, s := range f.Sets {
		if w := s.Workloads[workload]; w != nil {
			runs = append(runs, w.EndToEnd[metric].Runs...)
		}
	}
	return runs
}

// verdict judges change against base for one metric on one workload:
//
//	better      every run of change beats every run of base, and the medians
//	            differ by more than the distance between base's quartiles
//	worse       change's median is worse than base's by more than the bound
//	unresolved  neither, and the quartile distance of either side is wider
//	            than the bound, so "no regression" cannot be told from noise
//	unchanged   otherwise
func verdict(m metricDef, base, change []float64) string {
	if len(base) == 0 || len(change) == 0 {
		return "missing"
	}
	sign := 1.0 // orient so that larger is better
	if !m.higher {
		sign = -1
	}
	mb, mc := median(base), median(change)
	gain := sign * (mc - mb) / mb
	q1, q3 := quartiles(base)
	c1, c3 := quartiles(change)
	spreadBase, spreadChange := (q3-q1)/mb, (c3-c1)/mc
	separated := true
	for _, b := range base {
		for _, c := range change {
			if sign*(c-b) <= 0 {
				separated = false
			}
		}
	}
	switch {
	case separated && gain > spreadBase:
		return "better"
	case gain < -m.bound:
		return "worse"
	case spreadBase > m.bound || spreadChange > m.bound:
		return "unresolved"
	}
	return "unchanged"
}

// compare prints, for every end-to-end metric, one row per workload judging
// file b against file a, and reports whether any row reads worse.
func compare(pathA, pathB string) (worse bool, err error) {
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	for _, m := range endToEnd {
		fmt.Printf("%s (%s, bound %.0f%%)\n", m.name, m.unit, 100*m.bound)
		for _, w := range workloads {
			ra, rb := a.pooled(w.name, m.name), b.pooled(w.name, m.name)
			v := verdict(m, ra, rb)
			worse = worse || v == "worse"
			fmt.Printf("  %-20s %12.6g -> %-12.6g %+7.2f%%  n %d/%d  %s\n", w.name,
				median(ra), median(rb), 100*(median(rb)-median(ra))/median(ra), len(ra), len(rb), v)
		}
	}
	return worse, nil
}
