package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Verdicts of one workload x metric comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares b against a for one end-to-end metric. worse is how much
// worse b is than a, as a share of a (negative = better). When either
// side's spread exceeds the bound the pair cannot tell a regression from
// noise and is unresolved, never "ok".
func judge(d metricDef, a, b metricValue) (worse float64, verdict string) {
	if a.Value != 0 {
		worse = (b.Value - a.Value) / a.Value
	}
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case max(a.Spread, b.Spread) > d.Bound:
		return worse, verdictUnresolved
	case worse > d.Bound:
		return worse, verdictRegressed
	}
	return worse, verdictOK
}

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// side is one side of a comparison: the result files of one or more runs
// of the same commit.
type side []*resultFile

func readSide(paths string) (side, error) {
	var sd side
	for _, p := range strings.Split(paths, ",") {
		f, err := readResult(p)
		if err != nil {
			return nil, err
		}
		sd = append(sd, f)
	}
	return sd, nil
}

// metric summarizes one workload x metric over the side's runs: the median
// of the runs' values, and as spread the runs' iqrSpread (what the driver
// computes over its ten runs). A single run has no run-to-run spread; its
// own medianNoise stands in.
func (sd side) metric(workload, name string) (metricValue, bool) {
	var vals []float64
	var one metricValue
	for _, f := range sd {
		if w := f.Workloads[workload]; w != nil && w.EndToEnd != nil {
			one = w.EndToEnd[name]
			vals = append(vals, one.Value)
		}
	}
	switch len(vals) {
	case 0:
		return metricValue{}, false
	case 1:
		return one, true
	}
	return metricValue{Value: median(vals), Unit: one.Unit, Spread: iqrSpread(vals), Samples: len(vals)}, true
}

func (sd side) failedFrac(workload string) float64 {
	var vals []float64
	for _, f := range sd {
		if w := f.Workloads[workload]; w != nil {
			vals = append(vals, w.FailedFrac)
		}
	}
	return median(vals)
}

// compareFiles prints, per workload x end-to-end metric, both sides' values,
// how much worse b is, the bound and the verdict. Each argument is one
// result file or a comma-separated list of them (several runs of one
// commit). It returns the exit code: 1 on any regression or unreadable file.
func compareFiles(pathsA, pathsB string) int {
	a, err := readSide(pathsA)
	if err == nil {
		var b side
		if b, err = readSide(pathsB); err == nil {
			return compareSides(a, b)
		}
	}
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	return 1
}

func compareSides(sa, sb side) int {
	counts := map[string]int{}
	fmt.Printf("%-12s %-30s %14s %14s %9s %9s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, okA := sa.metric(w.name, d.Name)
			b, okB := sb.metric(w.name, d.Name)
			if !okA || !okB {
				continue
			}
			worse, verdict := judge(d, a, b)
			counts[verdict]++
			fmt.Printf("%-12s %-30s %14.6g %14.6g %+8.2f%% %8.4f%%  %s\n",
				w.name, d.Name, a.Value, b.Value, 100*worse, 100*d.Bound, verdict)
		}
		fa, fb := sa.failedFrac(w.name), sb.failedFrac(w.name)
		verdict := verdictOK
		if fb-fa > failedFracBound {
			verdict = verdictRegressed
		}
		counts[verdict]++
		fmt.Printf("%-12s %-30s %14.6g %14.6g %9s %9g  %s\n", w.name, "failed_frac", fa, fb, "", failedFracBound, verdict)
	}
	fmt.Printf("%d ok, %d unresolved, %d regressed\n", counts[verdictOK], counts[verdictUnresolved], counts[verdictRegressed])
	if counts[verdictRegressed] > 0 {
		return 1
	}
	return 0
}
