package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json --compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readHistory groups a history file's untraced, correct runs into
// workload -> metric -> values.
func readHistory(path string) (map[string]map[string][]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[string][]float64)
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var line historyLine
		if err := dec.Decode(&line); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if line.Trace || !line.Correct {
			continue
		}
		if out[line.Workload] == nil {
			out[line.Workload] = make(map[string][]float64)
		}
		for name, v := range line.Metrics {
			out[line.Workload][name] = append(out[line.Workload][name], v)
		}
	}
	return out, nil
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (its default, exclusive
// method), which is how the benchmark's steadiness is judged.
func quartileSpread(values []float64) float64 {
	s := sortedCopy(values)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based rank
		lo := min(max(int(math.Floor(pos)), 1), n-1)
		return s[lo-1] + (pos-math.Floor(pos))*(s[lo]-s[lo-1])
	}
	return ratio(q(3)-q(1), median(s))
}

// compareFiles prints, per workload and end-to-end metric, both files'
// medians and spreads, the relative change from a to b, and whether it
// stays within the bound BENCHMARK.json fixes. It returns 1 when any
// metric got worse by more than its bound or spreads beyond it.
func compareFiles(aPath, bPath, benchPath string) int {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", benchPath+":", err)
		return 2
	}
	a, errA := readHistory(aPath)
	b, errB := readHistory(bPath)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	names := make([]string, 0, len(a))
	for w := range a {
		names = append(names, w)
	}
	sort.Strings(names)
	status := 0
	fmt.Printf("%-15s %-10s %14s %14s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median a", "median b", "change", "spread a", "spread b", "bound", "verdict")
	for _, w := range names {
		for _, m := range bf.EndToEnd {
			va, vb := a[w][m.Name], b[w][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := ratio(mb-ma, ma) // positive = worse, for "lower is better"
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := quartileSpread(va), quartileSpread(vb)
			verdict := "pass"
			switch {
			case worse > m.Bound:
				verdict = "FAIL: worse by more than the bound"
				status = 1
			case m.Name != "setup_s" && max(sa, sb) > m.Bound:
				verdict = "FAIL: spread above the bound"
				status = 1
			}
			fmt.Printf("%-15s %-10s %14.4f %14.4f %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s (n=%d,%d)\n",
				w, m.Name, ma, mb, 100*ratio(mb-ma, ma), 100*sa, 100*sb, 100*m.Bound, verdict, len(va), len(vb))
		}
	}
	return status
}
