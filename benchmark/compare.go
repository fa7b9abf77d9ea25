package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// runSet is the runs of one result file, grouped: workload -> metric ->
// one value per run.
type runSet struct {
	values     map[string]map[string][]float64
	gomaxprocs int
}

func allMetrics() []metricSpec {
	return append(append([]metricSpec(nil), endToEnd...), perLayer...)
}

// readRuns parses a result file: the concatenated standard output of
// any number of runs, each a header line followed by a result line.
func readRuns(path string) (*runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs := &runSet{values: make(map[string]map[string][]float64)}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	workload := ""
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var row struct {
			Header  *header                `json:"header"`
			Metrics map[string]metricValue `json:"metrics"`
		}
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		switch {
		case row.Header != nil:
			workload = row.Header.Workload
			rs.gomaxprocs = row.Header.Gomaxprocs
		case row.Metrics != nil:
			if workload == "" {
				return nil, fmt.Errorf("%s line %d: result without a header before it", path, line)
			}
			if rs.values[workload] == nil {
				rs.values[workload] = make(map[string][]float64)
			}
			for _, m := range allMetrics() {
				if mv, ok := row.Metrics[m.name]; ok {
					rs.values[workload][m.name] = append(rs.values[workload][m.name], mv.Value)
				}
			}
			workload = ""
		}
	}
	return rs, sc.Err()
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the driver's rule). It needs
// two values; ok is false with fewer or with a zero median.
func quartileSpread(values []float64) (spread float64, ok bool) {
	n := len(values)
	if n < 2 {
		return 0, false
	}
	x := sortedCopy(values)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	med := cut(2)
	if med == 0 {
		return 0, false
	}
	s := (cut(3) - cut(1)) / med
	if s < 0 {
		s = -s
	}
	return s, true
}

// verdict classifies one (workload, metric) pair of two sets of runs.
// worse is how far b's median is on the wrong side of a's, as a share of
// a's median (negative when b is better).
func verdict(m metricSpec, a, b []float64) (worse float64, label string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / math.Abs(ma)
		if m.better == "higher" {
			worse = -worse
		}
	}
	if m.bound == 0 {
		return worse, "no bound"
	}
	sa, okA := quartileSpread(a)
	sb, okB := quartileSpread(b)
	switch {
	case (okA && sa > m.bound) || (okB && sb > m.bound):
		return worse, fmt.Sprintf("unresolved (spread %.1f%% wider than bound)", 100*max(sa, sb))
	case worse > m.bound:
		return worse, "regressed"
	case !okA || !okB:
		return worse, "within bound (one run a side: spread unknown)"
	default:
		return worse, "within bound"
	}
}

// compareFiles prints, per workload and metric, both medians, how much
// worse the second set is, and the verdict against the metric's bound.
// It returns an error when any metric regressed.
func compareFiles(pathA, pathB string, w io.Writer) error {
	a, err := readRuns(pathA)
	if err != nil {
		return err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return err
	}
	regressed := 0
	for _, wl := range workloads {
		va, vb := a.values[wl.name], b.values[wl.name]
		if va == nil || vb == nil {
			continue
		}
		fmt.Fprintf(w, "%s\n", wl.name)
		for _, m := range allMetrics() {
			xa, xb := va[m.name], vb[m.name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			if (m.name == "parallel.speedup" || m.name == "cluster.sharded_speedup") && min(a.gomaxprocs, b.gomaxprocs) <= 1 {
				fmt.Fprintf(w, "  %-30s %14s %14s  withheld at GOMAXPROCS=1\n", m.name, "null", "null")
				continue
			}
			worse, label := verdict(m, xa, xb)
			if label == "regressed" {
				regressed++
			}
			fmt.Fprintf(w, "  %-30s %14.6g %14.6g %-8s %+7.2f%% worse (bound %4.1f%%, n=%d/%d)  %s\n",
				m.name, median(xa), median(xb), m.unit, 100*worse, 100*m.bound, len(xa), len(xb), label)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metrics regressed beyond their bound", regressed)
	}
	return nil
}
