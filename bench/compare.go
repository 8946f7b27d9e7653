package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"text/tabwriter"
)

// series is one metric of one workload over the runs of a result file.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	// Spread is the distance between the first and the third quartile as
	// a share of the median.
	Spread float64 `json:"spread"`
}

// workloadRuns is every run of one workload in a result file.
type workloadRuns struct {
	Attempted int               `json:"ops_attempted"`
	Failed    int               `json:"ops_failed"`
	StealPct  []float64         `json:"cpu_steal_pct"` // per run, the traced run last
	EndToEnd  map[string]series `json:"end_to_end"`
	PerLayer  map[string]series `json:"per_layer"`
}

// resultFile is what -all writes and -compare reads.
type resultFile struct {
	Host      host                     `json:"host"`
	Seed      int64                    `json:"seed"`
	Runs      int                      `json:"runs"`
	Workloads map[string]*workloadRuns `json:"workloads"`
}

func newSeries(unit string, values []float64) series {
	return series{Unit: unit, Values: values, Median: median(values), Spread: spread(values)}
}

// spread is the interquartile range over the median, with the quartiles of
// Python's statistics.quantiles(values, n=4), which is what the benchmark
// contract measures steadiness with. 0 for fewer than two values.
func spread(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	s := slices.Clone(values)
	slices.Sort(s)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		d := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return ratio(quartile(3)-quartile(1), median(s))
}

// runAll runs every workload in child processes, one workload per process:
// `runs` end-to-end runs with seeds seed, seed+1, ... and one traced run.
func runAll(out, scaleName string, seed int64, seconds, runs int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{Seed: seed, Runs: runs, Workloads: map[string]*workloadRuns{}}
	child := func(workload string, seed int64, trace int) (*result, error) {
		tmp := fmt.Sprintf("%s.%s.run", out, workload)
		cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
			"-trace", fmt.Sprint(trace), "-scale", scaleName, "-out", tmp)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s (seed %d, trace %d): %w", workload, seed, trace, err)
		}
		defer os.Remove(tmp)
		var res result
		b, err := os.ReadFile(tmp)
		if err != nil {
			return nil, err
		}
		if trace != 0 {
			if err := os.Rename(tmp+".trace.json", fmt.Sprintf("%s.%s.trace.json", out, workload)); err != nil {
				return nil, err
			}
		}
		return &res, json.Unmarshal(b, &res)
	}
	for _, w := range workloadSpecs {
		wr := &workloadRuns{EndToEnd: map[string]series{}, PerLayer: map[string]series{}}
		file.Workloads[w.Name] = wr
		values := map[string][]float64{}
		for r := range runs {
			res, err := child(w.Name, seed+int64(r), 0)
			if err != nil {
				return err
			}
			file.Host = res.Host
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			wr.StealPct = append(wr.StealPct, res.StealPct)
			for name, v := range res.Metrics {
				values[name] = append(values[name], v.Value)
			}
			fmt.Fprintf(os.Stderr, "bench: %s run %d/%d: %d operations, %d failed, %.1f%% of CPU stolen\n", w.Name, r+1, runs, res.Attempted, res.Failed, res.StealPct)
		}
		for _, s := range endToEndSpecs {
			wr.EndToEnd[s.Name] = newSeries(s.Unit, values[s.Name])
		}
		res, err := child(w.Name, seed, 1)
		if err != nil {
			return err
		}
		wr.Attempted += res.Attempted
		wr.Failed += res.Failed
		wr.StealPct = append(wr.StealPct, res.StealPct)
		for _, s := range perLayerSpecs {
			wr.PerLayer[s.Name] = newSeries(s.Unit, []float64{res.Metrics[s.Name].Value})
		}
		fmt.Fprintf(os.Stderr, "bench: %s traced: %d operations, %d failed, %.1f%% of CPU stolen\n", w.Name, res.Attempted, res.Failed, res.StealPct)
	}
	if err := writeJSONFile(out, file); err != nil {
		return err
	}
	for name, wr := range file.Workloads {
		if wr.Failed != 0 {
			return fmt.Errorf("%s: %d of %d operations failed", name, wr.Failed, wr.Attempted)
		}
	}
	return nil
}

func readResultFile(path string) (*resultFile, error) {
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

// compareFiles prints one row per workload and metric with both medians and
// their ratio (new over base), and judges the end-to-end metrics by their
// bounds: a metric is worse when the new median is worse than the base's by
// more than the bound, and unresolved when either side's spread is wider
// than the bound, for then the runs cannot tell. Per-layer metrics have no
// bound and get no verdict. It reports whether any metric is worse.
func compareFiles(w io.Writer, basePath, newPath string) (regressed bool, err error) {
	base, err := readResultFile(basePath)
	if err != nil {
		return false, err
	}
	next, err := readResultFile(newPath)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tbase (%s)\tnew (%s)\tnew/base\tspread base\tspread new\tbound\tverdict\n", basePath, newPath)
	for _, wl := range workloadSpecs {
		a, b := base.Workloads[wl.Name], next.Workloads[wl.Name]
		if a == nil || b == nil {
			return false, fmt.Errorf("workload %s is missing from a result file", wl.Name)
		}
		for _, s := range endToEndSpecs {
			x, y := a.EndToEnd[s.Name], b.EndToEnd[s.Name]
			worse := ratio(y.Median-x.Median, x.Median)
			if s.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case x.Spread > s.Bound || y.Spread > s.Bound:
				verdict = "unresolved"
			case worse > s.Bound:
				verdict = "WORSE"
				regressed = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%.3f\t%.3f\t%.3f\t%.2f\t%s\n",
				wl.Name, s.Name, s.Unit, x.Median, y.Median, ratio(y.Median, x.Median), x.Spread, y.Spread, s.Bound, verdict)
		}
		for _, s := range perLayerSpecs {
			x, y := a.PerLayer[s.Name], b.PerLayer[s.Name]
			if x.Median == 0 && y.Median == 0 {
				continue // the workload bypasses the layer
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%.3f\t\t\t\t\n", wl.Name, s.Name, s.Unit, x.Median, y.Median, ratio(y.Median, x.Median))
		}
		if b.Failed > 0 {
			fmt.Fprintf(tw, "%s\tops_failed\tcount\t%d\t%d\t\t\t\t\tWORSE\n", wl.Name, a.Failed, b.Failed)
			regressed = true
		}
	}
	return regressed, tw.Flush()
}
