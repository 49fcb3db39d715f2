package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// manifest is BENCHMARK.json: the declared workloads and metrics,
// with each end-to-end metric's direction and regression bound.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

func loadResults(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// spread is a metric's interquartile distance as a share of its
// median.
func (m metric) spread() float64 { return ratio(m.Q3-m.Q1, m.Value) }

// verdict judges b against a (the base) for a metric with the given
// direction and bound: unresolved when either side's own spread
// exceeds the bound, else better or worse when the medians differ by
// more than the bound, else unchanged.
func verdict(a, b metric, d declared) string {
	if a.Refused || b.Refused || a.Value == 0 {
		return "unresolved"
	}
	if max(a.spread(), b.spread()) > d.Bound {
		return "unresolved"
	}
	gain := (b.Value - a.Value) / a.Value
	if d.Better == "lower" {
		gain = -gain
	}
	switch {
	case gain > d.Bound:
		return "better"
	case gain < -d.Bound:
		return "worse"
	}
	return "unchanged"
}

// compareResults prints one row per (metric, workload) present in
// both files and returns how many end-to-end rows are not
// "unchanged". Per-layer metrics carry no bound and get no verdict.
func compareResults(out io.Writer, mf *manifest, a, b resultFile) (moved int) {
	bounds := make(map[string]declared)
	for _, d := range mf.EndToEnd {
		bounds[d.Name] = d
	}
	find := func(f resultFile, workload string, traced bool) *workloadResult {
		for i := range f.Results {
			if r := &f.Results[i]; r.Workload == workload && r.Traced == traced {
				return r
			}
		}
		return nil
	}
	fmt.Fprintf(out, "\n%-14s %-30s %14s %-26s %14s %-26s %-22s %s\n",
		"workload", "metric", "a", "[q1, q3]", "b", "[q1, q3]", "b/a (base a)", "verdict (bound)")
	for _, ra := range a.Results {
		rb := find(b, ra.Workload, ra.Traced)
		if rb == nil {
			continue
		}
		for _, ma := range ra.Metrics {
			for _, mb := range rb.Metrics {
				if mb.Name != ma.Name {
					continue
				}
				v := "-"
				if d, ok := bounds[ma.Name]; ok {
					v = verdict(ma, mb, d)
					if v != "unchanged" {
						moved++
					}
					v = fmt.Sprintf("%s (%.2f, %s is better)", v, d.Bound, d.Better)
				}
				fmt.Fprintf(out, "%-14s %-30s %14.4f %-26s %14.4f %-26s %-22s %s\n", ra.Workload, ma.Name,
					ma.Value, fmt.Sprintf("[%.4g, %.4g]", ma.Q1, ma.Q3), mb.Value, fmt.Sprintf("[%.4g, %.4g]", mb.Q1, mb.Q3),
					fmt.Sprintf("%.3f (a=%.4g %s)", ratio(mb.Value, ma.Value), ma.Value, ma.Unit), v)
			}
		}
	}
	return moved
}
