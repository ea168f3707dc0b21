package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// manifest is the part of BENCHMARK.json the A/A mode reads.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadManifest(root string) (manifest, error) {
	var m manifest
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return m, err
	}
	err = json.Unmarshal(data, &m)
	return m, err
}

// compareSets is the A/A mode: the same code measured in several sets
// of runs (run i of every set uses seed+i), judged by the acceptance
// rule — within a set, the interquartile spread of each metric's run
// values as a share of their median must stay inside the metric's
// bound (setup_s excepted), and no later set's median may be worse than
// the first's by more than the bound. It returns the exit code.
func (e *env) compareSets(names []string, seed int64, sets, runs int, o options) int {
	man, err := loadManifest(e.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	printHeader(e, seed)
	code := 0
	for _, name := range names {
		values := make([]map[string][]float64, sets)
		for s := range values {
			values[s] = map[string][]float64{}
			for r := 0; r < runs; r++ {
				res, err := e.run(name, seed+int64(r), o, false, "")
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
					return 1
				}
				if res.tally.failed > 0 {
					for _, why := range res.tally.reasons {
						fmt.Fprintln(os.Stderr, "benchmark: FAILED:", why)
					}
					return 1
				}
				for _, d := range endToEnd {
					if v, ok := res.value(d.Name); ok {
						values[s][d.Name] = append(values[s][d.Name], v)
					}
				}
			}
		}
		fmt.Printf("# workload %s: %d sets of %d runs\n", name, sets, runs)
		fmt.Printf("%-14s %5s %13s %9s %13s %9s %9s %7s\n", "metric", "set", "median", "spread", "first median", "worse by", "bound", "")
		for _, d := range man.EndToEnd {
			first := median(values[0][d.Name])
			for s := range values {
				v := values[s][d.Name]
				med, spr := median(v), spread(v)
				worse := (med - first) / first
				if d.Better == "higher" {
					worse = -worse
				}
				verdict := "ok"
				if (spr > d.Bound && d.Name != "setup_s") || worse > d.Bound {
					verdict = "EXCEEDS"
					code = 1
				}
				fmt.Printf("%-14s %5d %13.6g %8.2f%% %13.6g %8.2f%% %8.2f%% %7s\n",
					d.Name, s+1, med, spr*100, first, worse*100, d.Bound*100, verdict)
			}
		}
	}
	return code
}
