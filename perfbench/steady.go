package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness report reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// seededWorkloads draw their inputs from --seed; the others run the fixed
// paper workloads and ignore it.
var seededWorkloads = map[string]bool{"serve_jobs": true}

// heldOutSeed was never used while the benchmark was built and tuned.
const heldOutSeed = 7919

// readBenchmarkFile reads BENCHMARK.json from the checkout root.
func readBenchmarkFile() (benchmarkFile, error) {
	var def benchmarkFile
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return def, err
	}
	if err := json.Unmarshal(data, &def); err != nil {
		return def, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return def, nil
}

// steady runs each named workload repeatedly, on seeds 1..runs for
// BENCHMARK.json's run_seconds each, and prints each end-to-end metric's
// median, quartiles and spread against its bound. Seeded workloads get one
// more run on heldOutSeed.
func steady(args []string) error {
	fset := flag.NewFlagSet("steady", flag.ContinueOnError)
	runs := fset.Int("runs", 10, "runs per workload")
	if err := fset.Parse(args); err != nil {
		return err
	}
	def, err := readBenchmarkFile()
	if err != nil {
		return err
	}
	seconds := float64(def.RunSeconds)
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := fset.Args()
	if len(names) == 0 {
		for _, w := range workloadList {
			names = append(names, w.name)
		}
	}
	allSteady := true
	for _, name := range names {
		if _, err := findWorkload(name); err != nil {
			return err
		}
		values := map[string][]float64{}
		for seed := int64(1); seed <= int64(*runs); seed++ {
			out, err := runChild(self, name, seed, seconds)
			if err != nil {
				return err
			}
			fmt.Printf("%s seed %d: correct=%v attempted=%d failed=%d\n", name, seed, out.Correct, out.Attempted, out.Failed)
			if !out.Correct {
				allSteady = false
			}
			for k, m := range out.Metrics {
				values[k] = append(values[k], m.Value)
			}
		}
		fmt.Printf("\n%s: %d runs, %g s each\n", name, *runs, seconds)
		fmt.Printf("%-22s %12s %12s %12s %8s %7s  %s\n", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
		for _, m := range def.EndToEnd {
			q1, med, q3 := quartiles(values[m.Name])
			spread := (q3 - q1) / math.Abs(med)
			verdict := "steady (< bound/3)"
			switch {
			case math.IsNaN(spread) || spread > m.Bound:
				verdict = "UNSTEADY (> bound)"
				allSteady = false
			case spread > m.Bound/3:
				verdict = "within bound, above bound/3"
			}
			fmt.Printf("%-22s %12.6g %12.6g %12.6g %7.2f%% %6.0f%%  %s\n", m.Name, q1, med, q3, 100*spread, 100*m.Bound, verdict)
		}
		if seededWorkloads[name] {
			out, err := runChild(self, name, heldOutSeed, seconds)
			if err != nil {
				return err
			}
			fmt.Printf("held-out seed %d: correct=%v attempted=%d failed=%d\n", heldOutSeed, out.Correct, out.Attempted, out.Failed)
			for _, m := range def.EndToEnd {
				q1, _, q3 := quartiles(values[m.Name])
				v := out.Metrics[m.Name].Value
				fmt.Printf("  %-22s %12.6g (quartiles of the seeded runs %.6g .. %.6g)\n", m.Name, v, q1, q3)
			}
			if !out.Correct {
				allSteady = false
			}
		}
		fmt.Println()
	}
	if !allSteady {
		return fmt.Errorf("some runs failed or some spread exceeds its bound")
	}
	return nil
}

// runChild runs one untraced benchmark run in a child process and parses
// the last line of its output.
func runChild(self, name string, seed int64, seconds float64) (output, error) {
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return output{}, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		return output{}, fmt.Errorf("%s seed %d: parsing result: %w", name, seed, err)
	}
	return out, nil
}
