package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// benchFile is the part of BENCHMARK.json the steadiness command reads.
type benchFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadyMain runs one workload several times with different seeds and
// reports each metric's median and quartiles. With --other it alternates
// with a second build of the benchmark (say, the parent commit's),
// changing which side runs first every seed, and compares medians. It
// flags an end-to-end metric whose spread exceeds its bound, or whose
// median on the other build is worse by more than the bound, and exits
// 1 when it flags anything.
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("steady", flag.ExitOnError)
	workload := fs.String("workload", "", "workload to run")
	runs := fs.Int("runs", 10, "runs per build, one seed each")
	seed0 := fs.Uint64("seed", 1, "first seed")
	seconds := fs.Int("seconds", 0, "measured seconds per run (0 = run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 = report the per-layer metrics instead")
	other := fs.String("other", "", "second benchmark binary to alternate with")
	benchPath := fs.String("bench", "BENCHMARK.json", "BENCHMARK.json with the bounds")
	fs.Parse(args)

	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "steady: %v\n", err)
		return 2
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintf(os.Stderr, "steady: %s: %v\n", *benchPath, err)
		return 2
	}
	if *seconds == 0 {
		*seconds = bf.RunSeconds
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "steady: %v\n", err)
		return 2
	}
	bins := []string{self}
	if *other != "" {
		bins = append(bins, *other)
	}
	samples := make([]map[string][]float64, len(bins))
	shares := make([][]float64, len(bins))
	for i := range samples {
		samples[i] = make(map[string][]float64)
	}
	for r := 0; r < *runs; r++ {
		seed := *seed0 + uint64(r)
		for k := range bins {
			b := (k + r) % len(bins) // alternate which build goes first
			res, err := runOnce(bins[b], *workload, seed, *seconds, *trace)
			if err != nil {
				fmt.Fprintf(os.Stderr, "steady: build %d seed %d: %v\n", b, seed, err)
				return 1
			}
			for name, m := range res.Metrics {
				samples[b][name] = append(samples[b][name], m.Value)
			}
			shares[b] = append(shares[b], float64(res.Failed)/float64(res.Attempted))
			var line []string
			for _, name := range sortedKeys(res.Metrics) {
				line = append(line, fmt.Sprintf("%s=%.4g", name, res.Metrics[name].Value))
			}
			fmt.Fprintf(os.Stderr, "steady: build %d seed %d correct=%v failed=%d/%d %s\n",
				b, seed, res.Correct, res.Failed, res.Attempted, strings.Join(line, " "))
		}
	}

	bounds := map[string]float64{}
	better := map[string]string{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name], better[m.Name] = m.Bound, m.Better
	}
	flagged := false
	names := sortedKeys(samples[0])
	fmt.Printf("%-26s %14s %14s %14s %9s %7s\n", "metric", "median", "q1", "q3", "iqr/med", "bound")
	for b := range bins {
		fmt.Printf("build %d: %s (failed share per run: %v)\n", b, bins[b], shares[b])
		for _, name := range names {
			xs := samples[b][name]
			q1, q3 := quartiles(xs)
			spread := relIQR(xs)
			note := ""
			bound, bounded := bounds[name]
			if bounded && spread > bound {
				note, flagged = "SPREAD ABOVE BOUND", true
			}
			if bounded && b > 0 {
				if worse := relWorse(median(samples[0][name]), median(xs), better[name]); worse > bound {
					note, flagged = fmt.Sprintf("WORSE BY %.1f%%", 100*worse), true
				}
			}
			boundText := "-"
			if bounded {
				boundText = fmt.Sprintf("%.3f", bound)
			}
			fmt.Printf("%-26s %14.4f %14.4f %14.4f %9.4f %7s %s\n", name, median(xs), q1, q3, spread, boundText, note)
		}
	}
	if len(bins) > 1 && fmt.Sprint(shareSet(shares[0])) != fmt.Sprint(shareSet(shares[1])) {
		fmt.Println("FAILED-OPERATION SHARE DIFFERS between the builds")
		flagged = true
	}
	if flagged {
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// relWorse is how much worse b is than a, as a share of a.
func relWorse(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func shareSet(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// runOnce runs one benchmark process and parses its last output line.
func runOnce(bin, workload string, seed uint64, seconds, trace int) (*result, error) {
	cmd := exec.Command(bin, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", bin, err)
	}
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("parsing result line %q: %w", last, err)
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("result line attempted %d", res.Attempted)
	}
	return &res, nil
}
