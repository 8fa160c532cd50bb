// Command perfbench is the repository benchmark. It runs one workload
// through the simulator's public entry points, prints every metric with
// its name and unit, checks the outputs, and ends with one JSON line:
//
//	perfbench --workload serve-put --seed 7 --seconds 25 --trace 0
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (and writes the benchmark's spans under --spans). Both run the same
// rounds: untraced rounds for host time, then one round with the
// program's tracer on. README.md maps metrics to layers and workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// untracedShare is the part of --seconds the untraced rounds get; the
// traced round and process start-up take the rest.
const untracedShare = 0.7

// minRounds is the fewest untraced rounds a run takes, so every host
// figure is a median of at least three samples.
const minRounds = 3

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", fmt.Sprintf("workload to run: %v", workloadNames))
	seed := fs.Int64("seed", 7, "workload seed; each lifetime's seed derives from it")
	seconds := fs.Int("seconds", 25, "host seconds to measure")
	trace := fs.Int("trace", 0, "0 prints end-to-end metrics, 1 per-layer metrics")
	spans := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced pass writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1 and --seconds at least 1")
		return 2
	}
	w, err := newWorkload(*name, *seed, full)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, err := measureRun(w, *seed, *seconds, *trace == 1, *spans, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: FAIL:", err)
		res.Correct = false
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(stderr, "perfbench:", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measureRun runs w and builds the result line. On error the returned result
// still counts what was attempted.
func measureRun(w *scenario, seed int64, seconds int, traced bool, spansDir string, out io.Writer) (result, error) {
	res := result{Attempted: 1, Metrics: map[string]metricValue{}}
	fmt.Fprintf(out, "workload   %s: %s\n", w.name, w.shape)
	fmt.Fprintf(out, "lifetimes  %d per round, seeds", w.lifetimes)
	for i := 0; i < w.lifetimes && i < 4; i++ {
		fmt.Fprintf(out, " %d", lifetimeSeed(seed, i))
	}
	if w.lifetimes > 4 {
		fmt.Fprint(out, " ...")
	}
	fmt.Fprintf(out, " (from --seed %d)\n", seed)
	fmt.Fprintf(out, "host       %s, GOMAXPROCS %d, NumCPU %d, %s/%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH)

	budget := time.Duration(untracedShare * float64(seconds) * float64(time.Second))
	s, rec, err := measure(w, seed, budget, minRounds, traced)
	if err != nil {
		return res, err
	}
	res.Attempted, res.Failed = 0, 0
	for _, r := range append(s.rounds, s.traced) {
		res.Attempted += uint64(r.model["attempted"])
		res.Failed += uint64(r.model["failed"])
	}
	fmt.Fprintf(out, "rounds     %d untraced + 1 traced; per round %d ops attempted, %d failed\n",
		len(s.rounds), uint64(s.traced.model["attempted"]), uint64(s.traced.model["failed"]))
	if m := s.traced.model; m["serve.gets"]+m["serve.puts"]+m["serve.dels"] > 0 {
		fmt.Fprintf(out, "op mix     %.0f gets, %.0f puts, %.0f deletes (achieved)\n",
			m["serve.gets"], m["serve.puts"], m["serve.dels"])
	}
	fmt.Fprintf(out, "latency    exact nearest-rank over %d samples\n", len(s.traced.lat))

	defs, vals := endToEnd, s.endToEndValues()
	if traced {
		defs, vals = perLayer, s.perLayerValues()
		file := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.json", w.name, seed))
		if err := rec.write(file); err != nil {
			return res, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(out, "spans      %s\n", file)
	}
	metrics, err := collect(defs, vals)
	if err != nil {
		return res, err
	}
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-28s %16.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	res.Metrics = metrics
	res.Correct = true
	return res, nil
}
