package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestMetricNamesFollowTheContract(t *testing.T) {
	for _, name := range []string{"setup_s", "p99_kcycles", "host.runtime_frac", "9lives", strings.Repeat("a", 64)} {
		if !metricNameRE.MatchString(name) {
			t.Errorf("%q should be a valid metric name", name)
		}
	}
	for _, name := range []string{"", "_x", ".x", "a b", "a/b", "a{b}", strings.Repeat("a", 65)} {
		if metricNameRE.MatchString(name) {
			t.Errorf("%q should be rejected", name)
		}
	}
	for _, unit := range []string{"s", "ms", "1/s", "%", "ops/Mcycle", "count"} {
		if !unitRE.MatchString(unit) {
			t.Errorf("%q should be a valid unit", unit)
		}
	}
	for _, unit := range []string{"", "a b", strings.Repeat("u", 17)} {
		if unitRE.MatchString(unit) {
			t.Errorf("unit %q should be rejected", unit)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !metricNameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q breaks the naming rules", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestBenchmarkJSONMatchesTheProgram keeps BENCHMARK.json and the
// metric tables here in step.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames)
	}
	same := func(kind string, json, prog []metricDef) {
		if len(json) != len(prog) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(json), len(prog))
			return
		}
		for i := range json {
			if json[i] != prog[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, json[i], prog[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

func TestQuantileIsNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // unsorted on purpose
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0.01, 1}, {0, 1}} {
		if got := quantile(hundred, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample p99 = %v", got)
	}
	if hundred[0] != 100 {
		t.Error("quantile reordered its input")
	}
}

func TestQuantileNeverExceedsTheMaximum(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		s := make([]float64, 1+rng.Intn(300))
		maxV := math.Inf(-1)
		for i := range s {
			s[i] = math.Exp(rng.NormFloat64() * 3) // heavy tail
			maxV = math.Max(maxV, s[i])
		}
		p50, p99 := quantile(s, 0.5), quantile(s, 0.99)
		if p99 > maxV || p50 > p99 {
			t.Fatalf("n=%d: p50 %v p99 %v max %v", len(s), p50, p99, maxV)
		}
		found := false
		for _, v := range s {
			found = found || v == p99
		}
		if !found {
			t.Fatalf("p99 %v is not an observed sample", p99)
		}
	}
}

func TestMedianMatchesPython(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestRunStatsAggregation(t *testing.T) {
	// Two lifetimes per round. A burst slows lifetime 0 in round 1 and
	// lifetime 1 in round 2: per-occurrence medians drop both, where the
	// median of round totals could not.
	k0, k1 := spanKey{0, 0}, spanKey{1, 0}
	round := func(boot0, boot1, work0, work1, platform float64) *roundOut {
		return &roundOut{spans: map[string]map[spanKey]float64{
			"boot":        {k0: boot0, k1: boot1},
			"work":        {k0: work0, k1: work1},
			"NewPlatform": {k0: platform, k1: platform},
			"LaunchVM":    {k0: 0.125},
		}, host: map[string]float64{"alloc_mb": boot0}}
	}
	s := &runStats{
		rounds: []*roundOut{
			round(1, 1, 10, 10, 0.25),
			round(9, 1, 90, 10, 0.25),
			round(1, 9, 10, 90, 0.5),
		},
		traced: &roundOut{
			model: map[string]float64{"sim_cycles": 4e6, "ops": 8, "failed": 1, "attempted": 8},
			host:  map[string]float64{"work": 30},
			lat:   []float64{1000, 2000, 3000, 4000, 5000, 6000, 7000, 80000},
		},
	}
	e := s.endToEndValues()
	for k, want := range map[string]float64{"setup_s": 2, "wall_s": 20, "alloc_mb": 1, "sim_mcycles": 4,
		"p50_kcycles": 4, "p99_kcycles": 80, "ops_per_mcycle": 2} {
		if e[k] != want {
			t.Errorf("%s = %v, want %v", k, e[k], want)
		}
	}
	p := s.perLayerValues()
	for k, want := range map[string]float64{"fail_frac": 0.125, "telemetry.trace_overhead": 1.5,
		"hw.boot_s": 0.5, "sev.launch_s": 0.125, "latency_samples": 8} {
		if p[k] != want {
			t.Errorf("%s = %v, want %v", k, p[k], want)
		}
	}
	if _, err := collect(perLayer, p); err != nil {
		t.Error(err)
	}
}

func TestCollectRejectsMissingOrNonFiniteValues(t *testing.T) {
	defs := []metricDef{{"a", "s"}}
	if _, err := collect(defs, map[string]float64{}); err == nil {
		t.Error("missing metric accepted")
	}
	if _, err := collect(defs, map[string]float64{"a": math.NaN()}); err == nil {
		t.Error("NaN accepted")
	}
}

func TestSameModelFlagsAnyDifference(t *testing.T) {
	a := map[string]float64{"sim_cycles": 1, "xen.lock_waits": 3, "xen.lock_waits{lock=domain}": 2, "xen.lock_waits{lock=gate}": 1}
	if err := sameModel(a, map[string]float64{"sim_cycles": 1, "xen.lock_waits": 9, "xen.lock_waits{lock=domain}": 9}); err != nil {
		t.Errorf("lock contention must not count: %v", err)
	}
	if err := sameModel(a, map[string]float64{"sim_cycles": 2}); err == nil {
		t.Error("a changed modelled figure passed")
	}
	if err := sameModel(a, map[string]float64{"sim_cycles": 1, "extra": 1}); err == nil {
		t.Error("an extra modelled figure passed")
	}
}

func TestLifetimeSeedsAreStableAndDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(0); seed < 20; seed++ {
		for i := 0; i < 40; i++ {
			s := lifetimeSeed(seed, i)
			if s <= 0 || seen[s] || s != lifetimeSeed(seed, i) {
				t.Fatalf("lifetimeSeed(%d, %d) = %d", seed, i, s)
			}
			seen[s] = true
		}
	}
}

func TestCheckWorkingSet(t *testing.T) {
	set := func(h int, sweeps ...int) []uint64 {
		v := make([]uint64, len(sweeps))
		for w, s := range sweeps {
			v[w] = migTag(h, s, w)
		}
		return v
	}
	if err := checkWorkingSet(3, set(3, 5, 5, 4, 4)); err != nil {
		t.Errorf("a sweep frozen midway must pass: %v", err)
	}
	bad := map[string][]uint64{
		"stale hop":      set(2, 5, 5, 5),
		"sweep rises":    set(3, 4, 5, 5),
		"two sweeps":     set(3, 6, 5, 4),
		"page swapped":   {migTag(3, 1, 1), migTag(3, 1, 0)},
		"torn page data": {migTag(3, 1, 0) ^ 1<<60, migTag(3, 1, 1)},
	}
	for name, vals := range bad {
		if err := checkWorkingSet(3, vals); err == nil {
			t.Errorf("%s passed", name)
		}
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"fidelius/internal/hw.(*Controller).Read":           "hw",
		"fidelius/internal/xen.(*Xen).runQuantum.func1":     "xen",
		"fidelius/internal/lockrank.(*Mutex).Lock":          "other",
		"crypto/internal/fips140/aes.encryptBlockGeneric":   "crypto",
		"vendor/golang.org/x/crypto/chacha20.(*Cipher).XOR": "crypto",
		"runtime.mallocgc":                        "runtime",
		"internal/runtime/maps.(*Map).getWithKey": "runtime",
		"sync.(*Mutex).Lock":                      "other",
		"main.run":                                "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

//go:noinline
func spin(d time.Duration) (n int) {
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

func TestLeafTimesDecodesARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	leaf, err := leafTimes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for fn, ns := range leaf {
		if ns < 0 || fn == "" {
			t.Errorf("bad entry %q %v", fn, ns)
		}
		total += ns
	}
	if total < 50e6 {
		t.Errorf("profile holds %v ns of CPU for a 300 ms spin", total)
	}
	if _, err := leafTimes([]byte("not gzip")); err == nil {
		t.Error("garbage decoded")
	}
}

// runTiny runs one workload at test size through the command's measuring
// path and returns its result line.
func runTiny(t *testing.T, name string, trace string) result {
	t.Helper()
	w, err := newWorkload(name, 3, tiny)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	res, err := measureRun(w, 3, 1, trace == "1", t.TempDir(), &out)
	if err != nil {
		t.Fatalf("%s --trace %s: %v\n%s", name, trace, err, out.String())
	}
	return res
}

func TestTinyRunOfEveryWorkloadPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames {
		for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
			res := runTiny(t, name, trace)
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s --trace %s: correct %v attempted %d failed %d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s --trace %s: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s --trace %s: metric %s = %+v, want unit %s", name, trace, d.Name, m, d.Unit)
				}
			}
			if trace == "0" {
				for _, k := range []string{"setup_s", "wall_s", "sim_mcycles", "p99_kcycles"} {
					if res.Metrics[k].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", name, k, res.Metrics[k].Value)
					}
				}
			}
		}
	}
}

func TestInjectedFaultsFailTheChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("boots platforms")
	}
	tampered := serveWorkload("serve-put", serveShape{tenants: 2, clients: 2, ops: 2, rate: 1, put: 0.5,
		del: 0.1, keySpace: 2, lifetimes: 1, tamper: []int{1}}, 1<<16)
	if _, _, err := measure(tampered, 1, 0, 1, false); err == nil || !strings.Contains(err.Error(), "admission refused") {
		t.Errorf("a refused tenant passed: %v", err)
	}
	leaky := migrateWorkload(migShape{pages: 128, wset: 4, static: 1, hops: 1, lifetimes: 1, leakFrame: true})
	if _, _, err := measure(leaky, 1, 0, 1, false); err == nil || !strings.Contains(err.Error(), "still held after teardown") {
		t.Errorf("a leaked frame passed: %v", err)
	}
	if err := checkServe(serveCheck{mismatches: 1, attempted: 4, completed: 4, byKind: 4, histCount: 4}); err == nil {
		t.Error("a mismatched response passed")
	}
	if err := checkServe(serveCheck{attempted: 4, completed: 3, byKind: 3, histCount: 3}); err == nil {
		t.Error("an op that never completed passed")
	}
}
