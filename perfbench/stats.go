package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// Metric names and units follow the benchmark contract: a name starts
// with a letter or digit and has at most 64 letters, digits, '_', '.' or
// '-'; a unit has at most 16 letters, digits, '_', '/', '%', '.' or '-'.
var (
	metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE       = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// metricDef declares one reported metric.
type metricDef struct {
	Name, Unit string
}

// endToEnd lists the metrics printed with --trace 0, in output order.
// Every workload reports every one of them; what "op" and "latency" mean
// per workload is tabled in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"alloc_mb", "MB"},
	{"heap_mb", "MB"},
	{"sim_mcycles", "Mcycles"},
	{"p50_kcycles", "kcycles"},
	{"p99_kcycles", "kcycles"},
	{"ops_per_mcycle", "ops/Mcycle"},
}

// hostModules are the packages host CPU self time is attributed to.
var hostModules = []string{"hw", "mmu", "cpu", "isa", "core", "xen", "sev", "kv",
	"serve", "migrate", "telemetry", "crypto", "runtime", "other"}

// perLayer lists the metrics printed with --trace 1, in output order.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"fail_frac", "frac"},
		{"latency_samples", "count"},
		{"lifetimes", "count"},
		{"bench.fid_overhead_pct", "%"},
		{"bench.enc_overhead_pct", "%"},
		{"hw.boot_s", "s"},
		{"hw.cache_hit_ratio", "ratio"},
		{"hw.mem_mb", "MB"},
		{"hw.crypt_lines", "count"},
		{"mmu.pt_walks", "count"},
		{"mmu.tlb_hit_ratio", "ratio"},
		{"mmu.tlb_flushes", "count"},
		{"cpu.vmexits_per_op", "count/op"},
		{"core.gate1", "count"},
		{"core.gate3", "count"},
		{"core.shadows", "count"},
		{"xen.hypercalls", "count"},
		{"xen.evt_signals", "count"},
		{"xen.blk_requests", "count"},
		{"xen.blk_sectors", "count"},
		{"xen.write_seeks", "count"},
		{"xen.read_seeks", "count"},
		{"xen.seeks_per_mutation", "count/op"},
		{"xen.lock_waits", "count"},
		{"sev.commands", "count"},
		{"sev.launch_cmds", "count"},
		{"sev.send_cmds", "count"},
		{"sev.receive_cmds", "count"},
		{"sev.launch_s", "s"},
		{"kv.group_commits", "count"},
		{"kv.mutations_per_commit", "count"},
		{"kv.seq_writes", "count"},
		{"kv.compactions", "count"},
		{"kv.cache_hit_ratio", "ratio"},
		{"serve.holds_per_op", "count/op"},
		{"serve.batch_depth_mean", "count"},
		{"serve.admit_s", "s"},
		{"serve.run_s", "s"},
		{"serve.get_frac", "frac"},
		{"serve.put_frac", "frac"},
		{"serve.del_frac", "frac"},
		{"migrate.rounds", "count"},
		{"migrate.pages_sent", "count"},
		{"migrate.redirtied", "count"},
		{"migrate.retries", "count"},
		{"migrate.forced_final", "count"},
		{"migrate.send_s", "s"},
		{"migrate.link_wait_s", "s"},
		{"parallel.pool_jobs", "count"},
		{"go.gc_count", "count"},
		{"go.gc_cpu_frac", "frac"},
		{"go.goroutines_left", "count"},
		{"telemetry.trace_overhead", "ratio"},
		{"telemetry.events", "count"},
	}
	for _, m := range hostModules {
		defs = append(defs, metricDef{"host." + m + "_frac", "frac"})
	}
	return defs
}()

// quantile returns the nearest-rank q-quantile of samples: the smallest
// sample with at least a q share of all samples at or below it. It never
// interpolates, so the result is always an observed value and p99 can
// never exceed the maximum. samples must be non-empty.
func quantile(samples []float64, q float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the middle value of xs (the mean of the middle two for an
// even count), as Python's statistics.median gives it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// collect picks the declared metrics out of vals, in declaration order,
// and fails if any is missing, not finite, or badly named.
func collect(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		if !metricNameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			return nil, fmt.Errorf("metric %q unit %q violates the naming rules", d.Name, d.Unit)
		}
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}
