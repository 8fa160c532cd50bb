package main

import (
	"fmt"
	"maps"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"fidelius"
)

// scenario is one benchmark workload. A run repeats rounds; a round runs
// the workload's lifetimes in order, each booting its own platforms,
// working, and tearing down. Every round repeats the same lifetimes with
// the same seeds, so its modelled figures must repeat bit for bit and
// its host times are samples of one quantity.
type scenario struct {
	name string
	// shape describes the input that runs, for the output header.
	shape string
	// lifetimes is how many lifetimes make one round.
	lifetimes int
	// traceCap is the event ring the traced round gives each platform;
	// a run whose tracer drops an event fails.
	traceCap int
	// run executes lifetime i of a round.
	run func(l *life, i int) error
	// finish derives round-level figures from the round's lifetimes and
	// checks them; nil when there are none.
	finish func(lives []*life) (map[string]float64, error)
}

// life is one lifetime's measuring context and what it produced.
type life struct {
	rec    *recorder
	round  int
	id     int
	seed   int64
	traced bool
	phase  int // open phase span, 0 outside one
	heapMB float64
	wait   atomic.Int64 // host ns blocked on migration channels
	events uint64       // events the program's tracer kept

	// Modelled results; deterministic for a given seed.
	simCycles uint64
	attempted uint64
	failed    uint64
	ops       uint64
	// lat holds exact per-op modelled latencies in cycles, when the
	// lifetime can observe them; latCount and latSum are the program's
	// own account of the same population.
	lat              []float64
	latCount, latSum uint64
	// counts are per-layer counters and workload figures summed over
	// the lifetime's platforms.
	counts map[string]float64
}

// boot runs a lifetime's set-up phase and books the live heap it added:
// the heap after a collection at its end, less the heap it started from.
func (l *life) boot(fn func() error) error {
	before, err := l.phaseRun("boot", fn)
	runtime.GC()
	l.heapMB = float64(int64(liveHeap())-int64(before)) / 1e6
	return err
}

// work runs a lifetime's measured phase.
func (l *life) work(fn func() error) error {
	_, err := l.phaseRun("work", fn)
	return err
}

// phaseRun times fn as a phase. The heap is collected before the clock
// starts, so no phase pays for another's garbage; the live heap at that
// point is returned with fn's error.
func (l *life) phaseRun(name string, fn func() error) (uint64, error) {
	runtime.GC()
	heap := liveHeap()
	l.phase = l.rec.begin(name, 0, l.round, l.id)
	err := fn()
	l.rec.end(l.phase)
	l.phase = 0
	return heap, err
}

// liveHeap reads the heap in use; after a collection, the live heap.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// call records a span around one call into the program.
func (l *life) call(name string, fn func() error) error {
	id := l.rec.begin(name, l.phase, l.round, l.id)
	defer l.rec.end(id)
	return fn()
}

// add accumulates per-layer counts.
func (l *life) add(vals map[string]float64) {
	if l.counts == nil {
		l.counts = make(map[string]float64)
	}
	for k, v := range vals {
		l.counts[k] += v
	}
}

// trace attaches the program's event tracer to p in the traced round.
func (l *life) trace(p *fidelius.Platform, capacity int) {
	if l.traced {
		p.StartTrace(capacity)
	}
}

// traceDrops fails the lifetime if p's tracer lost an event, and counts
// the events it kept.
func (l *life) traceDrops(p *fidelius.Platform) error {
	tr := p.Telemetry().Trace()
	if tr == nil {
		return nil
	}
	if d := tr.Dropped(); d > 0 {
		return fmt.Errorf("tracer dropped %d of %d events; raise the workload's trace capacity", d, tr.Total())
	}
	l.events += tr.Total()
	return nil
}

// lifetimeSeed derives lifetime i's seed from the workload seed
// (splitmix64), kept positive and non-zero for the program's configs.
func lifetimeSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>2) | 1
}

// roundOut is one round's account.
type roundOut struct {
	lives []*life
	// model holds every modelled figure of the round; it must repeat
	// exactly across rounds.
	model map[string]float64
	// spans holds the host seconds of each phase and call.
	spans map[string]map[spanKey]float64
	// host holds the round's other host-side figures: allocation, heap,
	// channel waits and garbage-collector figures.
	host map[string]float64
	lat  []float64
}

// nondeterministic reports whether a modelled figure depends on host
// scheduling, which the repeat check must skip: the lock contention
// counts, both the labelled xen.lock_waits{lock=...} keys and their
// family total.
func nondeterministic(k string) bool {
	return strings.HasPrefix(k, "xen.lock_waits")
}

// runRound runs every lifetime of w once.
func runRound(w *scenario, rec *recorder, seed int64, round int, traced bool) (*roundOut, error) {
	gc0 := readGC()
	g0 := runtime.NumGoroutine()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	r := &roundOut{model: make(map[string]float64)}
	for i := 0; i < w.lifetimes; i++ {
		l := &life{rec: rec, round: round, id: i, seed: lifetimeSeed(seed, i), traced: traced}
		if err := w.run(l, i); err != nil {
			return nil, fmt.Errorf("%s round %d lifetime %d (seed %d): %w", w.name, round, i, l.seed, err)
		}
		r.lives = append(r.lives, l)
	}
	runtime.ReadMemStats(&ms1)
	gc1 := readGC()
	leaked := runtime.NumGoroutine() - g0

	var latCount, latSum, simCycles, ops, attempted, failed uint64
	var wait int64
	var events uint64
	for _, l := range r.lives {
		events += l.events
		simCycles += l.simCycles
		ops += l.ops
		attempted += l.attempted
		failed += l.failed
		latCount += l.latCount
		latSum += l.latSum
		r.lat = append(r.lat, l.lat...)
		wait += l.wait.Load()
		for k, v := range l.counts {
			r.model[k] += v
		}
	}
	if r.lat != nil {
		var sum float64
		for _, v := range r.lat {
			sum += v
		}
		if uint64(len(r.lat)) != latCount || uint64(sum) != latSum {
			return nil, fmt.Errorf("%s round %d: exact latencies (%d, sum %.0f) disagree with the program's account (%d, sum %d)",
				w.name, round, len(r.lat), sum, latCount, latSum)
		}
	}
	if latCount != ops {
		return nil, fmt.Errorf("%s round %d: %d latencies for %d completed ops", w.name, round, latCount, ops)
	}
	maps.Copy(r.model, map[string]float64{
		"sim_cycles": float64(simCycles), "ops": float64(ops), "attempted": float64(attempted),
		"failed": float64(failed), "latency_count": float64(latCount), "latency_sum": float64(latSum),
	})
	if w.finish != nil {
		extra, err := w.finish(r.lives)
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", w.name, round, err)
		}
		maps.Copy(r.model, extra)
	}

	r.spans = rec.seconds(round)
	r.host = map[string]float64{
		"work":            sumSpans(r.spans["work"]),
		"alloc_mb":        float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6,
		"heap_mb":         meanBootHeap(r.lives),
		"link_wait_s":     float64(wait) / 1e9,
		"trace_events":    float64(events),
		"gc_count":        float64(ms1.NumGC - ms0.NumGC),
		"gc_cpu_frac":     ratio(gc1.gc-gc0.gc, gc1.total-gc0.total),
		"goroutines_left": float64(leaked),
	}
	return r, nil
}

// meanBootHeap is the live heap a lifetime's boot adds, averaged over the
// round's lifetimes. Every lifetime counts, so the figure does not hang on
// which one the seed happens to run last.
func meanBootHeap(lives []*life) float64 {
	var sum float64
	for _, l := range lives {
		sum += l.heapMB
	}
	return sum / float64(len(lives))
}

// sameModel reports the first modelled figure on which two rounds differ.
func sameModel(a, b map[string]float64) error {
	keys := make(map[string]bool)
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	var names []string
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if nondeterministic(k) {
			continue
		}
		if a[k] != b[k] {
			return fmt.Errorf("modelled figure %s differs between rounds: %v vs %v", k, a[k], b[k])
		}
	}
	return nil
}

// gcCPU is the runtime's cumulative GC and total CPU seconds.
type gcCPU struct{ gc, total float64 }

func readGC() gcCPU {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var out gcCPU
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.total = s[1].Value.Float64()
	}
	return out
}

// runStats is a whole run: the timed untraced rounds and the traced one.
type runStats struct {
	rounds []*roundOut
	traced *roundOut
	// profile is the host CPU self-time share per module over the
	// untraced rounds; nil when no profile was taken.
	profile map[string]float64
}

// hostMedian is the median over the untraced rounds of the round-level
// host figure k.
func (s *runStats) hostMedian(k string) float64 {
	var xs []float64
	for _, r := range s.rounds {
		xs = append(xs, r.host[k])
	}
	return median(xs)
}

// spanSeconds estimates one round's host seconds in the named spans: for
// each span occurrence, the median of its duration over the untraced
// rounds, summed. A burst of host interference slows a few occurrences
// in a few rounds; the per-occurrence median drops those samples, where
// a median of round totals would keep any round a burst touched.
func (s *runStats) spanSeconds(names ...string) float64 {
	var total float64
	for _, name := range names {
		keys := make(map[spanKey]bool)
		for _, r := range s.rounds {
			for k := range r.spans[name] {
				keys[k] = true
			}
		}
		for k := range keys {
			var xs []float64
			for _, r := range s.rounds {
				xs = append(xs, r.spans[name][k])
			}
			total += median(xs)
		}
	}
	return total
}

// sumSpans totals one round's spans of one name.
func sumSpans(m map[spanKey]float64) float64 {
	var t float64
	for _, v := range m {
		t += v
	}
	return t
}

// measure runs untraced rounds until budget has passed (at least
// minRounds), then one traced round, and checks that every round
// modelled exactly the same thing.
func measure(w *scenario, seed int64, budget time.Duration, minRounds int, profile bool) (*runStats, *recorder, error) {
	rec := newRecorder()
	s := &runStats{}
	var prof *cpuProfile
	if profile {
		var err error
		if prof, err = startCPUProfile(); err != nil {
			return nil, nil, err
		}
	}
	start := time.Now()
	for round := 0; round < minRounds || time.Since(start) < budget; round++ {
		r, err := runRound(w, rec, seed, round, false)
		if err != nil {
			if prof != nil {
				prof.stop()
			}
			return nil, nil, err
		}
		s.rounds = append(s.rounds, r)
	}
	if prof != nil {
		var err error
		if s.profile, err = prof.stop(); err != nil {
			return nil, nil, err
		}
	}
	traced, err := runRound(w, rec, seed, len(s.rounds), true)
	if err != nil {
		return nil, nil, err
	}
	s.traced = traced
	for _, r := range append(s.rounds[1:], traced) {
		if err := sameModel(s.rounds[0].model, r.model); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return s, rec, nil
}

// endToEndValues derives the --trace 0 metrics.
func (s *runStats) endToEndValues() map[string]float64 {
	m := s.traced.model
	sim := m["sim_cycles"]
	return map[string]float64{
		"setup_s":        s.spanSeconds("boot"),
		"wall_s":         s.spanSeconds("work"),
		"alloc_mb":       s.hostMedian("alloc_mb"),
		"heap_mb":        s.hostMedian("heap_mb"),
		"sim_mcycles":    sim / 1e6,
		"p50_kcycles":    quantile(s.traced.lat, 0.50) / 1e3,
		"p99_kcycles":    quantile(s.traced.lat, 0.99) / 1e3,
		"ops_per_mcycle": ratio(m["ops"], sim/1e6),
	}
}

// perLayerValues derives the --trace 1 metrics: counts from the traced
// round's snapshots, host times from the untraced rounds.
func (s *runStats) perLayerValues() map[string]float64 {
	m := s.traced.model
	c := func(k string) float64 { return m[k] }
	mutations := c("serve.puts") + c("serve.dels")
	v := map[string]float64{
		"fail_frac":                ratio(c("failed"), c("attempted")),
		"latency_samples":          float64(len(s.traced.lat)),
		"lifetimes":                float64(len(s.traced.lives)),
		"bench.fid_overhead_pct":   c("bench.fid_overhead_pct"),
		"bench.enc_overhead_pct":   c("bench.enc_overhead_pct"),
		"hw.boot_s":                s.spanSeconds("NewPlatform", "bench.NewPlatform"),
		"hw.cache_hit_ratio":       ratio(c("cache.hits"), c("cache.hits")+c("cache.misses")),
		"hw.mem_mb":                c("hw.mem_bytes") / 1e6,
		"hw.crypt_lines":           c("mem.enc_lines") + c("mem.dec_lines"),
		"mmu.pt_walks":             c("mmu.pt_walks"),
		"mmu.tlb_hit_ratio":        ratio(c("tlb.hits"), c("tlb.hits")+c("tlb.misses")),
		"mmu.tlb_flushes":          c("tlb.full_flushes") + c("tlb.entry_flushes") + c("tlb.asid_flushes"),
		"cpu.vmexits_per_op":       ratio(c("cpu.vmexits"), c("ops")),
		"core.gate1":               c("gate.type1"),
		"core.gate3":               c("gate.type3"),
		"core.shadows":             c("vmcb.shadows"),
		"xen.hypercalls":           c("xen.hypercalls"),
		"xen.evt_signals":          c("evt.signals"),
		"xen.blk_requests":         c("blk.requests"),
		"xen.blk_sectors":          c("blk.sectors"),
		"xen.write_seeks":          c("xen.disk_seeks{kind=write}"),
		"xen.read_seeks":           c("xen.disk_seeks{kind=read}"),
		"xen.seeks_per_mutation":   ratio(c("xen.disk_seeks{kind=write}"), mutations),
		"xen.lock_waits":           c("xen.lock_waits"),
		"sev.commands":             c("sev.commands"),
		"sev.launch_cmds":          c("sev.launch_cmds"),
		"sev.send_cmds":            c("sev.send_cmds"),
		"sev.receive_cmds":         c("sev.receive_cmds"),
		"sev.launch_s":             s.spanSeconds("LaunchVM", "NewServeService"),
		"kv.group_commits":         c("kv.group_commits"),
		"kv.mutations_per_commit":  ratio(mutations, c("kv.group_commits")),
		"kv.seq_writes":            c("kv.seq_writes"),
		"kv.compactions":           c("kv.compactions"),
		"kv.cache_hit_ratio":       ratio(c("kv.cache_hits"), c("kv.cache_hits")+c("kv.cache_misses")),
		"serve.holds_per_op":       ratio(c("serve.holds"), c("ops")),
		"serve.batch_depth_mean":   ratio(c("serve.batch_depth_sum"), c("serve.batch_depth_count")),
		"serve.admit_s":            s.spanSeconds("NewServeService"),
		"serve.run_s":              s.spanSeconds("ServeService.Run"),
		"serve.get_frac":           ratio(c("serve.gets"), c("ops")),
		"serve.put_frac":           ratio(c("serve.puts"), c("ops")),
		"serve.del_frac":           ratio(c("serve.dels"), c("ops")),
		"migrate.rounds":           c("migrate.rounds"),
		"migrate.pages_sent":       c("migrate.pages_sent"),
		"migrate.redirtied":        c("migrate.redirtied"),
		"migrate.retries":          c("migrate.retries"),
		"migrate.forced_final":     c("migrate.forced_final"),
		"migrate.send_s":           s.spanSeconds("MigrateOutLive"),
		"migrate.link_wait_s":      s.hostMedian("link_wait_s"),
		"parallel.pool_jobs":       c("pool.jobs"),
		"go.gc_count":              s.hostMedian("gc_count"),
		"go.gc_cpu_frac":           s.hostMedian("gc_cpu_frac"),
		"go.goroutines_left":       s.hostMedian("goroutines_left"),
		"telemetry.trace_overhead": ratio(s.traced.host["work"], s.spanSeconds("work")),
		"telemetry.events":         s.traced.host["trace_events"],
	}
	for _, mod := range hostModules {
		v["host."+mod+"_frac"] = s.profile[mod]
	}
	return v
}

// snapshotCounts folds a platform's registry snapshot into the counters
// the per-layer metrics read, summing the labelled families whose total
// a metric wants.
func snapshotCounts(p *fidelius.Platform) map[string]float64 {
	snap := p.Metrics()
	out := make(map[string]float64)
	add := func(k string, v uint64) {
		family := ""
		switch {
		case strings.HasPrefix(k, "cycles.vm{"):
			return // keyed by domain ID; the total is in cycles.total
		case strings.HasPrefix(k, "xen.lock_waits{"):
			family = "xen.lock_waits"
		case strings.HasPrefix(k, "sev.cmd{cmd=send"):
			family = "sev.send_cmds"
		case strings.HasPrefix(k, "sev.cmd{cmd=receive"):
			family = "sev.receive_cmds"
		}
		out[k] += float64(v)
		if family != "" {
			out[family] += float64(v)
		}
	}
	for k, v := range snap.Counters {
		add(k, v)
	}
	for k, v := range snap.Gauges {
		add(k, v)
	}
	if h, ok := snap.Histograms["serve.batch_depth"]; ok {
		out["serve.batch_depth_sum"] = float64(h.Sum)
		out["serve.batch_depth_count"] = float64(h.Count)
	}
	out["hw.mem_bytes"] = float64(p.X.M.Alloc.Total()) * 4096
	return out
}

// bootCommands books the SEV commands p issued so far, at the end of a
// boot phase, as launch commands, so the send and receive counts keep
// only those the work phase issued.
func (l *life) bootCommands(p *fidelius.Platform) {
	c := snapshotCounts(p)
	l.add(map[string]float64{
		"sev.launch_cmds":  c["sev.commands"],
		"sev.send_cmds":    -c["sev.send_cmds"],
		"sev.receive_cmds": -c["sev.receive_cmds"],
	})
}
