package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"fidelius"
	"fidelius/internal/bench"
	"fidelius/internal/hw"
	"fidelius/internal/migrate"
	"fidelius/internal/telemetry"
	"fidelius/internal/workload"
	"fidelius/internal/xen"
)

// size scales a workload: full is what the benchmark measures, tiny is
// a seconds-long variant for the benchmark's own tests.
type size int

const (
	full size = iota
	tiny
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"paper-fig5", "serve-put", "serve-get", "migrate-live"}

// newWorkload builds the named workload for a workload seed.
func newWorkload(name string, seed int64, sz size) (*scenario, error) {
	switch name {
	case "paper-fig5":
		iters := 2000
		if sz == tiny {
			iters = 200
		}
		return fig5Workload(seed, iters), nil
	case "serve-put":
		sh := serveShape{tenants: 4, clients: 16, ops: 256, rate: 1.6, put: 0.7, del: 0.1, keySpace: 8, lifetimes: 2}
		if sz == tiny {
			sh.ops = 8
		}
		return serveWorkload(name, sh, 1<<20), nil
	case "serve-get":
		sh := serveShape{tenants: 4, clients: 16, ops: 64, rate: 1.0, put: 0.05, del: 0.02, keySpace: 3, lifetimes: 2}
		if sz == tiny {
			sh.ops = 4
		}
		return serveWorkload(name, sh, 1<<21), nil
	case "migrate-live":
		sh := migShape{pages: 2048, wset: 64, static: 8, hops: 5, lifetimes: 2}
		if sz == tiny {
			sh.pages, sh.hops = 256, 2
		}
		return migrateWorkload(sh), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// --- paper-fig5 -----------------------------------------------------------

// E1 in EXPERIMENTS.md records the Fig. 5 averages the model reproduces:
// 0.86% for Fidelius and 6.10% for Fidelius-enc. A run whose averages
// stray further than these tolerances does not reproduce the figure.
const (
	e1Fid, e1FidTol = 0.86, 0.10
	e1Enc, e1EncTol = 6.10, 0.50
)

// fig5Workload runs every SPEC profile under every configuration, each
// on a fresh platform, in an order the seed permutes. The model has no
// randomness, so the seed moves only host-side order effects.
func fig5Workload(seed int64, iters int) *scenario {
	profs := workload.SPEC()
	n := len(profs) * len(bench.Configs)
	order := rand.New(rand.NewSource(seed)).Perm(n)
	w := &scenario{
		name:      "paper-fig5",
		shape:     fmt.Sprintf("%d SPEC profiles x %v, %d iterations, one 16 MiB platform each", len(profs), bench.Configs, iters),
		lifetimes: n,
		traceCap:  1 << 16,
	}
	w.run = func(l *life, i int) error {
		prof, cfg := profs[order[i]/len(bench.Configs)], bench.Configs[order[i]%len(bench.Configs)]
		var bp *bench.Platform
		var p *fidelius.Platform
		if err := l.boot(func() error {
			return l.call("bench.NewPlatform", func() (err error) {
				bp, err = bench.NewPlatform(cfg, workload.GuestMemPages)
				return err
			})
		}); err != nil {
			return err
		}
		p = &fidelius.Platform{X: bp.X, F: bp.F}
		l.bootCommands(p)
		l.trace(p, w.traceCap)
		c0 := p.Telemetry().Now()
		var res workload.Result
		runErr := l.work(func() error {
			return l.call("workload.Run", func() (err error) {
				res, err = workload.Run(bp.X, bp.D, prof, iters)
				return err
			})
		})
		l.attempted = 1
		if runErr != nil {
			l.failed = 1
			return fmt.Errorf("%s/%s guest run: %w", prof.Name, cfg, runErr)
		}
		l.simCycles = p.Telemetry().Now() - c0
		l.ops = 1
		l.lat = []float64{float64(res.Cycles)}
		l.latCount, l.latSum = 1, res.Cycles
		l.add(snapshotCounts(p))
		l.add(map[string]float64{"bench.cycles{" + prof.Name + "/" + cfg + "}": float64(res.Cycles)})
		return l.traceDrops(p)
	}
	w.finish = func(lives []*life) (map[string]float64, error) {
		var fid, enc float64
		for _, prof := range profs {
			cyc := func(cfg string) float64 {
				var v float64
				for _, l := range lives {
					v += l.counts["bench.cycles{"+prof.Name+"/"+cfg+"}"]
				}
				return v
			}
			base := cyc(bench.ConfigXen)
			if base == 0 {
				return nil, fmt.Errorf("%s: no Xen baseline run", prof.Name)
			}
			fid += 100 * (cyc(bench.ConfigFidelius) - base) / base
			enc += 100 * (cyc(bench.ConfigFideliusEnc) - base) / base
		}
		fid /= float64(len(profs))
		enc /= float64(len(profs))
		if d := fid - e1Fid; d > e1FidTol || d < -e1FidTol {
			return nil, fmt.Errorf("Fidelius average overhead %.3f%% is not E1's %.2f%% ± %.2f", fid, e1Fid, e1FidTol)
		}
		if d := enc - e1Enc; d > e1EncTol || d < -e1EncTol {
			return nil, fmt.Errorf("Fidelius-enc average overhead %.3f%% is not E1's %.2f%% ± %.2f", enc, e1Enc, e1EncTol)
		}
		return map[string]float64{"bench.fid_overhead_pct": fid, "bench.enc_overhead_pct": enc}, nil
	}
	return w
}

// --- serve-put / serve-get --------------------------------------------------

// serveShape is one open-loop serving mix.
type serveShape struct {
	tenants, clients, ops int
	rate, put, del        float64
	keySpace, lifetimes   int
	tamper                []int // tenants whose admission is sabotaged (tests only)
}

func serveWorkload(name string, sh serveShape, traceCap int) *scenario {
	w := &scenario{
		name: name,
		shape: fmt.Sprintf("%d tenants x %d clients x %d ops, %.2f ops/Mcycle/tenant Poisson, put %.2f del %.2f, keyspace %d, serial schedule",
			sh.tenants, sh.clients, sh.ops, sh.rate, sh.put, sh.del, sh.keySpace),
		lifetimes: sh.lifetimes,
		traceCap:  traceCap,
	}
	w.run = func(l *life, _ int) error {
		cfg := fidelius.ServeConfig{
			Tenants: sh.tenants, ClientsPerTenant: sh.clients, OpsPerClient: sh.ops,
			RatePerMCycle: sh.rate, PutFrac: sh.put, DelFrac: sh.del, KeySpace: sh.keySpace,
			Seed: l.seed, TamperTenants: sh.tamper,
		}
		var p *fidelius.Platform
		var svc *fidelius.ServeService
		if err := l.boot(func() error {
			if err := l.call("NewPlatform", func() (err error) {
				p, err = fidelius.NewPlatform(fidelius.Config{Protected: true})
				return err
			}); err != nil {
				return err
			}
			l.trace(p, w.traceCap)
			p.StartAudit()
			return l.call("NewServeService", func() (err error) {
				svc, err = p.NewServeService(cfg)
				return err
			})
		}); err != nil {
			return err
		}
		l.bootCommands(p)
		var runErrs []error
		if err := l.work(func() error {
			return l.call("ServeService.Run", func() error {
				for id, err := range svc.Run() {
					runErrs = append(runErrs, fmt.Errorf("domain %d: %w", id, err))
				}
				return nil
			})
		}); err != nil {
			return err
		}
		if len(runErrs) > 0 {
			return errors.Join(runErrs...)
		}
		l.attempted = uint64(sh.tenants * sh.clients * sh.ops)
		l.simCycles = svc.Elapsed()
		counts := snapshotCounts(p)
		var refused []string
		var gets, puts, dels, bad, timeouts, errs uint64
		for _, r := range svc.Reports() {
			if !r.Admitted {
				refused = append(refused, r.Name)
			}
			l.ops += r.Ops
			gets, puts, dels = gets+r.Gets, puts+r.Puts, dels+r.Dels
			bad, timeouts, errs = bad+r.Mismatches, timeouts+r.Timeouts, errs+r.Errors
		}
		l.failed = min(l.attempted, timeouts+errs+bad+(l.attempted-l.ops))
		snap := p.Metrics()
		hist := snap.Histograms["serve.latency"]
		l.latCount, l.latSum = hist.Count, hist.Sum
		l.add(counts)
		l.add(map[string]float64{"serve.gets": float64(gets), "serve.puts": float64(puts), "serve.dels": float64(dels)})
		if tr := p.Telemetry().Trace(); tr != nil {
			l.lat = make([]float64, 0, l.ops)
			for _, e := range tr.Events() {
				if e.Kind == telemetry.KindServeDone {
					l.lat = append(l.lat, float64(e.Arg2))
				}
			}
		}
		if err := l.traceDrops(p); err != nil {
			return err
		}
		if err := l.call("ServeService.Shutdown", svc.Shutdown); err != nil {
			return err
		}
		return checkServe(serveCheck{
			refused: refused, mismatches: bad, attempted: l.attempted, completed: l.ops,
			byKind: gets + puts + dels, histCount: hist.Count,
			chain: fidelius.VerifyAuditChain(p.AuditRecords(), p.AuditHead()),
		})
	}
	return w
}

// serveCheck is what a serve lifetime's output must satisfy.
type serveCheck struct {
	refused    []string
	mismatches uint64
	attempted  uint64
	completed  uint64 // ops answered, including errored ones
	byKind     uint64 // gets + puts + deletes answered
	histCount  uint64 // serve.latency observations
	chain      error  // audit-ledger verification
}

func checkServe(c serveCheck) error {
	switch {
	case len(c.refused) > 0:
		return fmt.Errorf("admission refused %v", c.refused)
	case c.mismatches > 0:
		return fmt.Errorf("%d responses did not match the client's model", c.mismatches)
	case c.completed != c.attempted:
		return fmt.Errorf("%d of %d ops never completed", c.attempted-c.completed, c.attempted)
	case c.byKind != c.completed || c.histCount != c.completed:
		return fmt.Errorf("op accounting disagrees: %d completed, %d by kind, %d latencies",
			c.completed, c.byKind, c.histCount)
	case c.chain != nil:
		return fmt.Errorf("audit chain: %w", c.chain)
	}
	return nil
}

// --- migrate-live -----------------------------------------------------------

// migShape is the ping-pong migration.
type migShape struct {
	pages, wset, static, hops int
	lifetimes                 int
	leakFrame                 bool // hold a frame past teardown (tests only)
}

// migTag is the value the guest keeps in working-set page w during sweep
// s of hop h, so a read-back names where it came from.
func migTag(h, s, w int) uint64 { return uint64(h)<<48 | uint64(s)<<16 | uint64(w) }

// migrateWorkload ping-pongs one protected VM between two platforms
// while its guest rewrites a working set; after each hop a guest on the
// destination checks the working set and a static region read back
// intact.
func migrateWorkload(sh migShape) *scenario {
	w := &scenario{
		name: "migrate-live",
		shape: fmt.Sprintf("%d-page protected VM, %d-page dirtying working set, %d live hops between two platforms",
			sh.pages, sh.wset, sh.hops),
		lifetimes: sh.lifetimes,
		traceCap:  1 << 20,
	}
	w.run = func(l *life, _ int) error {
		rng := rand.New(rand.NewSource(l.seed))
		// The working set and static region sit at seed-chosen pages,
		// clear of the low pages and of the kernel image at the top.
		const margin = 16
		wsGFN := margin + rng.Intn(sh.pages-2*margin-sh.wset-sh.static)
		staticGFN := wsGFN + sh.wset
		pattern := make([]byte, sh.static*4096)
		rng.Read(pattern)

		var plats [2]*fidelius.Platform
		var postBoot [2]map[hw.PFN]bool
		var vm *fidelius.Domain
		if err := l.boot(func() error {
			for j := range plats {
				if err := l.call("NewPlatform", func() (err error) {
					plats[j], err = fidelius.NewPlatform(fidelius.Config{Protected: true})
					return err
				}); err != nil {
					return err
				}
				l.trace(plats[j], w.traceCap)
			}
			owner, err := fidelius.NewOwner()
			if err != nil {
				return err
			}
			bundle, _, err := fidelius.PrepareGuest(owner, plats[0].PlatformKey(), bytes.Repeat([]byte("MIGRATE-LIVE-KRN"), 256), nil)
			if err != nil {
				return err
			}
			return l.call("LaunchVM", func() (err error) {
				vm, err = plats[0].LaunchVM("migrate-live", sh.pages, bundle)
				return err
			})
		}); err != nil {
			return err
		}

		for j, p := range plats {
			postBoot[j] = freeFrames(p)
			l.bootCommands(p)
		}

		wsAddr := func(w int) uint64 { return uint64(wsGFN+w) * 4096 }
		// rebase writes the static region (first time only) and sets
		// every working-set page to sweep 0 of hop h.
		rebase := func(h int, static bool) fidelius.GuestFunc {
			return func(g *fidelius.GuestEnv) error {
				if static {
					if err := g.Write(uint64(staticGFN)*4096, pattern); err != nil {
						return err
					}
				}
				for w := 0; w < sh.wset; w++ {
					if err := g.Write64(wsAddr(w), migTag(h, 0, w)); err != nil {
						return err
					}
				}
				return nil
			}
		}
		// dirty rewrites the working set until the migration freezes it.
		dirty := func(h int) fidelius.GuestFunc {
			return func(g *fidelius.GuestEnv) error {
				for s := 1; ; s++ {
					for w := 0; w < sh.wset; w++ {
						if err := g.Write64(wsAddr(w), migTag(h, s, w)); err != nil {
							return err
						}
					}
					g.Halt()
				}
			}
		}
		// verify checks what hop h left behind, then rebases for hop h+1.
		verify := func(h int) fidelius.GuestFunc {
			return func(g *fidelius.GuestEnv) error {
				got := make([]byte, len(pattern))
				if err := g.Read(uint64(staticGFN)*4096, got); err != nil {
					return err
				}
				if !bytes.Equal(got, pattern) {
					return fmt.Errorf("hop %d: static region changed in flight", h)
				}
				vals := make([]uint64, sh.wset)
				for w := range vals {
					v, err := g.Read64(wsAddr(w))
					if err != nil {
						return err
					}
					vals[w] = v
				}
				if err := checkWorkingSet(h, vals); err != nil {
					return err
				}
				return rebase(h+1, false)(g)
			}
		}

		var c0 [2]uint64
		for j, p := range plats {
			c0[j] = p.Telemetry().Now()
		}
		// The first work phase writes the guest's initial state; then each
		// hop is a work phase of its own: migrate, retire the source copy,
		// and check on the destination what arrived.
		if err := l.work(func() error {
			plats[0].StartVCPU(vm, rebase(0, true))
			return l.call("Platform.Run", func() error { return plats[0].Run(vm) })
		}); err != nil {
			return err
		}
		cur := 0
		for h := 0; h < sh.hops; h++ {
			src, dst := plats[cur], plats[1-cur]
			var st *fidelius.MigrateStats
			if err := l.work(func() error {
				src.StartVCPU(vm, dirty(h))
				l.attempted++
				vm2, stats, err := l.migrate(src, dst, vm)
				if err != nil {
					l.failed++
					return fmt.Errorf("hop %d: %w", h, err)
				}
				if err := l.call("Shutdown", func() error { return src.Shutdown(vm) }); err != nil {
					return err
				}
				vm, cur, st = vm2, 1-cur, stats
				dst.StartVCPU(vm, verify(h))
				return l.call("Platform.Run", func() error { return dst.Run(vm) })
			}); err != nil {
				return err
			}
			l.ops++
			l.lat = append(l.lat, float64(st.DowntimeCycles))
			l.latCount++
			l.latSum += st.DowntimeCycles
			if st.ForcedFinal {
				l.add(map[string]float64{"migrate.forced_final": 1})
			}
		}
		for j, p := range plats {
			l.simCycles += p.Telemetry().Now() - c0[j]
			l.add(snapshotCounts(p))
			if err := l.traceDrops(p); err != nil {
				return err
			}
		}
		if sh.leakFrame {
			if _, err := plats[cur].X.M.Alloc.Alloc(xen.UseGuest, 0); err != nil {
				return err
			}
		}
		if err := l.call("Shutdown", func() error { return plats[cur].Shutdown(vm) }); err != nil {
			return err
		}
		for j, p := range plats {
			if err := checkFrames(postBoot[j], freeFrames(p), p.F.PIT.Pages); err != nil {
				return fmt.Errorf("platform %d: %w", j, err)
			}
		}
		return nil
	}
	return w
}

// freeFrames is the set of p's free physical frames.
func freeFrames(p *fidelius.Platform) map[hw.PFN]bool {
	free := make(map[hw.PFN]bool)
	p.X.M.Alloc.ForEach(func(pfn hw.PFN, fi xen.FrameInfo) {
		if fi.Use == xen.UseFree {
			free[pfn] = true
		}
	})
	return free
}

// checkFrames checks that every frame free after boot is free again
// after teardown. The one exception is the page information table: it
// grows a leaf page the first time a frame of a 1024-frame group is
// tracked and keeps it for the platform's life, so a VM reaching higher
// memory than boot did leaves PIT leaves behind by design.
func checkFrames(afterBoot, afterTeardown map[hw.PFN]bool, pit []hw.PFN) error {
	isPIT := make(map[hw.PFN]bool, len(pit))
	for _, pfn := range pit {
		isPIT[pfn] = true
	}
	var leaked []hw.PFN
	for pfn := range afterBoot {
		if !afterTeardown[pfn] && !isPIT[pfn] {
			leaked = append(leaked, pfn)
		}
	}
	if len(leaked) > 0 {
		slices.Sort(leaked)
		return fmt.Errorf("%d frames free after boot are still held after teardown: %v", len(leaked), leaked)
	}
	return nil
}

// migrate live-migrates vm from src to dst over an in-memory link with
// the default cost model, the two protocol ends on two goroutines.
func (l *life) migrate(src, dst *fidelius.Platform, vm *fidelius.Domain) (*fidelius.Domain, *fidelius.MigrateStats, error) {
	a, b := fidelius.NewMigrationPipe(8)
	out := &fidelius.MigrateLink{Conn: waitConn{a, &l.wait}, Counter: src.X.M.Ctl.Cycles,
		CyclesPerByte: migrate.DefaultCyclesPerByte, LatencyCycles: migrate.DefaultLatencyCycles}
	in := &fidelius.MigrateLink{Conn: waitConn{b, &l.wait}, Counter: dst.X.M.Ctl.Cycles,
		CyclesPerByte: migrate.DefaultCyclesPerByte, LatencyCycles: migrate.DefaultLatencyCycles}
	var wg sync.WaitGroup
	var vm2 *fidelius.Domain
	var inErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		id := l.rec.begin("MigrateInLive", l.phase, l.round, l.id)
		vm2, inErr = dst.MigrateInLive(in, src)
		l.rec.end(id)
	}()
	var st *fidelius.MigrateStats
	// The ack timeout is host time; it is set far above any host stall
	// so a slow host cannot turn into retries the model would count.
	outErr := l.call("MigrateOutLive", func() (err error) {
		st, err = src.MigrateOutLive(vm, dst, out, fidelius.MigrateConfig{AckTimeout: 10 * time.Second})
		return err
	})
	wg.Wait()
	if err := errors.Join(outErr, inErr); err != nil {
		return nil, st, err
	}
	return vm2, st, nil
}

// checkWorkingSet checks the working set hop h's guest left: every page
// carries its own index and hop h, and since the guest sweeps pages in
// order, sweep numbers fall by at most one, once, along the set.
func checkWorkingSet(h int, vals []uint64) error {
	for w, v := range vals {
		if int(v>>48) != h || int(v&0xffff) != w {
			return fmt.Errorf("hop %d: working-set page %d holds %#x", h, w, v)
		}
	}
	first, last := (vals[0]>>16)&0xffffffff, (vals[len(vals)-1]>>16)&0xffffffff
	for w := 1; w < len(vals); w++ {
		if (vals[w]>>16)&0xffffffff > (vals[w-1]>>16)&0xffffffff {
			return fmt.Errorf("hop %d: working-set page %d is newer than page %d", h, w, w-1)
		}
	}
	if first-last > 1 {
		return fmt.Errorf("hop %d: working set spans sweeps %d..%d", h, last, first)
	}
	return nil
}
