// Ablation benchmarks for three design decisions:
// the embedded cache geometry (what a desktop-sized L1 would hide), the
// chunk capacity of the (AR) DDT variants, and the step-1 pruning
// strategy (what the 4-metric Pareto filter buys over keeping only each
// metric's single best combination).
package repro_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/netapps"
	"repro/internal/apps/urlsw"
	"repro/internal/ddt"
	"repro/internal/energy"
	"repro/internal/explore"
	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/pareto"
	"repro/internal/platform"
	"repro/internal/trace"
	"repro/internal/vheap"
)

// BenchmarkAblationCacheGeometry re-runs the URL original-vs-refined
// comparison under three memory hierarchies. The refinement's energy
// saving collapses as the caches grow past the working set — the reason
// the reproduction models an embedded hierarchy, and a quantitative
// restatement of the paper's focus on embedded platforms.
func BenchmarkAblationCacheGeometry(b *testing.B) {
	geometries := []struct {
		name   string
		l1, l2 uint32
	}{
		{"embedded-8K-128K", 8 << 10, 128 << 10},
		{"midrange-32K-512K", 32 << 10, 512 << 10},
		{"desktop-128K-2M", 128 << 10, 2 << 20},
	}
	app := urlsw.App{}
	refined := apps.Assignment{
		urlsw.RoleSessions: ddt.AR,
		urlsw.RolePatterns: ddt.AR,
		urlsw.RoleServers:  apps.OriginalKind,
	}
	ctx := context.Background()
	for _, g := range geometries {
		b.Run(g.name, func(b *testing.B) {
			cfg := memsim.DefaultConfig()
			cfg.L1.SizeBytes = g.l1
			cfg.L2.SizeBytes = g.l2
			eng := explore.NewEngine(app, explore.Options{TracePackets: 4000, Platform: &cfg, DisableCache: true})
			ref := explore.Configs(app)[0]
			var saving float64
			for i := 0; i < b.N; i++ {
				orig, err := eng.Simulate(ctx, ref, apps.Original(app))
				if err != nil {
					b.Fatal(err)
				}
				fast, err := eng.Simulate(ctx, ref, refined)
				if err != nil {
					b.Fatal(err)
				}
				saving = fast.Vec.Improvement(orig.Vec, metrics.Energy)
			}
			b.ReportMetric(100*saving, "energy-saving-pct")
		})
	}
}

// BenchmarkAblationChunkCap sweeps the records-per-chunk capacity of the
// SLL(AR) kind over a mixed workload: traversal cost falls with K while
// shift cost and footprint slack grow — the interior of the trade-off the
// library fixes at DefaultChunkCap.
func BenchmarkAblationChunkCap(b *testing.B) {
	for _, k := range []int{2, 4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			var vec metrics.Vector
			for i := 0; i < b.N; i++ {
				p := platform.Default()
				env := &ddt.Env{Heap: p.Heap, Mem: p.Mem}
				l := ddt.NewChunked[int64](ddt.SLLAR, env, 16, k)
				for j := 0; j < 512; j++ {
					l.Append(int64(j))
				}
				for j := 0; j < 4096; j++ {
					l.Get((j * 61) % l.Len())
				}
				for j := 0; j < 256; j++ {
					l.InsertAt((j*37)%l.Len(), int64(j))
					l.RemoveAt((j * 53) % l.Len())
				}
				vec = p.Metrics()
			}
			b.ReportMetric(vec.Accesses, "accesses")
			b.ReportMetric(vec.Footprint, "footprint-B")
			b.ReportMetric(vec.Energy*1e6, "energy-uJ")
		})
	}
}

// BenchmarkAblationPruning compares the paper's 4-metric Pareto filter
// against keeping only each metric's best combination. The cheap strategy
// runs fewer step-2 simulations but loses Pareto-optimal solutions — the
// coverage the full filter pays its extra simulations for.
func BenchmarkAblationPruning(b *testing.B) {
	app := urlsw.App{}
	configs := explore.Configs(app)
	for _, mode := range []struct {
		name      string
		survivors func(*explore.Step1Result) []explore.Result
	}{
		{"pareto-front", func(s1 *explore.Step1Result) []explore.Result { return s1.Survivors }},
		{"best-per-metric", func(s1 *explore.Step1Result) []explore.Result { return bestPerMetric(s1.Results) }},
	} {
		b.Run(mode.name, func(b *testing.B) {
			opts := explore.Options{TracePackets: 2000}
			var survivors, sims, frontSize int
			for i := 0; i < b.N; i++ {
				s1, err := explore.NewEngine(app, opts).Step1(context.Background(), configs[0])
				if err != nil {
					b.Fatal(err)
				}
				kept := *s1
				kept.Survivors = mode.survivors(s1)
				s2, err := explore.NewEngine(app, opts).Step2(context.Background(), &kept, configs)
				if err != nil {
					b.Fatal(err)
				}
				survivors = len(kept.Survivors)
				sims = s1.Simulations + s2.Simulations
				pts := make([]pareto.Point, len(s2.Results))
				for j, r := range s2.Results {
					pts[j] = r.Point(j)
				}
				frontSize = len(pareto.Front(pts))
			}
			b.ReportMetric(float64(survivors), "survivors")
			b.ReportMetric(float64(sims), "simulations")
			b.ReportMetric(float64(frontSize), "final-front")
		})
	}
}

// bestPerMetric keeps each metric's best finished combination, once.
func bestPerMetric(results []explore.Result) []explore.Result {
	live := explore.Live(results)
	if len(live) == 0 {
		return nil
	}
	var out []explore.Result
	for _, m := range metrics.AllMetrics() {
		best := live[0]
		for _, r := range live[1:] {
			if r.Vec.Get(m) < best.Vec.Get(m) {
				best = r
			}
		}
		if !slices.ContainsFunc(out, func(r explore.Result) bool { return r.Label() == best.Label() }) {
			out = append(out, best)
		}
	}
	return out
}

// BenchmarkAblationBoundPrune ablates the bound-guided combination
// search on the 3-role DRR grid: the same compositional exploration
// with pruning off (every combination pays a composed probe pass) and
// on (combinations whose admissible per-lane lower bound the running
// front already dominates are discarded with zero replays). The
// survivor fronts are bit-identical either way — the bound never
// exceeds the exact cost on any objective — so the entire delta is
// wall-clock and replay count.
func BenchmarkAblationBoundPrune(b *testing.B) {
	app, err := netapps.ByName("DRR")
	if err != nil {
		b.Fatal(err)
	}
	ref := explore.Configs(app)[0]
	for _, mode := range []struct {
		name  string
		prune bool
	}{
		{"prune-off", false},
		{"prune-on", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var st explore.EngineStats
			for i := 0; i < b.N; i++ {
				opts := explore.Options{TracePackets: 400, DominantK: 3, Arenas: true, BoundPrune: mode.prune}
				eng := explore.NewEngine(app, opts)
				if _, err := eng.Step1(context.Background(), ref); err != nil {
					b.Fatal(err)
				}
				st = eng.Stats()
			}
			b.ReportMetric(float64(st.Pruned), "pruned")
			b.ReportMetric(float64(st.Composed), "composed-replays")
			b.ReportMetric(float64(st.Simulated), "executions")
		})
	}
}

// BenchmarkAblationHeapScatter quantifies the fragmented-heap placement
// model: the same linked-list scan costs far more cycles when nodes are
// scattered across banks than a contiguous array of the same records —
// the locality gap the DDT exploration exists to navigate.
func BenchmarkAblationHeapScatter(b *testing.B) {
	for _, kind := range []ddt.Kind{ddt.AR, ddt.SLL} {
		b.Run(kind.String(), func(b *testing.B) {
			p := platform.Default()
			env := &ddt.Env{Heap: p.Heap, Mem: p.Mem}
			l := ddt.New[int64](kind, env, 24)
			for j := 0; j < 1024; j++ {
				l.Append(int64(j))
			}
			start := p.Mem.Cycles()
			before := p.Mem.Counts()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Iterate(func(int, int64) bool { return true })
			}
			b.StopTimer()
			cycles := float64(p.Mem.Cycles()-start) / float64(b.N)
			probes := p.Mem.Counts().LineProbes() - before.LineProbes()
			b.ReportMetric(cycles, "sim-cycles/scan")
			b.ReportMetric(float64(probes)/float64(b.N), "line-probes/scan")
		})
	}
}

// TestAblationSanity pins the qualitative claims the ablation benches
// rest on, so they are checked on every `go test` run, not only when
// benchmarks execute.
func TestAblationSanity(t *testing.T) {
	// (1) Larger caches shrink the refinement's energy win.
	saving := func(l1, l2 uint32) float64 {
		cfg := memsim.DefaultConfig()
		cfg.L1.SizeBytes = l1
		cfg.L2.SizeBytes = l2
		app := urlsw.App{}
		eng := explore.NewEngine(app, explore.Options{TracePackets: 2000, Platform: &cfg})
		ref := explore.Configs(app)[0]
		orig, err := eng.Simulate(context.Background(), ref, apps.Original(app))
		if err != nil {
			t.Fatal(err)
		}
		refined := apps.Assignment{
			urlsw.RoleSessions: ddt.AR,
			urlsw.RolePatterns: ddt.AR,
			urlsw.RoleServers:  apps.OriginalKind,
		}
		fast, err := eng.Simulate(context.Background(), ref, refined)
		if err != nil {
			t.Fatal(err)
		}
		return fast.Vec.Improvement(orig.Vec, metrics.Energy)
	}
	embedded := saving(8<<10, 128<<10)
	desktop := saving(256<<10, 4<<20)
	if embedded <= desktop {
		t.Errorf("energy saving embedded %.2f <= desktop %.2f; cache-size rationale broken",
			embedded, desktop)
	}

	// (2) Scattered list nodes cost more simulated cycles per scan than a
	// contiguous array of the same records.
	scanCycles := func(kind ddt.Kind) float64 {
		p := platform.Default()
		env := &ddt.Env{Heap: p.Heap, Mem: p.Mem}
		l := ddt.New[int64](kind, env, 24)
		for j := 0; j < 1024; j++ {
			l.Append(int64(j))
		}
		start := p.Mem.Cycles()
		for i := 0; i < 8; i++ {
			l.Iterate(func(int, int64) bool { return true })
		}
		return float64(p.Mem.Cycles() - start)
	}
	if ar, sll := scanCycles(ddt.AR), scanCycles(ddt.SLL); sll < ar*1.5 {
		t.Errorf("SLL scan %.0f cycles vs AR %.0f; scatter model too kind to lists", sll, ar)
	}
}

// BenchmarkAblationAllocatorPolicy runs the URL original (all-SLL)
// implementation on a fragmented heap (scattered slots, the default) and
// on a fresh bump heap (sequential slots). The gap is the share of the
// lists' cost that comes purely from placement — the physics the virtual
// heap exists to model.
func BenchmarkAblationAllocatorPolicy(b *testing.B) {
	app := urlsw.App{}
	tr, err := trace.Builtin(app.TraceNames()[0], 4000)
	if err != nil {
		b.Fatal(err)
	}
	for _, pol := range []struct {
		name    string
		scatter bool
	}{
		{"fragmented-heap", true},
		{"bump-heap", false},
	} {
		b.Run(pol.name, func(b *testing.B) {
			cfg := memsim.DefaultConfig()
			var vec metrics.Vector
			for i := 0; i < b.N; i++ {
				p := &platform.Platform{
					Heap:  vheap.NewWithPolicy(vheap.Policy{Scatter: pol.scatter}),
					Mem:   memsim.New(cfg),
					Model: energy.CACTILike(cfg),
				}
				if _, err := app.Run(tr, p, apps.Original(app), app.DefaultKnobs(), nil); err != nil {
					b.Fatal(err)
				}
				vec = p.Metrics()
			}
			b.ReportMetric(vec.Energy*1e6, "energy-uJ")
			b.ReportMetric(vec.Time*1e3, "time-ms")
			b.ReportMetric(vec.Accesses, "accesses")
		})
	}
}

// TestAllocatorPolicySanity pins the claim behind the allocator ablation:
// a fragmented heap costs a list-heavy application real energy relative
// to sequential placement, while the access count (placement-independent)
// stays identical.
func TestAllocatorPolicySanity(t *testing.T) {
	app := urlsw.App{}
	tr, err := trace.Builtin(app.TraceNames()[0], 2000)
	if err != nil {
		t.Fatal(err)
	}
	run := func(scatter bool) metrics.Vector {
		cfg := memsim.DefaultConfig()
		p := &platform.Platform{
			Heap:  vheap.NewWithPolicy(vheap.Policy{Scatter: scatter}),
			Mem:   memsim.New(cfg),
			Model: energy.CACTILike(cfg),
		}
		if _, err := app.Run(tr, p, apps.Original(app), app.DefaultKnobs(), nil); err != nil {
			t.Fatal(err)
		}
		return p.Metrics()
	}
	frag, bump := run(true), run(false)
	if frag.Accesses != bump.Accesses {
		t.Errorf("placement changed the access count: %v vs %v", frag.Accesses, bump.Accesses)
	}
	if frag.Energy <= bump.Energy {
		t.Errorf("fragmented heap energy %v <= bump heap %v; scatter model inert", frag.Energy, bump.Energy)
	}
}
