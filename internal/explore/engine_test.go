package explore_test

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/apps/drr"
	"repro/internal/apps/netapps"
	"repro/internal/ddt"
	"repro/internal/explore"
	"repro/internal/platform"
	"repro/internal/profiler"
	"repro/internal/trace"
)

// TestCombinationSeqDigits pins CombinationSeq's order against an
// independent decoding: combination i assigns to role j the j-th
// base-10 digit of i, most significant first.
func TestCombinationSeqDigits(t *testing.T) {
	for _, k := range []int{0, 1, 2, 3} {
		want := 0
		if k > 0 {
			want = 1
			for j := 0; j < k; j++ {
				want *= ddt.NumKinds
			}
		}
		i := 0
		for combo := range explore.CombinationSeq(k) {
			if len(combo) != k {
				t.Fatalf("k=%d combo %d has %d roles", k, i, len(combo))
			}
			rest := i
			for j := k - 1; j >= 0; j-- {
				if d := ddt.Kind(rest % ddt.NumKinds); combo[j] != d {
					t.Fatalf("k=%d combo %d = %v: role %d is %v, want digit %v", k, i, combo, j, combo[j], d)
				}
				rest /= ddt.NumKinds
			}
			i++
		}
		if i != want {
			t.Fatalf("k=%d: seq yielded %d combos, want %d", k, i, want)
		}
	}
	// Early break must not panic or leak.
	n := 0
	for range explore.CombinationSeq(3) {
		n++
		if n == 7 {
			break
		}
	}
	if n != 7 {
		t.Fatalf("early break consumed %d", n)
	}
}

func TestConfigSeqMatchesConfigs(t *testing.T) {
	app := faultyApp{}
	want := explore.Configs(app)
	i := 0
	for cfg := range explore.ConfigSeq(app) {
		if cfg.String() != want[i].String() {
			t.Fatalf("config %d = %v, want %v", i, cfg, want[i])
		}
		i++
	}
	if i != len(want) {
		t.Fatalf("seq yielded %d configs, want %d", i, len(want))
	}
}

func TestEngineSimulateUsesCache(t *testing.T) {
	app := faultyApp{}
	eng := explore.NewEngine(app, explore.Options{TracePackets: 50})
	cfg := explore.Configs(app)[0]
	assign := apps.Original(app)

	r1, err := eng.Simulate(context.Background(), cfg, assign)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := eng.Simulate(context.Background(), cfg, assign)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Vec != r2.Vec || !r1.Summary.Equal(r2.Summary) {
		t.Fatal("cached result differs from simulated result")
	}
	st := eng.Stats()
	if st.Simulated != 1 || st.CacheHits != 1 {
		t.Fatalf("stats = %+v, want 1 simulated / 1 hit", st)
	}
	// The cached copy must not alias caller-visible maps.
	r2.Assign["victim"] = ddt.DLLARO
	r3, err := eng.Simulate(context.Background(), cfg, assign)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Assign["victim"] != apps.OriginalKind {
		t.Fatal("mutating a returned result corrupted the cache")
	}
}

func TestEngineStep1CacheWarm(t *testing.T) {
	app := faultyApp{}
	opts := explore.Options{TracePackets: 50}
	eng := explore.NewEngine(app, opts)
	ref := explore.Configs(app)[0]

	cold, err := eng.Step1(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := eng.Step1(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.CacheHits < 100 {
		t.Fatalf("warm step 1 hit cache %d times, want >= 100", st.CacheHits)
	}
	if st.Simulated != 100 {
		t.Fatalf("engine simulated %d, want exactly 100 across both runs", st.Simulated)
	}
	if len(cold.Survivors) != len(warm.Survivors) {
		t.Fatalf("warm survivors %d != cold %d", len(warm.Survivors), len(cold.Survivors))
	}
	for i := range cold.Survivors {
		if cold.Survivors[i].Label() != warm.Survivors[i].Label() ||
			cold.Survivors[i].Vec != warm.Survivors[i].Vec {
			t.Fatalf("survivor %d differs between cold and warm runs", i)
		}
	}
}

func TestEngineSharedCacheAcrossEngines(t *testing.T) {
	app := faultyApp{}
	cache := explore.NewCache()
	opts := explore.Options{TracePackets: 50, Cache: cache}
	ref := explore.Configs(app)[0]

	if _, err := explore.NewEngine(app, opts).Step1(context.Background(), ref); err != nil {
		t.Fatal(err)
	}
	second := explore.NewEngine(app, opts)
	if _, err := second.Step1(context.Background(), ref); err != nil {
		t.Fatal(err)
	}
	if st := second.Stats(); st.Simulated != 0 || st.CacheHits != 100 {
		t.Fatalf("second engine stats = %+v, want pure cache hits", st)
	}
}

func TestCacheSaveLoadRoundTrip(t *testing.T) {
	app := faultyApp{}
	opts := explore.Options{TracePackets: 50}
	ref := explore.Configs(app)[0]
	eng := explore.NewEngine(app, opts)
	if _, err := eng.Step1(context.Background(), ref); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := eng.Cache().Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored := explore.NewCache()
	if err := restored.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != eng.Cache().Len() {
		t.Fatalf("restored %d entries, want %d", restored.Len(), eng.Cache().Len())
	}

	replay := explore.NewEngine(app, explore.Options{TracePackets: 50, Cache: restored})
	if _, err := replay.Step1(context.Background(), ref); err != nil {
		t.Fatal(err)
	}
	if st := replay.Stats(); st.Simulated != 0 {
		t.Fatalf("replay engine simulated %d after cache restore, want 0", st.Simulated)
	}
}

func TestEngineDisableCache(t *testing.T) {
	app := faultyApp{}
	eng := explore.NewEngine(app, explore.Options{TracePackets: 50, DisableCache: true})
	if eng.Cache() != nil {
		t.Fatal("DisableCache left a cache attached")
	}
	cfg := explore.Configs(app)[0]
	for i := 0; i < 2; i++ {
		if _, err := eng.Simulate(context.Background(), cfg, apps.Original(app)); err != nil {
			t.Fatal(err)
		}
	}
	if st := eng.Stats(); st.Simulated != 2 || st.CacheHits != 0 {
		t.Fatalf("stats = %+v, want 2 simulated / 0 hits", st)
	}
}

// gateApp counts concurrent Run invocations to prove the worker pool is
// bounded by goroutine count, not merely by in-flight permits.
type gateApp struct {
	faultyApp
	running, peak atomic.Int64
}

func (g *gateApp) Run(tr *trace.Trace, p *platform.Platform, assign apps.Assignment, knobs apps.Knobs, probes *profiler.Set) (apps.Summary, error) {
	n := g.running.Add(1)
	for {
		old := g.peak.Load()
		if n <= old || g.peak.CompareAndSwap(old, n) {
			break
		}
	}
	time.Sleep(200 * time.Microsecond)
	defer g.running.Add(-1)
	return g.faultyApp.Run(tr, p, assign, knobs, probes)
}

func TestEngineWorkerPoolBounded(t *testing.T) {
	app := &gateApp{}
	eng := explore.NewEngine(app, explore.Options{TracePackets: 50, Workers: 2, DisableCache: true})
	if _, err := eng.Step1(context.Background(), explore.Configs(app)[0]); err != nil {
		t.Fatal(err)
	}
	if peak := app.peak.Load(); peak > 2 {
		t.Fatalf("observed %d concurrent simulations with Workers=2", peak)
	}
	if st := eng.Stats(); st.Simulated != 100 {
		t.Fatalf("simulated %d, want 100", st.Simulated)
	}
}

func TestEngineCancellation(t *testing.T) {
	app := faultyApp{}
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int64
	opts := explore.Options{
		TracePackets: 50,
		Workers:      2,
		Progress: func(d, total int) {
			if done.Add(1) == 5 {
				cancel()
			}
		},
	}
	_, err := explore.NewEngine(app, opts).Step1(ctx, explore.Configs(app)[0])
	if err != context.Canceled {
		t.Fatalf("cancelled step 1 returned %v, want context.Canceled", err)
	}
	if n := done.Load(); n >= 100 {
		t.Fatalf("all %d simulations completed despite cancellation", n)
	}
}

func TestEngineProgressReachesTotal(t *testing.T) {
	app := faultyApp{}
	var last, calls int
	opts := explore.Options{
		TracePackets: 50,
		Progress: func(done, total int) {
			calls++
			last = done
			if total != 100 {
				t.Errorf("progress total = %d, want 100", total)
			}
		},
	}
	if _, err := explore.NewEngine(app, opts).Step1(context.Background(), explore.Configs(app)[0]); err != nil {
		t.Fatal(err)
	}
	if calls != 100 || last != 100 {
		t.Fatalf("progress calls=%d last=%d, want 100/100", calls, last)
	}
}

func TestEngineStep2SharedEngineReusesStep1Cache(t *testing.T) {
	app := faultyApp{}
	eng := explore.NewEngine(app, explore.Options{TracePackets: 50})
	configs := explore.Configs(app)
	s1, err := eng.Step1(context.Background(), configs[0])
	if err != nil {
		t.Fatal(err)
	}
	s2a, err := eng.Step2(context.Background(), s1, configs)
	if err != nil {
		t.Fatal(err)
	}
	afterFirst := eng.Stats()
	s2b, err := eng.Step2(context.Background(), s1, configs)
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Simulated != afterFirst.Simulated {
		t.Fatalf("repeated step 2 simulated %d new points", st.Simulated-afterFirst.Simulated)
	}
	if s2a.Simulations != s2b.Simulations || len(s2a.Results) != len(s2b.Results) {
		t.Fatal("repeated step 2 changed its reported shape")
	}
}

func TestTombstoneNotReusedAcrossExplorations(t *testing.T) {
	app := drr.App{}
	cache := explore.NewCache()
	ref := explore.Configs(app)[0]

	// DRR has three roles, so dominant k=3 and k=4 explore the identical
	// space: the same 1000 jobs under the same keys.
	first := explore.NewEngine(app, explore.Options{TracePackets: 200, DominantK: 3, Cache: cache, EarlyAbort: true})
	s1, err := first.Step1(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Aborted == 0 {
		t.Fatal("no aborts at this scale; tombstone path not exercised")
	}

	// The second engine guards the same space under another exploration
	// context, so it must not trust the first engine's tombstones: it
	// reuses every finished result and resolves every tombstoned point
	// again.
	second := explore.NewEngine(app, explore.Options{TracePackets: 200, DominantK: 4, Cache: cache, EarlyAbort: true})
	if first.ExploreContext() == second.ExploreContext() {
		t.Fatalf("both engines explore under %q", first.ExploreContext())
	}
	s1b, err := second.Step1(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1b.Results) != len(s1.Results) {
		t.Fatalf("second engine explored %d combinations, first %d", len(s1b.Results), len(s1.Results))
	}
	st := second.Stats()
	if st.CacheHits != len(s1.Results)-s1.Aborted {
		t.Fatalf("second engine served %d points from the cache, want the %d finished ones", st.CacheHits, len(s1.Results)-s1.Aborted)
	}
	if st.Simulated+st.Aborted != s1.Aborted {
		t.Fatalf("second engine ran %d points, want exactly the %d tombstoned ones", st.Simulated+st.Aborted, s1.Aborted)
	}
}

// TestLiveWorkCounters pins the live work counters to the runs they
// count: a Step1 shaped like the paper's exhaustive one (default
// options, nothing pruned or aborted) simulates every combination live,
// so LiveAccesses equals the sum of its results' access counts, and a
// repeated Step1 served from the cache adds nothing to either counter.
func TestLiveWorkCounters(t *testing.T) {
	ctx := context.Background()
	for _, a := range netapps.All() {
		eng := explore.NewEngine(a, explore.Options{TracePackets: 200})
		ref := explore.Configs(a)[0]
		s1, err := eng.Step1(ctx, ref)
		if err != nil {
			t.Fatal(err)
		}
		var accesses uint64
		for _, r := range s1.Results {
			if r.Aborted {
				t.Fatalf("%s: unguarded Step1 aborted %s", a.Name(), r.Assign)
			}
			accesses += uint64(r.Vec.Accesses)
		}
		st := eng.Stats()
		if st.Simulated != len(s1.Results) || st.LiveAccesses != accesses {
			t.Fatalf("%s: %d simulated, LiveAccesses %d; want %d simulated, %d accesses over the results",
				a.Name(), st.Simulated, st.LiveAccesses, len(s1.Results), accesses)
		}
		t.Logf("%s: %d live runs, %d accesses, %d probes", a.Name(), st.Simulated, st.LiveAccesses, st.LiveProbes)
		if st.LiveProbes == 0 {
			t.Fatalf("%s: LiveProbes 0 after %d live runs", a.Name(), st.Simulated)
		}
		if _, err := eng.Step1(ctx, ref); err != nil {
			t.Fatal(err)
		}
		if again := eng.Stats(); again.LiveAccesses != st.LiveAccesses || again.LiveProbes != st.LiveProbes {
			t.Fatalf("%s: a cached Step1 moved the live counters: %+v, then %+v", a.Name(), st, again)
		}
	}
}
