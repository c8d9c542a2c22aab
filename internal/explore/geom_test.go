package explore_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/netapps"
	"repro/internal/astream"
	"repro/internal/ddt"
	"repro/internal/explore"
	"repro/internal/memsim"
	"repro/internal/platform"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// The engine-level all-geometry properties: EvaluatePlatforms and
// ReplayPlatforms group platform points into line-size families, cost
// each family with one GeomSim pass (or zero, from a cached reuse
// profile), and every vector they produce is bit-identical to a live
// simulation of that platform.

const geomPackets = 300

func geomTestApp(t *testing.T) (apps.App, explore.Config, apps.Assignment) {
	t.Helper()
	a, err := netapps.ByName("URL")
	if err != nil {
		t.Fatal(err)
	}
	return a, explore.Config{TraceName: a.TraceNames()[0], Knobs: a.DefaultKnobs()}, apps.Original(a)
}

func liveVec(t *testing.T, a apps.App, cfg explore.Config, assign apps.Assignment, pc memsim.Config) explore.Result {
	t.Helper()
	r, err := explore.Simulate(a, cfg, assign, explore.Options{TracePackets: geomPackets, Platform: &pc})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// defaultSweepConfigs returns the default platform points' configs.
func defaultSweepConfigs() []memsim.Config {
	pts := sweep.DefaultPlatforms()
	cfgs := make([]memsim.Config, len(pts))
	for i, pp := range pts {
		cfgs[i] = pp.Config
	}
	return cfgs
}

// crossProductVariants are platform points the default sweep never
// contained but its 32-byte-line reuse profile covers: profiled L1
// geometries with their L2s re-budgeted at profiled set counts, under
// the tracked associativity depth.
func crossProductVariants() []memsim.Config {
	cfgs := defaultSweepConfigs()
	v1 := cfgs[1] // embedded L1, 256K 16-way L2 (sets 512: profiled for this L1)
	v1.L2.SizeBytes, v1.L2.Assoc = 256<<10, 16
	v2 := cfgs[0] // tiny L1, 128K 16-way L2 (sets 256: profiled for this L1)
	v2.L2.SizeBytes, v2.L2.Assoc = 128<<10, 16
	v3 := cfgs[5] // midrange L1, 1M 16-way L2 (sets 2048: profiled for this L1)
	v3.L2.SizeBytes, v3.L2.Assoc = 1<<20, 16
	return []memsim.Config{v1, v2, v3}
}

// TestGeomReplayMatchesLiveAllApps is the acceptance property of the
// all-geometry kernel: for every case-study application with a random
// DDT combination, one GeomSim pass over the captured stream must
// reproduce — per configuration, bit-for-bit — the Counts, Cycles and
// Peak of both the per-config LineSim replay it collapses and a live
// simulation, across every default sweep platform; and the same holds
// on the composed (arena) path from per-role lanes, including the reuse
// profiles either pass leaves behind.
func TestGeomReplayMatchesLiveAllApps(t *testing.T) {
	pts := sweep.DefaultPlatforms()
	cfgs := make([]memsim.Config, len(pts))
	for i, pp := range pts {
		cfgs[i] = pp.Config
	}
	for ai, a := range netapps.All() {
		a := a
		seed := int64(101 + ai)
		t.Run(a.Name(), func(t *testing.T) {
			t.Parallel()
			cfg := explore.Config{TraceName: a.TraceNames()[0], Knobs: a.DefaultKnobs()}
			rng := rand.New(rand.NewSource(seed))
			assign := make(apps.Assignment)
			for _, r := range a.Roles() {
				assign[r.Name] = ddt.Kind(rng.Intn(ddt.NumKinds))
			}
			tr, err := trace.Builtin(cfg.TraceName, composePackets)
			if err != nil {
				t.Fatal(err)
			}

			// Flat path: capture once on the default platform.
			pc := platform.New(memsim.DefaultConfig())
			rec := astream.NewRecorder()
			pc.Capture(rec)
			if _, err := a.Run(tr, pc, assign, cfg.Knobs, nil); err != nil {
				t.Fatal(err)
			}
			pc.EndCapture()
			st := rec.Finish(false)

			costs, profs, err := astream.Replay(st, cfgs, astream.ReplayOpts{Profile: true})
			if err != nil {
				t.Fatal(err)
			}
			for i, mc := range cfgs {
				want := replayOne(t, st, mc)
				if costs[i] != want {
					t.Errorf("%s: geom pass %+v != per-config replay %+v", pts[i].Name, costs[i], want)
				}
				live := platform.New(mc)
				if _, err := a.Run(tr, live, assign, cfg.Knobs, nil); err != nil {
					t.Fatal(err)
				}
				if costs[i].Counts != live.Mem.Counts() || costs[i].Cycles != live.Mem.Cycles() ||
					costs[i].Peak != live.Heap.PeakLiveBytes() {
					t.Errorf("%s: geom pass diverged from live simulation", pts[i].Name)
				}
				for _, p := range profs {
					if got, ok := astream.CostFromProfile(p, mc); ok && got != unwalked(want) {
						t.Errorf("%s: profile cost %+v != replay %+v", pts[i].Name, got, want)
					}
				}
			}

			// Composed (arena) path for every app with >= 2 roles.
			if len(a.Roles()) < 2 {
				return
			}
			sched, lanes := captureComposedRun(t, a, cfg, assign)
			comp := astream.Composition{Sched: sched, Lanes: lanes}
			ccosts, cprofs, err := astream.Replay(comp, cfgs, astream.ReplayOpts{Profile: true})
			if err != nil {
				t.Fatal(err)
			}
			for i, mc := range cfgs {
				want := replayOne(t, comp, mc)
				if ccosts[i] != want {
					t.Errorf("%s composed: geom pass %+v != per-config %+v", pts[i].Name, ccosts[i], want)
				}
				live := runArena(t, a, cfg, assign, mc)
				if ccosts[i].Counts != live.Mem.Counts() || ccosts[i].Cycles != live.Mem.Cycles() ||
					ccosts[i].Peak != live.Heap.PeakLiveBytes() {
					t.Errorf("%s composed: geom pass diverged from arena live", pts[i].Name)
				}
				for _, p := range cprofs {
					if got, ok := astream.CostFromProfile(p, mc); ok && got != unwalked(want) {
						t.Errorf("%s composed: profile cost %+v != replay %+v", pts[i].Name, got, want)
					}
				}
			}
		})
	}
}

// TestEvaluatePlatformsProfileWarm pins the three-tier platform
// evaluation: a cold call captures once and pays one all-geometry probe
// pass per line-size family; the reuse profiles it caches then answer a
// warm sweep over the covered cross product with zero executions and
// zero probe passes — even after the streams themselves were evicted —
// and every vector equals live simulation.
func TestEvaluatePlatformsProfileWarm(t *testing.T) {
	a, ref, assign := geomTestApp(t)
	cache := explore.NewCache()
	opts := explore.Options{TracePackets: geomPackets, Cache: cache}
	eng := explore.NewEngine(a, opts)

	cfgs := defaultSweepConfigs()
	vecs, err := eng.EvaluatePlatforms(context.Background(), ref, assign, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, pc := range cfgs {
		if live := liveVec(t, a, ref, assign, pc); live.Vec != vecs[i] {
			t.Errorf("platform %d: geom replay %+v != live %+v", i, vecs[i], live.Vec)
		}
	}
	st := eng.Stats()
	if st.Simulated != 1 || st.Replayed != len(cfgs) || st.Profiled != 0 {
		t.Errorf("cold stats: %+v, want 1 execution, %d replayed, 0 profiled", st, len(cfgs))
	}

	// Evict the streams; the profiles (a few KB) must survive them.
	cache.SetStreamBudget(8 << 10)
	cs := cache.Stats()
	if cs.Streams != 0 {
		t.Fatalf("streams not evicted: %d retained", cs.Streams)
	}
	if cs.ReuseProfiles == 0 {
		t.Fatal("reuse profiles evicted with the streams")
	}

	// A fresh engine on the shared cache: cross-product variants are
	// answered by profile arithmetic alone.
	eng2 := explore.NewEngine(a, opts)
	variants := crossProductVariants()
	vecs2, err := eng2.EvaluatePlatforms(context.Background(), ref, assign, variants)
	if err != nil {
		t.Fatal(err)
	}
	for i, pc := range variants {
		if live := liveVec(t, a, ref, assign, pc); live.Vec != vecs2[i] {
			t.Errorf("variant %d: profile cost %+v != live %+v", i, vecs2[i], live.Vec)
		}
	}
	st2 := eng2.Stats()
	if st2.Profiled != len(variants) || st2.Simulated != 0 || st2.Replayed != 0 {
		t.Errorf("warm stats: %+v, want %d profile-served and nothing else", st2, len(variants))
	}

	// A family the profile covers only in part is not profile-served:
	// the whole family is probed from a fresh capture, exactly.
	uncovered := cfgs[1]
	uncovered.L1.SizeBytes, uncovered.L2.SizeBytes = 512<<10, 8<<20 // an L1 set count no default platform has
	mixed := []memsim.Config{variants[0], uncovered}
	eng3 := explore.NewEngine(a, opts)
	vecs3, err := eng3.EvaluatePlatforms(context.Background(), ref, assign, mixed)
	if err != nil {
		t.Fatal(err)
	}
	for i, pc := range mixed {
		if live := liveVec(t, a, ref, assign, pc); live.Vec != vecs3[i] {
			t.Errorf("mixed %d: %+v != live %+v", i, vecs3[i], live.Vec)
		}
	}
	if st3 := eng3.Stats(); st3.Simulated != 1 || st3.Replayed != len(mixed) || st3.Profiled != 0 {
		t.Errorf("partly covered stats: %+v, want 1 execution and %d replayed", st3, len(mixed))
	}
}

// TestReplayPlatformsProfileServed pins the warm-pass counterpart: the
// first ReplayPlatforms over a family pays one probe pass per stream
// and caches the profiles; extending the sweep to covered variants is
// then served from profiles (zero decode, zero probes), with results
// identical to live simulation.
func TestReplayPlatformsProfileServed(t *testing.T) {
	a, ref, assign := geomTestApp(t)
	cache := explore.NewCache()
	opts := explore.Options{TracePackets: geomPackets, Cache: cache}
	eng := explore.NewEngine(a, opts)
	if _, err := eng.Simulate(context.Background(), ref, assign); err != nil {
		t.Fatal(err)
	}
	other := apps.Original(a)
	for _, role := range a.Roles() {
		other[role.Name] = (apps.OriginalKind + 1) % 10
		break
	}
	if _, err := eng.Simulate(context.Background(), ref, other); err != nil {
		t.Fatal(err)
	}

	// The engine's own runs already filled the reference platform
	// (defaultSweepConfigs()[1]) for both streams, so the warm pass owes
	// one evaluation fewer per stream.
	cfgs := defaultSweepConfigs()
	if n := explore.ReplayPlatforms(cache, cfgs); n != 2*len(cfgs)-2 {
		t.Fatalf("warm pass performed %d evaluations, want %d", n, 2*len(cfgs)-2)
	}
	if cache.Stats().ReuseProfiles == 0 {
		t.Fatal("warm pass left no reuse profiles")
	}

	// Extending the sweep to cross-product variants must be profile
	// arithmetic: the profile-hit counter moves, and results are exact.
	// The second extension repeats the first variant, whose results
	// exist, so it owes one evaluation fewer per stream.
	before := cache.Stats().ProfileHits
	variants := crossProductVariants()
	if n := explore.ReplayPlatforms(cache, variants[:1]); n != 2 {
		t.Fatalf("first extension performed %d evaluations, want 2", n)
	}
	if n := explore.ReplayPlatforms(cache, variants); n != 2*len(variants)-2 {
		t.Fatalf("extension performed %d evaluations, want %d", n, 2*len(variants)-2)
	}
	if after := cache.Stats().ProfileHits; after <= before {
		t.Errorf("extension did not hit reuse profiles (%d -> %d)", before, after)
	}

	// Every stored result — family members and variants alike — must be
	// the exact live vector, served as a cache hit.
	for _, pc := range append(append([]memsim.Config{}, cfgs...), variants...) {
		pc := pc
		o := explore.Options{TracePackets: geomPackets, Cache: cache, Platform: &pc}
		hitEng := explore.NewEngine(a, o)
		r, err := hitEng.Simulate(context.Background(), ref, assign)
		if err != nil {
			t.Fatal(err)
		}
		if hs := hitEng.Stats(); hs.CacheHits != 1 || hs.Simulated != 0 {
			t.Fatalf("platform %+v not served from the warm pass: %+v", pc.L1, hs)
		}
		if live := liveVec(t, a, ref, assign, pc); live.Vec != r.Vec {
			t.Errorf("platform %+v: warm-pass result %+v != live %+v", pc.L1, r.Vec, live.Vec)
		}
	}
}

// TestComposePlatformsProfileWarm pins the composed counterpart: after
// a composed exploration, EvaluatePlatforms costs a platform sweep from
// lanes with one all-geometry pass per family, and a repeat sweep over
// covered geometries is pure profile arithmetic.
func TestComposePlatformsProfileWarm(t *testing.T) {
	a, err := netapps.ByName("URL")
	if err != nil {
		t.Fatal(err)
	}
	ref := explore.Config{TraceName: a.TraceNames()[0], Knobs: a.DefaultKnobs()}
	cache := explore.NewCache()
	opts := explore.Options{TracePackets: geomPackets, DominantK: 2, Arenas: true, Cache: cache}
	eng := explore.NewEngine(a, opts)
	s1, err := eng.Step1(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	best := s1.Survivors[0].Assign

	cfgs := defaultSweepConfigs()
	vecs, err := eng.EvaluatePlatforms(context.Background(), ref, best, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, pc := range cfgs {
		r, err := explore.Simulate(a, ref, best, explore.Options{TracePackets: geomPackets, Platform: &pc, Arenas: true})
		if err != nil {
			t.Fatal(err)
		}
		if r.Vec != vecs[i] {
			t.Errorf("platform %d: composed geom %+v != arena live %+v", i, vecs[i], r.Vec)
		}
	}
	composedBefore := eng.Stats().Composed

	// Repeat on a fresh engine: the composed-identity profiles answer
	// the same family without touching the lanes.
	eng2 := explore.NewEngine(a, opts)
	vecs2, err := eng2.EvaluatePlatforms(context.Background(), ref, best, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		if vecs[i] != vecs2[i] {
			t.Errorf("platform %d: profile repeat %+v != composed %+v", i, vecs2[i], vecs[i])
		}
	}
	st2 := eng2.Stats()
	if st2.Profiled != len(cfgs) || st2.Composed != 0 || st2.Simulated != 0 {
		t.Errorf("warm composed stats: %+v, want all %d profile-served", st2, len(cfgs))
	}
	_ = composedBefore
}
