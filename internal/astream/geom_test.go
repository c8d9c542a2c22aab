package astream_test

import (
	"testing"

	"repro/internal/astream"
	"repro/internal/ddt"
	"repro/internal/memsim"
	"repro/internal/platform"
)

// The all-geometry replay property: routing a multi-configuration
// replay through one memsim.GeomSim pass per line-size family must be
// indistinguishable — bit-for-bit — from the per-configuration LineSim
// replays it collapses, on real DDT streams; and the reuse profile the
// pass leaves behind must answer the same configurations (plus the
// wider covered cross product) by pure arithmetic.

// geomSweepConfigs is a same-line-size L1/L2 geometry sweep (sizes x
// associativities) plus two deliberate odd members: a 64-byte-line
// point (its own family) and a non-power-of-two geometry (LineSim
// fallback inside the same call).
func geomSweepConfigs() []memsim.Config {
	base := memsim.DefaultConfig()
	var out []memsim.Config
	for _, l1 := range []uint32{4 << 10, 8 << 10, 16 << 10, 32 << 10} {
		for _, a1 := range []uint32{2, 4} {
			c := base
			c.L1.SizeBytes, c.L1.Assoc = l1, a1
			c.L2.SizeBytes = l1 * 16
			out = append(out, c)
		}
	}
	wide := base
	wide.L1.LineBytes, wide.L2.LineBytes = 64, 64
	out = append(out, wide)
	odd := base
	odd.L1.SizeBytes = 9 << 10 // 144 sets: not a power of two
	out = append(out, odd)
	return out
}

func TestGeomReplayMultiEquivalence(t *testing.T) {
	pc := platform.New(memsim.DefaultConfig())
	rec := astream.NewRecorder()
	pc.Capture(rec)
	ddtOps(pc, ddt.SLLAR, 21, 1500)
	pc.EndCapture()
	st := rec.Finish(false)

	cfgs := geomSweepConfigs()
	multi, profs, err := astream.Replay(st, cfgs, astream.ReplayOpts{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	for k, cfg := range cfgs {
		if want := replayOne(t, st, cfg, nil); multi[k] != want {
			t.Errorf("cfg %d: geom multi-replay %+v != per-config replay %+v", k, multi[k], want)
		}
	}

	// Each configuration's cost must also be derivable from the profile
	// of its line-size family — except the non-power-of-two fallback,
	// which no profile covers.
	covered := 0
	for k, cfg := range cfgs {
		for _, p := range profs {
			if got, ok := astream.CostFromProfile(p, cfg); ok {
				if got != unwalked(multi[k]) {
					t.Errorf("cfg %d: profile cost %+v != replay %+v", k, got, multi[k])
				}
				covered++
				break
			}
		}
	}
	if covered != len(cfgs)-1 {
		t.Errorf("profiles cover %d of %d configs, want all but the non-power-of-two one", covered, len(cfgs))
	}

	// A cross-product configuration the sweep never contained (a
	// profiled L1 geometry with its L2 re-budgeted at the same set
	// count) is served by the profile, exactly.
	novel := cfgs[1]
	novel.L2.SizeBytes, novel.L2.Assoc = 16<<10, 2
	want := replayOne(t, st, novel, nil)
	served := false
	for _, p := range profs {
		if got, ok := astream.CostFromProfile(p, novel); ok {
			if got != unwalked(want) {
				t.Errorf("novel config: profile cost %+v != replay %+v", got, want)
			}
			served = true
		}
	}
	if !served {
		t.Error("novel cross-product config not covered by any profile")
	}
}

// TestGeomComposedMultiEquivalence pins the composed (arena) path: a
// multi-configuration composed replay — unprofiled and profiled alike —
// routed through the all-geometry kernel must match the
// single-configuration composed replay of every member, and the
// profiled pass's reuse profiles must agree.
func TestGeomComposedMultiEquivalence(t *testing.T) {
	const seed, n = 31, 600
	sched, lanes := captureTwoRole(t, ddt.DLLAR, seed, n)
	cfgs := geomSweepConfigs()

	comp := astream.Composition{Sched: sched, Lanes: lanes}
	multi, _, err := astream.Replay(comp, cfgs, astream.ReplayOpts{})
	if err != nil {
		t.Fatal(err)
	}
	unpacked, profs, err := astream.Replay(comp, cfgs, astream.ReplayOpts{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	for k, cfg := range cfgs {
		want := replayOne(t, comp, cfg, nil)
		if multi[k] != want {
			t.Errorf("cfg %d: composed geom multi %+v != composed single %+v", k, multi[k], want)
		}
		if unpacked[k] != want {
			t.Errorf("cfg %d: composed unpacked geom %+v != composed single %+v", k, unpacked[k], want)
		}
		for _, p := range profs {
			if got, ok := astream.CostFromProfile(p, cfg); ok {
				if got != unwalked(want) {
					t.Errorf("cfg %d: composed profile cost %+v != composed single %+v", k, got, want)
				}
				break
			}
		}
	}
}

// TestGeomReplayMultiSteadyStateAllocs pins that the all-geometry
// multi-replay recycles its kernels: after a warm-up call, repeated
// passes over the same configuration family reuse the pooled GeomSim
// (Reset, not rebuild) and allocate only the small fixed plan/result
// slices — no tag stores, no histograms, no batch arrays.
func TestGeomReplayMultiSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled kernels at random by design")
	}
	pc := platform.New(memsim.DefaultConfig())
	rec := astream.NewRecorder()
	pc.Capture(rec)
	ddtOps(pc, ddt.AR, 5, 400)
	pc.EndCapture()
	st := rec.Finish(false)

	cfgs := geomSweepConfigs()[:8] // the pure same-line-size family
	if _, _, err := astream.Replay(st, cfgs, astream.ReplayOpts{}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := astream.Replay(st, cfgs, astream.ReplayOpts{}); err != nil {
			t.Fatal(err)
		}
	})
	// Expected steady state: the result slice, the plan's family/index
	// slices and the pool round trip — around ten small allocations,
	// independent of
	// stream length and geometry sizes. A kernel rebuild instead of a
	// Reset costs 80+ allocations, which is what this guards.
	if allocs > 40 {
		t.Errorf("steady-state geom multi-config Replay allocates %.1f objects/op, want <= 40", allocs)
	}
}
