package astream_test

import (
	"testing"
	"time"

	"repro/internal/astream"
	"repro/internal/memsim"
)

// BenchmarkGeomSweep pins the tentpole claim of the single-pass
// all-geometry kernel on a real Route stream: a same-line-size
// multi-platform sweep (L1 sizes 4–32K x 2/4-way, with L2 scaled)
// evaluated by one GeomSim pass against the per-configuration LineSim
// replays it replaces (one unprofiled single-configuration Replay per
// point, each its own decode and LineSim pass), plus the two derived tiers — the profiled pass
// (same walk, reuse profile retained) and the warm profile-only sweep,
// which is pure arithmetic: zero decode passes, zero probe passes.
// All four arms produce bit-identical costs (asserted every iteration).
func BenchmarkGeomSweep(b *testing.B) {
	tr := routeTrace(b)
	s := captureRoute(b, tr)
	cfgs := geomBenchFamily()

	for i := 0; i < b.N; i++ {
		var perConfig, geom, profiled, profileOnly time.Duration
		var want, got []astream.Cost
		var profs []*memsim.ReuseProfile
		var err error
		// Best-of-3 per arm: single-shot CI runs (-benchtime=1x) are
		// allocator noise otherwise, as in BenchmarkSweepBestComboPlatforms.
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			want = want[:0]
			for _, cfg := range cfgs {
				c, _, err := astream.Replay(s, []memsim.Config{cfg}, astream.ReplayOpts{})
				if err != nil {
					b.Fatal(err)
				}
				want = append(want, c[0])
			}
			if d := time.Since(t0); perConfig == 0 || d < perConfig {
				perConfig = d
			}

			t1 := time.Now()
			got, _, err = astream.Replay(s, cfgs, astream.ReplayOpts{})
			if err != nil {
				b.Fatal(err)
			}
			if d := time.Since(t1); geom == 0 || d < geom {
				geom = d
			}

			t2 := time.Now()
			got2, ps, err := astream.Replay(s, cfgs, astream.ReplayOpts{Profile: true})
			if err != nil {
				b.Fatal(err)
			}
			if d := time.Since(t2); profiled == 0 || d < profiled {
				profiled = d
			}
			profs = ps

			t3 := time.Now()
			got3 := make([]astream.Cost, len(cfgs))
			for k, cfg := range cfgs {
				c, ok := astream.CostFromProfile(profs[0], cfg)
				if !ok {
					b.Fatalf("profile does not cover family member %d", k)
				}
				got3[k] = c
			}
			if d := time.Since(t3); profileOnly == 0 || d < profileOnly {
				profileOnly = d
			}

			for k := range cfgs {
				if got[k] != want[k] || got2[k] != want[k] || got3[k] != unwalked(want[k]) {
					b.Fatalf("cfg %d: arms disagree (geom %+v, profiled %+v, profile-only %+v, per-config %+v)",
						k, got[k], got2[k], got3[k], want[k])
				}
			}
		}

		b.ReportMetric(float64(perConfig.Microseconds())/1000, "per-config-ms")
		b.ReportMetric(float64(geom.Microseconds())/1000, "geom-ms")
		b.ReportMetric(float64(profiled.Microseconds())/1000, "geom-profiled-ms")
		b.ReportMetric(float64(profileOnly.Microseconds()), "profile-only-us")
		b.ReportMetric(float64(perConfig)/float64(geom), "speedup-x")
		b.ReportMetric(0, "warm-probe-passes")
	}
}

// geomBenchFamily is the benchmark's same-line-size geometry sweep:
// eight L1 points (4–32K, 2- and 4-way) crossed with two L2 budgets
// (16x and 32x the L1) — sixteen platform points, the co-design grid
// "which hierarchy fits this workload" asked honestly of one captured
// stream. The sixteen points share five distinct L1 set counts, which
// is exactly the collapse the single-pass kernel exploits.
func geomBenchFamily() []memsim.Config {
	base := memsim.DefaultConfig()
	var out []memsim.Config
	for _, l1 := range []uint32{4 << 10, 8 << 10, 16 << 10, 32 << 10} {
		for _, a1 := range []uint32{2, 4} {
			for _, l2x := range []uint32{16, 32} {
				c := base
				c.L1.SizeBytes, c.L1.Assoc = l1, a1
				c.L2.SizeBytes = l1 * l2x
				out = append(out, c)
			}
		}
	}
	return out
}
