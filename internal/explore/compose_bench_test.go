package explore_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/apps/netapps"
	"repro/internal/explore"
	"repro/internal/memsim"
	"repro/internal/sweep"
)

// BenchmarkComposedExploration pins the tentpole claim of compositional
// capture on a 3-role space: the full application-level exploration of
// DRR (10^3 = 1000 combinations of the flows, packet-queue and
// class-stats containers) evaluated by composing per-role sub-streams
// against the same exploration running every combination as a live
// simulation. Both arms use the per-role-arena address model; composed
// results are bit-identical to live ones (pinned by
// TestEngineComposeMatchesArenaLive).
//
//   - cold: both arms start from nothing. The composed arm pays its own
//     lane captures (~10·K of the 1000 points execute; the `captures`
//     metric pins the 36x execution reduction) before composition
//     serves the rest.
//   - warm-new-platform: the lanes already exist (an earlier exploration
//     captured them — the persistent `-replay-cache` / sweep scenario)
//     and the space is re-explored on a platform the cache has no
//     results for. Composition serves every point with zero executions;
//     the live arm must re-execute all 1000.
func BenchmarkComposedExploration(b *testing.B) {
	const packets = 400
	a, err := netapps.ByName("DRR")
	if err != nil {
		b.Fatal(err)
	}
	ref := explore.Config{TraceName: a.TraceNames()[0], Knobs: a.DefaultKnobs()}

	liveStep1 := func(b *testing.B, platform *memsim.Config) time.Duration {
		b.Helper()
		t0 := time.Now()
		opts := explore.Options{TracePackets: packets, DominantK: 3, Arenas: true, DisableCache: true, Platform: platform}
		if _, err := explore.NewEngine(a, opts).Step1(context.Background(), ref); err != nil {
			b.Fatal(err)
		}
		return time.Since(t0)
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			live := liveStep1(b, nil)

			t1 := time.Now()
			compOpts := explore.Options{TracePackets: packets, DominantK: 3, Arenas: true}
			compEng := explore.NewEngine(a, compOpts)
			s1, err := compEng.Step1(context.Background(), ref)
			if err != nil {
				b.Fatal(err)
			}
			composed := time.Since(t1)

			st := compEng.Stats()
			if len(s1.Results) != 1000 {
				b.Fatalf("expected 1000 combinations, got %d", len(s1.Results))
			}
			b.ReportMetric(float64(live.Milliseconds()), "live-ms")
			b.ReportMetric(float64(composed.Milliseconds()), "composed-ms")
			b.ReportMetric(float64(live)/float64(composed), "speedup-x")
			b.ReportMetric(float64(st.Simulated), "captures")
		}
	})

	b.Run("warm-new-platform", func(b *testing.B) {
		// Prior exploration (untimed) leaves the ~10·K lanes behind;
		// snapshot them so every iteration starts from the same warm
		// lanes with no memoized platform-B results.
		prep := explore.NewCache()
		warm := explore.Options{TracePackets: packets, DominantK: 3, Arenas: true, Cache: prep}
		if _, err := explore.NewEngine(a, warm).Step1(context.Background(), ref); err != nil {
			b.Fatal(err)
		}
		var snapshot bytes.Buffer
		if err := prep.SaveWithStreams(&snapshot); err != nil {
			b.Fatal(err)
		}
		other := sweep.DefaultPlatforms()[5].Config // midrange-32K-512K

		for i := 0; i < b.N; i++ {
			live := liveStep1(b, &other)

			cache := explore.NewCache()
			if err := cache.Load(bytes.NewReader(snapshot.Bytes())); err != nil {
				b.Fatal(err)
			}
			t1 := time.Now()
			compOpts := explore.Options{TracePackets: packets, DominantK: 3, Arenas: true, Cache: cache, Platform: &other}
			compEng := explore.NewEngine(a, compOpts)
			if _, err := compEng.Step1(context.Background(), ref); err != nil {
				b.Fatal(err)
			}
			composed := time.Since(t1)

			st := compEng.Stats()
			if st.Simulated != 0 {
				b.Fatalf("warm composition executed %d simulations", st.Simulated)
			}
			b.ReportMetric(float64(live.Milliseconds()), "live-ms")
			b.ReportMetric(float64(composed.Milliseconds()), "composed-ms")
			b.ReportMetric(float64(live)/float64(composed), "speedup-x")
		}
	})
}
