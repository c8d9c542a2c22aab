package sweep_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/apps/route"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/sweep"
)

// The capture-once / replay-many benchmarks, pinning the three levels of
// the tentpole claim on Route:
//
//   - BenchmarkSweepReplayVsExecute: a cold 5-platform sweep (capture on
//     the first platform, warm multi-replay for the rest) against five
//     independent full methodology executions. The capture run and the
//     per-platform cache-model probes bound this end-to-end ratio.
//   - BenchmarkSweepExtendReplay: extending an already-captured
//     exploration to five new platform points — the warm `-replay-cache`
//     scenario — against five full executions.
//   - BenchmarkSweepBestComboPlatforms: the co-design question itself —
//     the methodology's recommended (best-energy) combination evaluated
//     across five candidate platforms in one multi-config replay of its
//     captured stream, against five full executions of the application.
//     This is the per-point "N-platform sweep via replay instead of N
//     executions" ratio; the recommended combinations are array/chunked
//     DDTs whose streams replay far faster than they execute.
//
// All replayed vectors are bit-identical to live simulation (pinned by
// the replay-equivalence property tests), so every speedup here is free
// of accuracy loss.

// sweepBenchPlatforms returns the five candidate platforms the
// benchmarks evaluate: the default set minus the embedded reference the
// capture runs on.
func sweepBenchPlatforms() []sweep.PlatformPoint {
	pts := sweep.DefaultPlatforms()
	return []sweep.PlatformPoint{pts[0], pts[2], pts[3], pts[4], pts[5]}
}

func BenchmarkSweepReplayVsExecute(b *testing.B) {
	const packets = 1200
	app := route.App{}
	platforms := sweep.DefaultPlatforms()[:5]

	for i := 0; i < b.N; i++ {
		// Baseline: N independent full executions of the methodology,
		// one per platform, exactly as a sweep ran before capture/replay.
		t0 := time.Now()
		for _, pp := range platforms {
			cfg := pp.Config
			m := core.Methodology{App: app, Opts: explore.Options{TracePackets: packets, Platform: &cfg}}
			if _, err := m.Run(); err != nil {
				b.Fatal(err)
			}
		}
		execute := time.Since(t0)

		// Replay: the sweep shares one cache, captures on the first
		// platform and serves the rest from the warm multi-replay pass.
		t1 := time.Now()
		results, err := sweep.Run(app, platforms, explore.Options{TracePackets: packets})
		if err != nil {
			b.Fatal(err)
		}
		replay := time.Since(t1)

		warmed := 0
		for _, r := range results {
			warmed += r.Warmed
		}
		b.ReportMetric(float64(execute.Milliseconds()), "execute-ms")
		b.ReportMetric(float64(replay.Milliseconds()), "replay-ms")
		b.ReportMetric(float64(execute)/float64(replay), "speedup-x")
		b.ReportMetric(float64(warmed), "warmed-evals")
	}
}

func BenchmarkSweepExtendReplay(b *testing.B) {
	const packets = 1200
	app := route.App{}
	newPts := sweepBenchPlatforms()

	for i := 0; i < b.N; i++ {
		// Prior exploration (untimed): the methodology that captured the
		// streams — the state a sweep or a `-replay-cache` file leaves
		// behind.
		cache := explore.NewCache()
		base := explore.Options{TracePackets: packets, Cache: cache}
		if _, err := sweep.Run(app, sweep.DefaultPlatforms()[1:2], base); err != nil {
			b.Fatal(err)
		}

		t0 := time.Now()
		if _, err := sweep.Run(app, newPts, base); err != nil {
			b.Fatal(err)
		}
		replay := time.Since(t0)

		t1 := time.Now()
		for _, pp := range newPts {
			cfg := pp.Config
			m := core.Methodology{App: app, Opts: explore.Options{TracePackets: packets, Platform: &cfg}}
			if _, err := m.Run(); err != nil {
				b.Fatal(err)
			}
		}
		execute := time.Since(t1)

		b.ReportMetric(float64(execute.Milliseconds()), "execute-ms")
		b.ReportMetric(float64(replay.Milliseconds()), "replay-ms")
		b.ReportMetric(float64(execute)/float64(replay), "speedup-x")
	}
}

func BenchmarkSweepBestComboPlatforms(b *testing.B) {
	const packets = 4000
	app := route.App{}

	// The exploration that recommends the combination and, as a side
	// effect of capture, leaves its access stream in the cache (untimed).
	cache := explore.NewCache()
	opts := explore.Options{TracePackets: packets, Cache: cache}
	eng := explore.NewEngine(app, opts)
	rep, err := (core.Methodology{App: app, Opts: opts, Engine: eng}).Run()
	if err != nil {
		b.Fatal(err)
	}
	best := rep.Step1.Survivors[0].Assign
	for _, sv := range rep.Step1.Survivors {
		if sv.Label() == rep.BestEnergy.Label {
			best = sv.Assign
		}
	}
	pts := sweepBenchPlatforms()
	cfgs := make([]memsim.Config, len(pts))
	for i, pp := range pts {
		cfgs[i] = pp.Config
	}

	// Both phases are a few milliseconds, so each iteration takes the
	// best of three runs after a GC to keep single-shot (-benchtime=1x)
	// results out of the allocator's noise.
	for i := 0; i < b.N; i++ {
		runtime.GC()
		var replay, execute time.Duration
		var vecs []metrics.Vector
		for rep3 := 0; rep3 < 3; rep3++ {
			t0 := time.Now()
			v, err := eng.EvaluatePlatforms(context.Background(), rep.Reference, best, cfgs)
			if err != nil {
				b.Fatal(err)
			}
			if d := time.Since(t0); replay == 0 || d < replay {
				replay = d
			}
			vecs = v
		}
		for rep3 := 0; rep3 < 3; rep3++ {
			t1 := time.Now()
			for k := range cfgs {
				c := cfgs[k]
				r, err := explore.Simulate(app, rep.Reference, best, explore.Options{TracePackets: packets, Platform: &c})
				if err != nil {
					b.Fatal(err)
				}
				if r.Vec != vecs[k] {
					b.Fatalf("platform %d: replay %v != live %v", k, vecs[k], r.Vec)
				}
			}
			if d := time.Since(t1); execute == 0 || d < execute {
				execute = d
			}
		}

		b.ReportMetric(float64(execute.Microseconds())/1000, "execute-ms")
		b.ReportMetric(float64(replay.Microseconds())/1000, "replay-ms")
		b.ReportMetric(float64(execute)/float64(replay), "speedup-x")
	}
}
