package explore_test

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/apps/netapps"
	"repro/internal/explore"
	"repro/internal/memsim"
)

// BenchmarkSampledExploration pins the tentpole claim of SHARDS-sampled
// screening on a long trace: re-exploring the 3-role IPchains grid
// (10^3 = 1000 combinations) over a 40000-packet trace — 100x the
// composed-exploration benchmark's — on a platform the cache has no
// results for, the two-phase screened run (sample + verify) must beat
// the exact composed run by >= 10x at the default 1/64 rate, with the
// phase-two verified front bit-identical in membership to the exact
// arm's (asserted here per run, and pinned across rates by
// TestScreenedFrontMatchesExact).
//
// Both arms start from the same persisted lane snapshot and execute
// nothing. The exact arm pays one full composed probe pass per
// combination. The screened arm estimates every combination from the
// lanes' memoized 1/64-sampled views, discards what the widened bounds
// and interval front dominate, defers what the face-value bound
// dominates, and re-runs only the handful of surviving candidates
// exactly — most of which the exact front then disposes of by bound
// cut or completion-bound abort before the replay finishes.
func BenchmarkSampledExploration(b *testing.B) {
	const packets = 40000
	const rate = 1.0 / 64
	a, err := netapps.ByName("IPchains")
	if err != nil {
		b.Fatal(err)
	}
	ref := explore.Config{TraceName: a.TraceNames()[0], Knobs: a.DefaultKnobs()}

	// Prior exploration (untimed) leaves the ~10·K lanes, their sampled
	// views' stream material and the reference profile behind; snapshot
	// so every iteration starts from the same warm lanes with no
	// memoized platform-B results. The stream budget must hold the 40k
	// lanes — the default would evict them from the snapshot.
	prep := explore.NewCache()
	prep.SetStreamBudget(8 << 30)
	warm := explore.Options{TracePackets: packets, DominantK: 3, SampleRate: rate, Cache: prep}
	if _, err := explore.NewEngine(a, warm).Step1(context.Background(), ref); err != nil {
		b.Fatal(err)
	}
	var snapshot bytes.Buffer
	if err := prep.SaveWithStreams(&snapshot); err != nil {
		b.Fatal(err)
	}
	// Only the serialized snapshot is needed from here on. Dropping the
	// prep cache (and collecting any garbage earlier benchmarks in this
	// binary left behind) keeps GC tracing a multi-gigabyte dead heap
	// out of both measured arms.
	prep = nil
	runtime.GC()
	// Re-explore on a desktop-class platform outside the default sweep
	// range; its front keeps verification candidates near-distinct so
	// phase two settles almost everything by bound cut, not replay.
	other := memsim.DefaultConfig()
	other.L1.SizeBytes = 64 << 10
	other.L2.SizeBytes = 1 << 20

	load := func(b *testing.B) *explore.Cache {
		b.Helper()
		c := explore.NewCache()
		c.SetStreamBudget(8 << 30)
		if err := c.Load(bytes.NewReader(snapshot.Bytes())); err != nil {
			b.Fatal(err)
		}
		return c
	}
	run := func(b *testing.B, opts explore.Options) (time.Duration, explore.EngineStats, *explore.Step1Result) {
		b.Helper()
		eng := explore.NewEngine(a, opts)
		// The reference profiling pass that picks the dominant roles is
		// identical in both arms — run it untimed so the measurement
		// compares the combination searches alone.
		if _, err := eng.Profile(context.Background(), ref); err != nil {
			b.Fatal(err)
		}
		t0 := time.Now()
		s1, err := eng.Step1(context.Background(), ref)
		if err != nil {
			b.Fatal(err)
		}
		if len(s1.Results) != 1000 {
			b.Fatalf("expected 1000 combinations, got %d", len(s1.Results))
		}
		return time.Since(t0), eng.Stats(), s1
	}

	for i := 0; i < b.N; i++ {
		screened, sst, ss1 := run(b, explore.Options{TracePackets: packets, DominantK: 3, SampleRate: rate,
			Cache: load(b), Platform: &other})
		runtime.GC() // the screened arm's cache is garbage now; don't bill the exact arm for it
		exact, est, es1 := run(b, explore.Options{TracePackets: packets, DominantK: 3, Arenas: true,
			Cache: load(b), Platform: &other})
		if est.Simulated != 0 || sst.Simulated != 0 {
			b.Fatalf("warm arms executed %d/%d simulations", est.Simulated, sst.Simulated)
		}
		if sst.Sampled == 0 {
			b.Fatal("screened arm sampled nothing")
		}
		if ss1.Screened+ss1.Verified+ss1.Pruned+ss1.Aborted != 1000 {
			b.Fatalf("screening accounts for %d+%d+%d+%d of 1000",
				ss1.Screened, ss1.Verified, ss1.Pruned, ss1.Aborted)
		}
		// The verified front must be bit-identical in membership to the
		// exact arm's — screening is a scheduling optimization, not an
		// approximation of the answer.
		want := make(map[string]bool, len(es1.Survivors))
		for _, r := range es1.Survivors {
			want[r.Assign.String()] = true
		}
		if len(ss1.Survivors) != len(want) {
			b.Fatalf("screened front has %d members, exact %d", len(ss1.Survivors), len(want))
		}
		for _, r := range ss1.Survivors {
			if !want[r.Assign.String()] {
				b.Fatalf("screened survivor %s not on the exact front", r.Assign)
			}
		}
		b.ReportMetric(float64(exact.Milliseconds()), "exact-ms")
		b.ReportMetric(float64(screened.Milliseconds()), "screened-ms")
		b.ReportMetric(float64(exact)/float64(screened), "speedup-x")
		b.ReportMetric(float64(ss1.Verified), "verified")
		b.ReportMetric(float64(ss1.Pruned)/1000, "prune-ratio")
		b.ReportMetric(ss1.SampleRate, "sample-rate")
	}
}
