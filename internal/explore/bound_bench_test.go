package explore_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/apps/netapps"
	"repro/internal/explore"
	"repro/internal/sweep"
)

// BenchmarkBoundPrunedExploration pins the claim of LINEAR bound-guided
// combination search on the 3-role DRR grid (10^3 = 1000 combinations):
// summing each lane's isolated reuse-profile bound and discarding
// combinations the live front already dominates must beat the PR-4
// composed path — which still pays one composed probe pass per
// combination — by >= 2x cold, with the survivor front bit-identical
// (pinned by TestBoundPrunedDRRGrid). The pruned arm is the default
// branch-and-bound search; BenchmarkBranchBoundExploration measures it
// on FlowMon's 10^5-combination space too.
//
//   - cold: both arms start from nothing and pay their own ~10·K lane
//     captures; the pruned arm additionally pays ~10·K isolated lane
//     profile passes, then answers pruned combinations with pure
//     arithmetic plus a zero-probe footprint walk.
//   - warm-new-platform: the lanes already exist (persistent
//     `-replay-cache` / sweep scenario) and the space is re-explored on
//     a platform the cache has no results for. Both arms execute
//     nothing; the pruned arm re-profiles the ~10·K lanes for the new
//     geometry and prunes the rest.
func BenchmarkBoundPrunedExploration(b *testing.B) {
	const packets = 400
	a, err := netapps.ByName("DRR")
	if err != nil {
		b.Fatal(err)
	}
	ref := explore.Config{TraceName: a.TraceNames()[0], Knobs: a.DefaultKnobs()}

	run := func(b *testing.B, opts explore.Options) (time.Duration, explore.EngineStats) {
		b.Helper()
		eng := explore.NewEngine(a, opts)
		t0 := time.Now()
		s1, err := eng.Step1(context.Background(), ref)
		if err != nil {
			b.Fatal(err)
		}
		if s1.Simulations != 1000 {
			b.Fatalf("expected 1000 combinations, got %d", s1.Simulations)
		}
		return time.Since(t0), eng.Stats()
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			composed, _ := run(b, explore.Options{TracePackets: packets, DominantK: 3, Arenas: true})
			pruned, st := run(b, explore.Options{TracePackets: packets, DominantK: 3, BoundPrune: true})
			if st.Pruned == 0 {
				b.Fatal("bound-guided arm pruned nothing")
			}
			b.ReportMetric(float64(composed.Milliseconds()), "composed-ms")
			b.ReportMetric(float64(pruned.Milliseconds()), "pruned-ms")
			b.ReportMetric(float64(composed)/float64(pruned), "speedup-x")
			b.ReportMetric(float64(st.Pruned)/1000, "prune-ratio")
			b.ReportMetric(float64(st.LaneProfiles), "lane-profiles")
		}
	})

	b.Run("warm-new-platform", func(b *testing.B) {
		// Prior exploration (untimed) leaves the ~10·K lanes and their
		// profiles behind; snapshot so every iteration starts from the
		// same warm lanes with no memoized platform-B results.
		prep := explore.NewCache()
		warm := explore.Options{TracePackets: packets, DominantK: 3, BoundPrune: true, Cache: prep}
		if _, err := explore.NewEngine(a, warm).Step1(context.Background(), ref); err != nil {
			b.Fatal(err)
		}
		var snapshot bytes.Buffer
		if err := prep.SaveWithStreams(&snapshot); err != nil {
			b.Fatal(err)
		}
		other := sweep.DefaultPlatforms()[5].Config // midrange-32K-512K

		load := func(b *testing.B) *explore.Cache {
			b.Helper()
			c := explore.NewCache()
			if err := c.Load(bytes.NewReader(snapshot.Bytes())); err != nil {
				b.Fatal(err)
			}
			return c
		}
		for i := 0; i < b.N; i++ {
			composed, cst := run(b, explore.Options{TracePackets: packets, DominantK: 3, Arenas: true,
				Cache: load(b), Platform: &other})
			pruned, st := run(b, explore.Options{TracePackets: packets, DominantK: 3, BoundPrune: true,
				Cache: load(b), Platform: &other})
			if cst.Simulated != 0 || st.Simulated != 0 {
				b.Fatalf("warm arms executed %d/%d simulations", cst.Simulated, st.Simulated)
			}
			if st.Pruned == 0 {
				b.Fatal("warm bound-guided arm pruned nothing")
			}
			b.ReportMetric(float64(composed.Milliseconds()), "composed-ms")
			b.ReportMetric(float64(pruned.Milliseconds()), "pruned-ms")
			b.ReportMetric(float64(composed)/float64(pruned), "speedup-x")
			b.ReportMetric(float64(st.Pruned)/1000, "prune-ratio")
		}
	})
}

// BenchmarkBranchBoundExploration measures the best-first
// branch-and-bound tree search against the exhaustive composed scan,
// which pays one composed replay per combination: on the
// 10^5-combination FlowMon space the tree search cuts dominated
// lane-prefix subtrees in bulk and composes only the rest. Both arms
// produce bit-identical survivor fronts (pinned by
// TestBranchBoundK5FrontIdentity).
//
//   - cold: both arms pay the same ~10·K lane captures and profile
//     passes; the branch-and-bound arm seeds the front with the ten
//     uniform-kind combinations first, then searches best-first.
//   - warm-new-platform: lanes and profiles come from a persisted
//     snapshot and the space is re-explored on a platform the cache has
//     no results for; neither arm executes anything.
func BenchmarkBranchBoundExploration(b *testing.B) {
	cases := []struct {
		app     string
		k       int
		packets int
		space   int
	}{
		{"DRR", 3, 400, 1000},
		{"FlowMon", 5, 150, 100000},
	}
	for _, c := range cases {
		c := c
		a, err := netapps.ByName(c.app)
		if err != nil {
			b.Fatal(err)
		}
		ref := explore.Config{TraceName: a.TraceNames()[0], Knobs: a.DefaultKnobs()}
		base := explore.Options{TracePackets: c.packets, DominantK: c.k, BoundPrune: true}
		exhaustive := explore.Options{TracePackets: c.packets, DominantK: c.k, Arenas: true}

		run := func(b *testing.B, opts explore.Options) (time.Duration, explore.EngineStats, *explore.Step1Result) {
			b.Helper()
			eng := explore.NewEngine(a, opts)
			t0 := time.Now()
			s1, err := eng.Step1(context.Background(), ref)
			if err != nil {
				b.Fatal(err)
			}
			if s1.Simulations != c.space {
				b.Fatalf("expected the %d-combination space, got %d", c.space, s1.Simulations)
			}
			return time.Since(t0), eng.Stats(), s1
		}
		report := func(b *testing.B, ex, bb time.Duration, s1 *explore.Step1Result) {
			b.Helper()
			matPruned := 0
			for _, r := range s1.Results {
				if r.Pruned {
					matPruned++
				}
			}
			bulk := s1.Pruned - matPruned
			if len(s1.Results)+bulk != c.space {
				b.Fatalf("tree search accounts for %d materialized + %d bulk-cut of %d",
					len(s1.Results), bulk, c.space)
			}
			b.ReportMetric(float64(ex.Milliseconds()), "exhaustive-ms")
			b.ReportMetric(float64(bb.Milliseconds()), "branchbound-ms")
			b.ReportMetric(float64(ex)/float64(bb), "speedup-x")
			b.ReportMetric(float64(bulk)/float64(c.space), "cut-ratio")
			b.ReportMetric(float64(len(s1.Results)), "materialized")
		}

		b.Run(fmt.Sprintf("%s-K%d/cold", c.app, c.k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ex, _, _ := run(b, exhaustive)
				bb, _, s1 := run(b, base)
				report(b, ex, bb, s1)
			}
		})

		b.Run(fmt.Sprintf("%s-K%d/warm-new-platform", c.app, c.k), func(b *testing.B) {
			prep := explore.NewCache()
			warm := base
			warm.Cache = prep
			if _, err := explore.NewEngine(a, warm).Step1(context.Background(), ref); err != nil {
				b.Fatal(err)
			}
			var snapshot bytes.Buffer
			if err := prep.SaveWithStreams(&snapshot); err != nil {
				b.Fatal(err)
			}
			other := sweep.DefaultPlatforms()[5].Config // midrange-32K-512K
			load := func(b *testing.B) *explore.Cache {
				b.Helper()
				c := explore.NewCache()
				if err := c.Load(bytes.NewReader(snapshot.Bytes())); err != nil {
					b.Fatal(err)
				}
				return c
			}
			for i := 0; i < b.N; i++ {
				exOpts := exhaustive
				exOpts.Cache, exOpts.Platform = load(b), &other
				ex, est, _ := run(b, exOpts)
				bbOpts := base
				bbOpts.Cache, bbOpts.Platform = load(b), &other
				bb, st, s1 := run(b, bbOpts)
				if est.Simulated != 0 || st.Simulated != 0 {
					b.Fatalf("warm arms executed %d/%d simulations", est.Simulated, st.Simulated)
				}
				report(b, ex, bb, s1)
			}
		})
	}
}
