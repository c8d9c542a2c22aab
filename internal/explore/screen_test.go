package explore_test

import (
	"context"
	"testing"

	"repro/internal/apps/netapps"
	"repro/internal/explore"
)

// TestScreenedFrontMatchesExact is the acceptance pin of the two-phase
// sampled exploration: for every case study, Step1 screened at the
// default rate produces a survivor front bit-identical — membership
// AND vectors — to the exhaustive exact run's, because everything the
// interval filter does not provably discard is re-run exactly before
// the front forms.
func TestScreenedFrontMatchesExact(t *testing.T) {
	ctx := context.Background()
	for _, a := range netapps.All() {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			t.Parallel()
			ref := explore.Configs(a)[0]

			exEng := explore.NewEngine(a, explore.Options{TracePackets: 300, Arenas: true})
			exS1, err := exEng.Step1(ctx, ref)
			if err != nil {
				t.Fatal(err)
			}

			scEng := explore.NewEngine(a, explore.Options{TracePackets: 300, SampleRate: explore.DefaultSampleRate})
			scS1, err := scEng.Step1(ctx, ref)
			if err != nil {
				t.Fatal(err)
			}

			sameResults(t, "survivors", scS1.Survivors, exS1.Survivors)
			for _, sv := range scS1.Survivors {
				if sv.Screened || sv.Aborted || sv.Pruned {
					t.Fatalf("survivor %s still carries screening marks: %+v", sv.Label(), sv)
				}
				if sv.RelCI != 0 {
					t.Fatalf("survivor %s has nonzero RelCI %g", sv.Label(), sv.RelCI)
				}
			}

			// Accounting: every combination is either verified exactly,
			// discarded on sampled evidence, or discarded on exact
			// evidence (bound cut or stopped replay).
			if scS1.Verified+scS1.Screened+scS1.Pruned+scS1.Aborted != scS1.Simulations {
				t.Fatalf("verified %d + screened %d + pruned %d + aborted %d != %d combinations",
					scS1.Verified, scS1.Screened, scS1.Pruned, scS1.Aborted, scS1.Simulations)
			}
			if got := len(scS1.Results); got != scS1.Simulations {
				t.Fatalf("screened flat scan materialized %d of %d results", got, scS1.Simulations)
			}
			for _, r := range scS1.Results {
				if r.Screened && !r.Aborted {
					t.Fatalf("screened estimate %s not excluded from analyses", r.Label())
				}
				if !r.Screened && r.RelCI != 0 {
					t.Fatalf("exact result %s claims RelCI %g", r.Label(), r.RelCI)
				}
			}

			st := scEng.Stats()
			if st.Sampled == 0 {
				t.Fatal("screening ran no sampled replays")
			}
			if scS1.SampleRate <= 0 || scS1.SampleRate >= 0.5 {
				t.Fatalf("achieved sample rate %g outside (0, 0.5)", scS1.SampleRate)
			}
			t.Logf("%s: %d screened, %d verified of %d; achieved R=%.4f, %d sampled replays",
				a.Name(), scS1.Screened, scS1.Verified, scS1.Simulations, scS1.SampleRate, st.Sampled)
		})
	}
}

// TestScreenedDRRGrid pins the screening economics on the 3-role
// 1000-combination DRR grid at a coarser rate: most of the space is
// disposed of without a full exact replay — on sampled evidence, an
// exact bound cut, or a stopped replay — and the verified front still
// matches the exhaustive run bit by bit.
func TestScreenedDRRGrid(t *testing.T) {
	a, err := netapps.ByName("DRR")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ref := explore.Configs(a)[0]

	exEng := explore.NewEngine(a, explore.Options{TracePackets: 2000, DominantK: 3, Arenas: true})
	exS1, err := exEng.Step1(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}

	scEng := explore.NewEngine(a, explore.Options{TracePackets: 2000, DominantK: 3, SampleRate: 1.0 / 8})
	scS1, err := scEng.Step1(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}

	sameResults(t, "survivors", scS1.Survivors, exS1.Survivors)
	if got := scS1.Screened + scS1.Pruned + scS1.Aborted; got < scS1.Simulations/2 {
		t.Fatalf("screening retired only %d of %d combinations without a full exact replay", got, scS1.Simulations)
	}
	if scS1.Verified >= scS1.Simulations/2 {
		t.Fatalf("screening fully verified %d of %d combinations", scS1.Verified, scS1.Simulations)
	}
	st := scEng.Stats()
	if st.Sampled == 0 {
		t.Fatal("screening ran no sampled replays")
	}
	t.Logf("DRR grid: %d screened, %d pruned, %d aborted, %d verified of %d; achieved R=%.4f",
		scS1.Screened, scS1.Pruned, scS1.Aborted, scS1.Verified, scS1.Simulations, scS1.SampleRate)
}

// TestScreenedWarmCacheServesEstimates pins the rate-tagged cache path:
// a second screened Step1 on a shared cache answers its screening phase
// from cached estimates (no new sampled replays) and its verification
// phase from cached exact results, and screening artifacts never leak
// into an exact engine sharing the same cache.
func TestScreenedWarmCacheServesEstimates(t *testing.T) {
	a, err := netapps.ByName("IPchains")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ref := explore.Configs(a)[0]
	cache := explore.NewCache()

	opts := explore.Options{TracePackets: 200, SampleRate: explore.DefaultSampleRate, Cache: cache}
	first := explore.NewEngine(a, opts)
	s1a, err := first.Step1(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}

	second := explore.NewEngine(a, opts)
	s1b, err := second.Step1(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "warm survivors", s1b.Survivors, s1a.Survivors)
	st := second.Stats()
	if st.Sampled != 0 || st.Composed != 0 || st.Simulated != 0 {
		t.Fatalf("warm screened run re-did work: %+v", st)
	}
	if st.CacheHits == 0 {
		t.Fatal("warm screened run hit nothing")
	}

	// An exact engine on the same cache must not see the estimates.
	exact := explore.NewEngine(a, explore.Options{TracePackets: 200, Arenas: true, Cache: cache})
	exS1, err := exact.Step1(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "exact-on-shared-cache survivors", exS1.Survivors, s1a.Survivors)
	for _, r := range exS1.Results {
		if r.Screened {
			t.Fatalf("screening estimate leaked into exact run: %s", r.Label())
		}
	}
}
