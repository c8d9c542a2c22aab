package explore_test

import (
	"context"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/netapps"
	"repro/internal/explore"
	"repro/internal/pareto"
)

// goldenOpts keeps the double-path comparison fast; the equivalence being
// pinned is structural, not scale-dependent.
var goldenOpts = explore.Options{TracePackets: 300}

// barrierStep1 reimplements the pre-Engine application-level exploration:
// materialize all combinations, simulate them one after another, then
// filter at the barrier with the all-pairs Pareto test. It is the golden
// reference the streaming Engine must reproduce exactly.
func barrierStep1(t *testing.T, a apps.App, ref explore.Config, opts explore.Options) ([]explore.Result, []explore.Result) {
	t.Helper()
	probes, err := explore.Profile(a, ref, opts)
	if err != nil {
		t.Fatal(err)
	}
	dominant := probes.Dominant(2)
	combos := slices.Collect(explore.CombinationSeq(len(dominant)))
	results := make([]explore.Result, len(combos))
	for i, combo := range combos {
		assign := make(apps.Assignment, len(dominant))
		for r, role := range dominant {
			assign[role] = combo[r]
		}
		results[i], err = explore.Simulate(a, ref, assign, opts)
		if err != nil {
			t.Fatal(err)
		}
	}
	pts := make([]pareto.Point, len(results))
	for i, r := range results {
		pts[i] = r.Point(i)
	}
	// All-pairs filter, as the pre-refactor prune() did.
	var survivors []explore.Result
	for _, p := range frontAllPairs(pts) {
		survivors = append(survivors, results[p.Tag])
	}
	return results, survivors
}

// frontAllPairs is the collect-then-filter dominance test the streaming
// front replaced, kept verbatim as the reference.
func frontAllPairs(pts []pareto.Point) []pareto.Point {
	var front []pareto.Point
	for i, p := range pts {
		dominated := false
		for j, q := range pts {
			if i == j {
				continue
			}
			if q.Vec.Dominates(p.Vec) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, p)
		}
	}
	// Sort exactly as pareto.Front orders its output.
	return pareto.Front(front)
}

func sameResults(t *testing.T, what string, got, want []explore.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].Label() != want[i].Label() {
			t.Fatalf("%s[%d]: label %q, want %q", what, i, got[i].Label(), want[i].Label())
		}
		if got[i].Vec != want[i].Vec {
			t.Fatalf("%s[%d] (%s): vec %v, want %v", what, i, got[i].Label(), got[i].Vec, want[i].Vec)
		}
		if got[i].Config.String() != want[i].Config.String() {
			t.Fatalf("%s[%d]: config %v, want %v", what, i, got[i].Config, want[i].Config)
		}
	}
}

// TestEngineMatchesBarrierPath is the golden comparison of the refactor:
// for every case study, a full default exploration through the streaming
// Engine produces the same step-1 results, the same survivor front and
// the same step-2 per-configuration results as the pre-refactor
// materialize-simulate-filter path.
func TestEngineMatchesBarrierPath(t *testing.T) {
	ctx := context.Background()
	for _, a := range netapps.All() {
		t.Run(a.Name(), func(t *testing.T) {
			configs := explore.Configs(a)
			ref := configs[0]

			wantResults, wantSurvivors := barrierStep1(t, a, ref, goldenOpts)

			eng := explore.NewEngine(a, goldenOpts)
			s1, err := eng.Step1(ctx, ref)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, "step1 results", s1.Results, wantResults)
			sameResults(t, "step1 survivors", s1.Survivors, wantSurvivors)

			// Barrier step 2: sequential survivor x configuration sweep.
			var wantS2 []explore.Result
			wantS2 = append(wantS2, wantSurvivors...)
			for _, cfg := range configs {
				if cfg.String() == ref.String() {
					continue
				}
				for _, sv := range wantSurvivors {
					r, err := explore.Simulate(a, cfg, sv.Assign, goldenOpts)
					if err != nil {
						t.Fatal(err)
					}
					wantS2 = append(wantS2, r)
				}
			}
			s2, err := eng.Step2(ctx, s1, configs)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, "step2 results", s2.Results, wantS2)
		})
	}
}

// TestEarlyAbortPreservesSurvivors pins the soundness claim of the
// dominance-based abort: stopping simulations the running front already
// dominates must not change the survivor set, for any case study.
func TestEarlyAbortPreservesSurvivors(t *testing.T) {
	ctx := context.Background()
	for _, a := range netapps.All() {
		t.Run(a.Name(), func(t *testing.T) {
			ref := explore.Configs(a)[0]
			exact, err := explore.NewEngine(a, goldenOpts).Step1(ctx, ref)
			if err != nil {
				t.Fatal(err)
			}

			opts := goldenOpts
			opts.EarlyAbort = true
			eng := explore.NewEngine(a, opts)
			fast, err := eng.Step1(ctx, ref)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, "survivors", fast.Survivors, exact.Survivors)
			if fast.Aborted > 0 {
				t.Logf("%s: %d of %d simulations aborted early", a.Name(), fast.Aborted, fast.Simulations)
			}
			for _, sv := range fast.Survivors {
				if sv.Aborted {
					t.Fatalf("aborted result %s ended up a survivor", sv.Label())
				}
			}
		})
	}
}
