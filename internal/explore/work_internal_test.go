package explore

import (
	"context"
	"testing"

	"repro/internal/apps/netapps"
)

// TestReplayAccessesCountsCompositions pins EngineStats.ReplayAccesses
// at its per-job seam: an unguarded composed Step1 replays every
// combination outside its capture plan to completion, so the counter is
// exactly the sum of those compositions' access counts; a rerun that
// the cache answers replays nothing and adds nothing.
func TestReplayAccessesCountsCompositions(t *testing.T) {
	a, err := netapps.ByName("DRR")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{TracePackets: 150, DominantK: 3, Arenas: true, Workers: 1}
	eng := NewEngine(a, opts)
	ref := Config{TraceName: a.TraceNames()[0], Knobs: a.DefaultKnobs()}
	ctx := context.Background()
	s1, err := eng.Step1(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[string]bool)
	for _, c := range NewEngine(a, opts).spacePlan(ref, s1.DominantRoles) {
		live[assignFor(s1.DominantRoles, c).String()] = true
	}
	var want uint64
	composed := 0
	for _, r := range s1.Results {
		if live[r.Assign.String()] {
			continue
		}
		comp, _, ok := eng.composition(r.Config, r.Assign)
		if !ok {
			t.Fatalf("%s: composition unavailable after Step1", r.Label())
		}
		for _, u := range comp.Lanes {
			want += uint64(len(u.Addr))
		}
		composed++
	}
	st := eng.Stats()
	if st.Composed != composed || st.Simulated != len(live) {
		t.Fatalf("Step1 composed %d and simulated %d, want %d and the plan's %d", st.Composed, st.Simulated, composed, len(live))
	}
	if st.ReplayAccesses != want || want == 0 {
		t.Fatalf("ReplayAccesses = %d, want the compositions' %d accesses", st.ReplayAccesses, want)
	}

	if _, err := eng.Step1(ctx, ref); err != nil {
		t.Fatal(err)
	}
	again := eng.Stats()
	if again.CacheHits != len(s1.Results) || again.ReplayAccesses != st.ReplayAccesses {
		t.Fatalf("cached rerun: %d cache hits of %d, ReplayAccesses %d → %d", again.CacheHits, len(s1.Results), st.ReplayAccesses, again.ReplayAccesses)
	}
}
