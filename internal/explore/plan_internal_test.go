package explore

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/netapps"
	"repro/internal/astream"
	"repro/internal/ddt"
)

// spaceJobs materializes the step-1 space on ref in combination order,
// so a job's position is its combination index.
func spaceJobs(ref Config, dominant []string) []Job {
	total := 1
	for range dominant {
		total *= ddt.NumKinds
	}
	jobs := make([]Job, total)
	for c := range jobs {
		jobs[c] = comboJob(ref, dominant)(c)
	}
	return jobs
}

// TestSpacePlanMatchesGreedy pins spacePlan's closed form against the
// greedy cover capturePlan computes over the materialized step-1 space:
// the same combinations in the same order, for K in {1, 2, 3} dominant
// roles out of FlowMon's five (so shared lanes of fixed roles count
// too) and seeded random sets of held lanes.
func TestSpacePlanMatchesGreedy(t *testing.T) {
	a, err := netapps.ByName("FlowMon")
	if err != nil {
		t.Fatal(err)
	}
	ref := Configs(a)[0]
	roles := apps.RoleNames(a)
	rng := rand.New(rand.NewSource(26))
	held := func() laneEntry { return laneEntry{dec: &astream.UnpackedLane{}} }
	for k := 1; k <= 3; k++ {
		for trial := range 24 {
			eng := NewEngine(a, Options{TracePackets: 100, Arenas: true})
			c, ck := eng.cache, eng.keysFor(ref)
			p := []float64{0, 0.3, 0.7, 0.95, 1}[trial%5]
			if rng.Float64() < p {
				c.scheds.put(c, ck.sched, schedEntry{Sched: &astream.Schedule{}, Ambient: held()})
			}
			for _, role := range roles {
				for kind := range ddt.NumKinds {
					if rng.Float64() < p {
						c.lanes.put(c, ck.lane(role, ddt.Kind(kind)), held())
					}
				}
			}
			perm := rng.Perm(len(roles))
			dominant := make([]string, k)
			for i := range dominant {
				dominant[i] = roles[perm[i]]
			}
			got := eng.spacePlan(ref, dominant)
			want := eng.capturePlan(spaceJobs(ref, dominant))
			if !slices.Equal(got, want) {
				t.Fatalf("K=%d trial %d (held p=%v, dominant %v): closed-form plan %v, greedy cover %v", k, trial, p, dominant, got, want)
			}
		}
	}
}

// TestCapturePlanColdAndWarm pins the plan's two ends: on an empty
// cache the step-1 plan is the ddt.NumKinds uniform-kind combinations,
// in kind order, and once a step has run on that cache every lane is
// held, so the plan of the space — and of any job list on its
// configuration — is empty.
func TestCapturePlanColdAndWarm(t *testing.T) {
	a, err := netapps.ByName("DRR")
	if err != nil {
		t.Fatal(err)
	}
	ref := Configs(a)[0]
	eng := NewEngine(a, Options{TracePackets: 200, DominantK: 3, Arenas: true, Workers: 1})
	dominant := apps.RoleNames(a)
	plan := eng.spacePlan(ref, dominant)
	if len(plan) != ddt.NumKinds {
		t.Fatalf("cold plan %v, want %d combinations", plan, ddt.NumKinds)
	}
	for j, c := range plan {
		for role, kind := range assignFor(dominant, c) {
			if kind != ddt.Kind(j) {
				t.Fatalf("cold plan job %d (combination %d) gives %s kind %v, want %v", j, c, role, kind, ddt.Kind(j))
			}
		}
	}

	s1, err := eng.Step1(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Simulated != len(plan) {
		t.Fatalf("cold Step1 ran %d live simulations, want the plan's %d", st.Simulated, len(plan))
	}
	if got := eng.spacePlan(ref, s1.DominantRoles); len(got) != 0 {
		t.Fatalf("warm space plan %v, want none", got)
	}
	if got := eng.capturePlan(spaceJobs(ref, s1.DominantRoles)); len(got) != 0 {
		t.Fatalf("warm job-list plan %v, want none", got)
	}
}

// survivorSet renders a step's survivors as a sorted label list.
func survivorSet(s1 *Step1Result) []string {
	labels := make([]string, len(s1.Survivors))
	for i, sv := range s1.Survivors {
		labels[i] = sv.Label()
	}
	slices.Sort(labels)
	return labels
}

// TestCapturePlanLiveRuns pins the live-run count of cold screened
// IPchains K=3 and cold flat composed DRR K=3: each runs exactly the
// plan's ten uniform-kind combinations live, at any worker count (a
// capture in index order runs 28, more at two workers), and keeps the
// exact front — the survivors of a branch-and-bound run on the same
// cache.
func TestCapturePlanLiveRuns(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		app     string
		opts    Options
		workers []int
	}{
		{"IPchains", Options{TracePackets: 8000, DominantK: 3, SampleRate: 1.0 / 64}, []int{1}},
		{"DRR", Options{TracePackets: 1000, DominantK: 3, Arenas: true}, []int{1, 2}},
	} {
		a, err := netapps.ByName(tc.app)
		if err != nil {
			t.Fatal(err)
		}
		ref := Configs(a)[0]
		for _, w := range tc.workers {
			opts := tc.opts
			opts.Workers = w
			eng := NewEngine(a, opts)
			s1, err := eng.Step1(ctx, ref)
			if err != nil {
				t.Fatal(err)
			}
			if st := eng.Stats(); st.Simulated != ddt.NumKinds {
				t.Errorf("%s, Workers=%d: %d live simulations, want %d: %+v", tc.app, w, st.Simulated, ddt.NumKinds, st)
			}
			exact := NewEngine(a, Options{TracePackets: opts.TracePackets, DominantK: 3, BoundPrune: true, Workers: 1, Cache: eng.Cache()})
			x1, err := exact.Step1(ctx, ref)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := survivorSet(s1), survivorSet(x1); !slices.Equal(got, want) {
				t.Errorf("%s, Workers=%d: survivors %v, exact front %v", tc.app, w, got, want)
			}
			t.Logf("%s, Workers=%d: %d survivors, %+v", tc.app, w, len(s1.Survivors), eng.Stats())
		}
	}
}

// TestBranchBoundFallbackWithoutLanes pins the flat fallback of a
// bound-pruned Step1: on a cache whose budget cannot hold the capture
// plan's lanes, the bound tables cannot be built after the capture
// phase, so the rest of the space is scanned flat — and the survivors
// are still the exhaustive arena front.
func TestBranchBoundFallbackWithoutLanes(t *testing.T) {
	a, err := netapps.ByName("DRR")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ref := Configs(a)[0]
	tiny := NewCache()
	tiny.SetStreamBudget(1)
	eng := NewEngine(a, Options{TracePackets: 300, DominantK: 2, BoundPrune: true, Workers: 1, Cache: tiny})
	s1, err := eng.Step1(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Expanded != 0 || st.SubtreeCuts != 0 || len(s1.Results) != s1.Simulations {
		t.Fatalf("expected the flat fallback: %+v, %d of %d combinations materialized", st, len(s1.Results), s1.Simulations)
	}
	if st.Simulated <= ddt.NumKinds {
		t.Fatalf("%d live simulations: the lanes outlived a budget of one byte", st.Simulated)
	}
	exhaustive := NewEngine(a, Options{TracePackets: 300, DominantK: 2, Arenas: true, Workers: 1})
	x1, err := exhaustive.Step1(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}
	got, want := front(s1.Survivors), front(x1.Survivors)
	if len(got) != len(want) {
		t.Fatalf("fallback front of %d points, exhaustive %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Label != want[i].Label || got[i].Vec != want[i].Vec {
			t.Fatalf("front[%d] %s %v, exhaustive %s %v", i, got[i].Label, got[i].Vec, want[i].Label, want[i].Vec)
		}
	}
}
