package explore

import (
	"context"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/netapps"
	"repro/internal/pareto"
)

// TestStep2CaptureFirst pins the capture plan of a composing Step2 on
// FlowMon's 5-role space: on every configuration exactly the survivors
// of the greedy lane cover run live (each captures lanes no earlier
// survivor did, and after them every survivor composes), the results
// still come back in survivor order, and every per-configuration front
// equals an unguarded arena engine's.
func TestStep2CaptureFirst(t *testing.T) {
	a, err := netapps.ByName("FlowMon")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	eng := NewEngine(a, Options{TracePackets: 300, DominantK: 5, BoundPrune: true, Workers: 1})
	configs := Configs(a)
	s1, err := eng.Step1(ctx, configs[0])
	if err != nil {
		t.Fatal(err)
	}
	roles := apps.RoleNames(a)
	exact, err := NewEngine(a, Options{TracePackets: 300, Arenas: true, Workers: 1}).Step2(ctx, s1, configs)
	if err != nil {
		t.Fatal(err)
	}
	n := len(s1.Survivors)
	var cover int
	for _, cfg := range configs[1:] {
		jobs := make([]Job, n)
		for i, sv := range s1.Survivors {
			jobs[i] = Job{Cfg: cfg, Assign: sv.Assign}
		}
		plan := eng.capturePlan(jobs)
		order := slices.Clone(plan)
		for i := range n {
			if !slices.Contains(plan, i) {
				order = append(order, i)
			}
		}
		cover = coverSize(s1.Survivors, order, roles)
		if cover != len(plan) || cover <= 0 || cover >= n {
			t.Fatalf("%s: capture plan %v of %d survivors opens a lane cover of %d", cfg, plan, n, cover)
		}
		before := eng.Stats().Simulated
		s2, err := eng.Step2(ctx, s1, []Config{configs[0], cfg})
		if err != nil {
			t.Fatal(err)
		}
		if live := eng.Stats().Simulated - before; live != cover {
			t.Errorf("%s: %d live simulations, want the cover's %d", cfg, live, cover)
		}
		if len(s2.Results) != 2*n {
			t.Fatalf("%s: %d results, want %d", cfg, len(s2.Results), 2*n)
		}
		for i, sv := range s1.Survivors {
			if r := s2.Results[n+i]; r.Label() != sv.Label() || r.Config.String() != cfg.String() {
				t.Fatalf("%s: result %d is %s on %s, want survivor %s", cfg, i, r.Label(), r.Config, sv.Label())
			}
		}
		got, want := front(s2.ResultsFor(cfg)), front(exact.ResultsFor(cfg))
		if len(got) != len(want) {
			t.Fatalf("%s: front of %d points, exhaustive %d", cfg, len(got), len(want))
		}
		for i := range got {
			if got[i].Label != want[i].Label || got[i].Vec != want[i].Vec {
				t.Fatalf("%s: front[%d] %s %v, exhaustive %s %v", cfg, i, got[i].Label, got[i].Vec, want[i].Label, want[i].Vec)
			}
		}
	}
	t.Logf("%d survivors, %d-member cover, %d configurations", len(s1.Survivors), cover, len(configs)-1)
}

// coverSize walks a draw order and returns how many leading survivors
// each use a (role, kind) lane no earlier one does, or -1 if a survivor
// after them still brings a new lane.
func coverSize(survivors []Result, order []int, roles []string) int {
	seen := make(map[[2]int]bool)
	cover := 0
	for pos, i := range order {
		fresh := false
		for r, role := range roles {
			lane := [2]int{r, int(apps.KindFor(survivors[i].Assign, role))}
			if !seen[lane] {
				seen[lane], fresh = true, true
			}
		}
		if fresh {
			if pos != cover {
				return -1
			}
			cover++
		}
	}
	return cover
}

func front(results []Result) []pareto.Point {
	live := Live(results)
	pts := make([]pareto.Point, len(live))
	for i, r := range live {
		pts[i] = r.Point(i)
	}
	return pareto.Front(pts)
}
