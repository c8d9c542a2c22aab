package explore_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/netapps"
	"repro/internal/astream"
	"repro/internal/ddt"
	"repro/internal/energy"
	"repro/internal/explore"
	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/pareto"
	"repro/internal/sweep"
)

// costVector mirrors the engine's replayVector: the 4-metric vector a
// cost tuple implies under one platform.
func costVector(cfg memsim.Config, model energy.Model, counts memsim.Counts, cycles, peak uint64) metrics.Vector {
	seconds := float64(cycles) / cfg.ClockHz
	return metrics.Vector{
		Energy:    model.Energy(counts, seconds),
		Time:      seconds,
		Accesses:  float64(counts.Accesses()),
		Footprint: float64(peak),
	}
}

// boundVectorOf evaluates a lane bound (single lane or accumulated
// combination) into its lower-bound vector.
func boundVectorOf(cfg memsim.Config, model energy.Model, b memsim.LaneBound) metrics.Vector {
	counts, cycles, peak := b.Cost(cfg)
	return costVector(cfg, model, counts, cycles, peak)
}

// TestLaneBoundAdmissible is the load-bearing invariant of bound-guided
// pruning: for every application with >= 2 roles, every default sweep
// platform and random DDT combinations, the per-lane isolated bounds —
// each alone AND summed over the combination's lanes — never exceed the
// exact composed cost on any of the four objectives. A violation here
// would let pruning drop a point that could have entered the front.
func TestLaneBoundAdmissible(t *testing.T) {
	pts := sweep.DefaultPlatforms()
	cfgs := make([]memsim.Config, len(pts))
	for i, pp := range pts {
		cfgs[i] = pp.Config
		if !memsim.BoundEligible(cfgs[i]) {
			t.Fatalf("default platform %s not bound-eligible", pts[i].Name)
		}
	}
	for _, a := range composeApps() {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			t.Parallel()
			roles := apps.RoleNames(a)
			sched, byKind := composedFixture(t, a)

			// Each lane memoizes its isolated suffix tables, so every
			// lane pays one isolated pass per geometry.
			rng := rand.New(rand.NewSource(int64(97 + len(roles))))
			for trial := 0; trial < 3; trial++ {
				assign := make(apps.Assignment, len(roles))
				lanes := make([]*astream.UnpackedLane, len(roles)+1)
				lanes[0] = byKind[ddt.AR][0] // ambient lane is kind-invariant
				for i, role := range roles {
					k := ddt.Kind(rng.Intn(ddt.NumKinds))
					assign[role] = k
					lanes[i+1] = byKind[k][i+1]
				}
				comp := astream.Composition{Sched: sched, Lanes: lanes}
				exact, _, err := astream.Replay(comp, cfgs, astream.ReplayOpts{})
				if err != nil {
					t.Fatal(err)
				}
				for pi, pc := range cfgs {
					model := energy.CACTILike(pc)
					exactVec := costVector(pc, model, exact[pi].Counts, exact[pi].Cycles, exact[pi].Peak)
					var sum memsim.LaneBound
					for li, u := range lanes {
						lb := astream.LaneBound(u, pc)
						laneVec := boundVectorOf(pc, model, lb)
						for _, m := range metrics.AllMetrics() {
							if laneVec.Get(m) > exactVec.Get(m) {
								t.Fatalf("INADMISSIBLE per-lane bound: %s, lane %d (%s), combination %s on %s: %s bound %v > exact %v",
									a.Name(), li, u.Role, assign, pts[pi].Name, m, laneVec.Get(m), exactVec.Get(m))
							}
						}
						sum.Accumulate(lb)
					}
					sumVec := boundVectorOf(pc, model, sum)
					for _, m := range metrics.AllMetrics() {
						if sumVec.Get(m) > exactVec.Get(m) {
							t.Fatalf("INADMISSIBLE combination bound: %s, combination %s on %s: %s bound %v > exact %v",
								a.Name(), assign, pts[pi].Name, m, sumVec.Get(m), exactVec.Get(m))
						}
					}
					// The invariant axes are not merely bounded — they are
					// exact, which is what gives the bound its pruning power.
					if sumVec.Accesses != exactVec.Accesses {
						t.Fatalf("%s on %s: bound accesses %v != exact %v",
							assign, pts[pi].Name, sumVec.Accesses, exactVec.Accesses)
					}
				}
			}
		})
	}
}

// composedFixture captures one all-kind-k run per library kind on a's
// first trace: the kind-invariant schedule, plus each kind's lanes
// (index = lane, 0 ambient).
func composedFixture(t *testing.T, a apps.App) (*astream.Schedule, map[ddt.Kind][]*astream.UnpackedLane) {
	t.Helper()
	cfg := explore.Config{TraceName: a.TraceNames()[0], Knobs: a.DefaultKnobs()}
	var sched *astream.Schedule
	byKind := make(map[ddt.Kind][]*astream.UnpackedLane)
	for _, k := range ddt.AllKinds() {
		s, lanes := captureComposedRun(t, a, cfg, uniformAssignment(a, k))
		byKind[k] = lanes
		if sched == nil {
			sched = s
		}
	}
	return sched, byKind
}

// randomComboLanes draws trials random DDT combinations over the
// fixture and returns each one's decoded lanes, ambient lane first.
func randomComboLanes(t *testing.T, byKind map[ddt.Kind][]*astream.UnpackedLane, roles int, seed int64, trials int) [][]*astream.UnpackedLane {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	combos := make([][]*astream.UnpackedLane, trials)
	for i := range combos {
		lanes := []*astream.UnpackedLane{byKind[ddt.AR][0]} // ambient lane is kind-invariant
		for r := 1; r <= roles; r++ {
			lanes = append(lanes, byKind[ddt.Kind(rng.Intn(ddt.NumKinds))][r])
		}
		combos[i] = lanes
	}
	return combos
}

// guardSnapshots replays the combination unguarded and again through a
// guard that records every snapshot and never fires, and checks the
// recording run finished with the exact cost.
func guardSnapshots(t *testing.T, sched *astream.Schedule, lanes []*astream.UnpackedLane, pc memsim.Config) (exact astream.Cost, snaps []astream.Cost) {
	t.Helper()
	comp := astream.Composition{Sched: sched, Lanes: lanes}
	costs, _, err := astream.Replay(comp, []memsim.Config{pc}, astream.ReplayOpts{})
	if err != nil {
		t.Fatal(err)
	}
	guarded, _, err := astream.Replay(comp, []memsim.Config{pc}, astream.ReplayOpts{Guard: func(c astream.Cost) bool {
		snaps = append(snaps, c)
		return false
	}})
	if err != nil {
		t.Fatal(err)
	}
	if guarded[0] != costs[0] {
		t.Fatalf("a never-firing guard changed the replay: %+v, unguarded %+v", guarded[0], costs[0])
	}
	return costs[0], snaps
}

// TestCompletionBoundAdmissible pins the completion bound a guarded
// composed replay polls: on every application with >= 2 roles, every
// default sweep platform and random DDT combinations, each snapshot is
// an admissible lower bound of the exact composed cost. Cycles, energy,
// DRAM fills and footprint never exceed the exact values, L1 hits never
// fall below them (the bound prices every probe it cannot pin down as
// an L1 hit), and the invariant word and op counts are exact. One more
// platform inverts the latency order (L1 slower than L2 and DRAM):
// there an unprobed access has no cheapest outcome, the guard sees the
// bare partial cost, and still no snapshot may exceed the exact cost.
func TestCompletionBoundAdmissible(t *testing.T) {
	pts := sweep.DefaultPlatforms()
	inverted := memsim.DefaultConfig()
	inverted.L1.SizeBytes, inverted.L2.SizeBytes = 1<<10, 4<<10 // small caches: composed interference turns isolated hits into misses
	inverted.L1HitCycles, inverted.L2HitCycles, inverted.DRAMCycles = 40, 4, 2
	if memsim.BoundEligible(inverted) {
		t.Fatal("the inverted-latency platform must fall outside memsim.BoundEligible")
	}
	pts = append(pts, sweep.PlatformPoint{Name: "inverted-latency", Config: inverted})
	for _, a := range composeApps() {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			t.Parallel()
			roles := len(apps.RoleNames(a))
			sched, byKind := composedFixture(t, a)
			polls := 0
			for ci, lanes := range randomComboLanes(t, byKind, roles, int64(131+roles), 3) {
				for _, pp := range pts {
					pc := pp.Config
					eligible := memsim.BoundEligible(pc)
					model := energy.CACTILike(pc)
					exact, snaps := guardSnapshots(t, sched, lanes, pc)
					exactVec := costVector(pc, model, exact.Counts, exact.Cycles, exact.Peak)
					polls += len(snaps)
					for si, c := range snaps {
						vec := costVector(pc, model, c.Counts, c.Cycles, c.Peak)
						what := func() string {
							return fmt.Sprintf("%s combination %d on %s, snapshot %d of %d", a.Name(), ci, pp.Name, si+1, len(snaps))
						}
						switch {
						case c.Cycles > exact.Cycles:
							t.Fatalf("%s: cycles %d > exact %d", what(), c.Cycles, exact.Cycles)
						case vec.Energy > exactVec.Energy:
							t.Fatalf("%s: energy %v > exact %v", what(), vec.Energy, exactVec.Energy)
						case c.Counts.DRAMFills > exact.Counts.DRAMFills:
							t.Fatalf("%s: DRAM fills %d > exact %d", what(), c.Counts.DRAMFills, exact.Counts.DRAMFills)
						case c.Peak > exact.Peak:
							t.Fatalf("%s: peak %d > exact %d", what(), c.Peak, exact.Peak)
						case !eligible:
							// A bare partial cost: its L1 hits and invariants are partial too.
						case c.Counts.L1Hits < exact.Counts.L1Hits:
							t.Fatalf("%s: L1 hits %d < exact %d", what(), c.Counts.L1Hits, exact.Counts.L1Hits)
						case c.Counts.ReadWords != exact.Counts.ReadWords || c.Counts.WriteWords != exact.Counts.WriteWords ||
							c.Counts.OpCycles != exact.Counts.OpCycles:
							t.Fatalf("%s: invariants %+v, exact %+v", what(), c.Counts, exact.Counts)
						}
					}
				}
			}
			if polls == 0 {
				t.Fatalf("%s: no replay reached a guard poll", a.Name())
			}
		})
	}
}

// liveFront computes the cross-configuration Pareto front over the
// finished results, as step 3 charts it.
func liveFront(results []explore.Result) []pareto.Point {
	live := explore.Live(results)
	pts := make([]pareto.Point, len(live))
	for i, r := range live {
		pts[i] = r.Point(i)
	}
	return pareto.Front(pts)
}

// samePoints compares two fronts on combinations, vectors and ordering.
func samePoints(t *testing.T, what string, got, want []pareto.Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].Label != want[i].Label || got[i].Vec != want[i].Vec {
			t.Fatalf("%s[%d]: %s %v, want %s %v", what, i, got[i].Label, got[i].Vec, want[i].Label, want[i].Vec)
		}
	}
}

// boundApps is the app slate of the bound-prune golden comparisons: the
// paper's four case studies plus the K=5 FlowMon extension (run at the
// default dominant-k here; the full 5-role space is covered by
// TestBranchBoundK5FrontIdentity).
func boundApps(t *testing.T) []apps.App {
	flowmon, err := netapps.ByName("FlowMon")
	if err != nil {
		t.Fatal(err)
	}
	return append(netapps.All(), flowmon)
}

// matPruned counts results that carry an individual pruned tombstone —
// the per-combination share of a step's Pruned count; the remainder is
// bulk subtree cuts, which have no Result at all.
func matPruned(results []explore.Result) int {
	n := 0
	for _, r := range results {
		if r.Pruned {
			n++
		}
	}
	return n
}

// TestBoundPrunedFrontMatchesExhaustive is the golden comparison of the
// bound-guided search: on every case study, a full Explore with
// BoundPrune produces the identical survivor front and identical
// cross-configuration Pareto front as the exhaustive composed path —
// and its engine stats account for every scheduled job (materialized
// results one each, branch-and-bound subtree cuts by their full width),
// so Progress still reaches each step's total.
func TestBoundPrunedFrontMatchesExhaustive(t *testing.T) {
	ctx := context.Background()
	// The composed replays of the pruned arm run polled by the exact
	// search's margin-free guard (EarlyAbort off): at least one app must
	// see a replay cut mid-walk, or the path goes untested.
	var aborted atomic.Int64
	t.Cleanup(func() {
		if aborted.Load() == 0 {
			t.Error("no composed replay was cut mid-walk on any app")
		}
	})
	for _, a := range boundApps(t) {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			t.Parallel()
			exhaustive := explore.Options{TracePackets: 300, Arenas: true}
			exEng := explore.NewEngine(a, exhaustive)
			exS1, exS2, err := exEng.Explore(ctx)
			if err != nil {
				t.Fatal(err)
			}

			progress := make(map[int]int) // per-step total -> max done seen
			pruned := explore.Options{TracePackets: 300, BoundPrune: true, EarlyAbort: false,
				Progress: func(done, total int) {
					if done > progress[total] {
						progress[total] = done
					}
				}}
			prEng := explore.NewEngine(a, pruned)
			prS1, prS2, err := prEng.Explore(ctx)
			if err != nil {
				t.Fatal(err)
			}

			sameResults(t, "survivors", prS1.Survivors, exS1.Survivors)
			samePoints(t, "cross-config front", liveFront(prS2.Results), liveFront(exS2.Results))
			// Per-configuration fronts too: within a configuration, a
			// pruned point is dominated by that configuration's own
			// front, so each per-config front must also be identical.
			for _, cfg := range prS2.Configs {
				samePoints(t, "front for "+cfg.String(),
					liveFront(prS2.ResultsFor(cfg)), liveFront(exS2.ResultsFor(cfg)))
			}
			for _, sv := range prS1.Survivors {
				if sv.Pruned || sv.Aborted {
					t.Fatalf("pruned/aborted result %s ended up a survivor", sv.Label())
				}
			}

			// Every combination of the step-1 space and every step-2 job
			// is accounted for by exactly one path: each materialized
			// result carries one stat, and each branch-and-bound subtree
			// cut carries its full width in Pruned without a Result.
			bulk := prS1.Pruned - matPruned(prS1.Results)
			if bulk < 0 {
				t.Fatalf("step 1 reports %d pruned but %d pruned results", prS1.Pruned, matPruned(prS1.Results))
			}
			if len(prS1.Results)+bulk != prS1.Simulations {
				t.Fatalf("step 1 accounts for %d materialized + %d bulk-cut of %d combinations",
					len(prS1.Results), bulk, prS1.Simulations)
			}
			st := prEng.Stats()
			jobs := prS1.Simulations + prS2.Simulations
			accounted := st.Simulated + st.Replayed + st.Composed + st.Profiled +
				st.CacheHits + st.Aborted + st.Pruned
			if accounted != jobs {
				t.Fatalf("stats account for %d of %d jobs: %+v", accounted, jobs, st)
			}
			if st.Pruned != prS1.Pruned+prS2.Pruned {
				t.Fatalf("engine pruned %d but steps report %d+%d", st.Pruned, prS1.Pruned, prS2.Pruned)
			}
			for total, done := range progress {
				if done != total {
					t.Fatalf("progress stalled at %d of %d", done, total)
				}
			}
			aborted.Add(int64(st.Aborted))
			t.Logf("%s: %d of %d step-1 combinations pruned (%d in bulk), %d lane profiles, %d composed, %d cut mid-replay",
				a.Name(), prS1.Pruned, prS1.Simulations, bulk, st.LaneProfiles, st.Composed, st.Aborted)
		})
	}
}

// TestBoundPrunedDRRGrid pins the acceptance criterion on the 3-role
// 1000-combination DRR grid: the bound-guided step 1 prunes a real
// share of the space with zero replays, and its survivor front is
// bit-identical to the exhaustive composed path.
func TestBoundPrunedDRRGrid(t *testing.T) {
	a, err := netapps.ByName("DRR")
	if err != nil {
		t.Fatal(err)
	}
	ref := explore.Config{TraceName: a.TraceNames()[0], Knobs: a.DefaultKnobs()}
	ctx := context.Background()

	exEng := explore.NewEngine(a, explore.Options{TracePackets: 200, DominantK: 3, Arenas: true})
	exS1, err := exEng.Step1(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}
	prEng := explore.NewEngine(a, explore.Options{TracePackets: 200, DominantK: 3, BoundPrune: true})
	prS1, err := prEng.Step1(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}

	if prS1.Simulations != 1000 {
		t.Fatalf("expected the 1000-combination grid, got space of %d", prS1.Simulations)
	}
	bulk := prS1.Pruned - matPruned(prS1.Results)
	if len(prS1.Results)+bulk != 1000 {
		t.Fatalf("grid accounts for %d materialized + %d bulk-cut of 1000 combinations",
			len(prS1.Results), bulk)
	}
	if bulk == 0 {
		t.Fatal("branch and bound cut no subtree in bulk on the 3-role grid")
	}
	sameResults(t, "DRR grid survivors", prS1.Survivors, exS1.Survivors)
	st := prEng.Stats()
	if st.Pruned == 0 {
		t.Fatal("bound-guided search pruned nothing on the 3-role grid")
	}
	if st.Pruned != prS1.Pruned {
		t.Fatalf("engine pruned %d, step reports %d", st.Pruned, prS1.Pruned)
	}
	t.Logf("DRR 3-role grid: %d of 1000 pruned (%d in bulk), %d composed, %d executed, %d lane bounds",
		st.Pruned, bulk, st.Composed, st.Simulated, st.LaneProfiles)
}

// TestBoundPruneWarmExtension pins warm pruning across processes:
// extending a saved 2-role exploration to a third dominant role on the
// loaded cache returns the same survivors as an exhaustive 3-role scan,
// and prunes. The saved file carries lanes and schedules only; every
// lane bound is rederived from the loaded lanes.
func TestBoundPruneWarmExtension(t *testing.T) {
	a, err := netapps.ByName("DRR")
	if err != nil {
		t.Fatal(err)
	}
	ref := explore.Config{TraceName: a.TraceNames()[0], Knobs: a.DefaultKnobs()}
	ctx := context.Background()

	prep := explore.NewEngine(a, explore.Options{TracePackets: 200, DominantK: 2, BoundPrune: true})
	if _, err := prep.Step1(ctx, ref); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := prep.Cache().SaveWithStreams(&buf); err != nil {
		t.Fatal(err)
	}
	loaded := explore.NewCache()
	if err := loaded.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if st := loaded.Stats(); st.Lanes == 0 || st.Schedules == 0 {
		t.Fatalf("round trip lost the compositional stores: %+v", st)
	}

	warm := explore.NewEngine(a, explore.Options{TracePackets: 200, DominantK: 3, BoundPrune: true, Cache: loaded})
	s1, err := warm.Step1(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}
	exact := explore.NewEngine(a, explore.Options{TracePackets: 200, DominantK: 3, Arenas: true})
	exS1, err := exact.Step1(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "warm 3-role extension survivors", s1.Survivors, exS1.Survivors)
	st := warm.Stats()
	if st.Pruned == 0 {
		t.Fatal("warm extension pruned nothing")
	}
	if st.LaneProfiles == 0 {
		t.Fatal("warm extension derived no lane bounds")
	}
	t.Logf("warm 3-role extension: %d pruned, %d materialized, %d lane bounds, %d executed",
		st.Pruned, len(s1.Results), st.LaneProfiles, st.Simulated)
}

// TestBranchBoundK5FrontIdentity pins the tentpole claim at the scale
// that motivates it: on FlowMon's full 5-role, 10^5-combination space
// the branch-and-bound step 1 returns survivors bit-identical to the
// exhaustive composed scan, and Step 2 over those survivors matches the
// exhaustive engine's per-configuration fronts. The trace is downscaled
// so the exhaustive arm stays tractable in the test suite, yet long
// enough that composed replays reach the guard's poll cadence: the
// pruned arm runs without EarlyAbort and must still cut replays
// mid-walk.
func TestBranchBoundK5FrontIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("the 10^5-combination exhaustive arm is not short")
	}
	a, err := netapps.ByName("FlowMon")
	if err != nil {
		t.Fatal(err)
	}
	ref := explore.Config{TraceName: a.TraceNames()[0], Knobs: a.DefaultKnobs()}
	ctx := context.Background()

	prEng := explore.NewEngine(a, explore.Options{TracePackets: 100, DominantK: 5, BoundPrune: true, EarlyAbort: false})
	prS1, err := prEng.Step1(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}
	exEng := explore.NewEngine(a, explore.Options{TracePackets: 100, DominantK: 5, Arenas: true})
	exS1, err := exEng.Step1(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}

	if prS1.Simulations != 100000 || exS1.Simulations != 100000 {
		t.Fatalf("expected the 10^5 space, got %d and %d", prS1.Simulations, exS1.Simulations)
	}
	bulk := prS1.Pruned - matPruned(prS1.Results)
	if len(prS1.Results)+bulk != prS1.Simulations {
		t.Fatalf("space accounts for %d materialized + %d bulk-cut of %d",
			len(prS1.Results), bulk, prS1.Simulations)
	}
	sameResults(t, "K=5 survivors", prS1.Survivors, exS1.Survivors)
	if bulk < prS1.Simulations/10 {
		t.Fatalf("branch and bound bulk-cut only %d of %d combinations — the tree is not being cut",
			bulk, prS1.Simulations)
	}
	// Step 2 over the survivors: every per-configuration front matches
	// the exhaustive engine's, mid-replay cuts included.
	configs := explore.Configs(a)
	prS2, err := prEng.Step2(ctx, prS1, configs)
	if err != nil {
		t.Fatal(err)
	}
	exS2, err := exEng.Step2(ctx, exS1, configs)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range prS2.Configs {
		samePoints(t, "K=5 front for "+cfg.String(),
			liveFront(prS2.ResultsFor(cfg)), liveFront(exS2.ResultsFor(cfg)))
	}
	st := prEng.Stats()
	// Composed replays are polled by the margin-free guard and cut
	// mid-walk once their completion bound is dominated.
	if st.Aborted == 0 {
		t.Error("no composed replay was cut mid-walk")
	}
	t.Logf("K=5: %d materialized, %d bulk-cut, %d survivors of %d combinations; %d composed, %d cut mid-replay over both steps",
		len(prS1.Results), bulk, len(prS1.Survivors), prS1.Simulations, st.Composed, st.Aborted)
}
