package explore_test

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/netapps"
	"repro/internal/astream"
	"repro/internal/ddt"
	"repro/internal/explore"
	"repro/internal/memsim"
	"repro/internal/platform"
	"repro/internal/sweep"
	"repro/internal/trace"
)

const composePackets = 250

// composeApps returns every application under test with at least two
// container roles — all four case studies plus the NAT extension.
func composeApps() []apps.App {
	all := append(netapps.All(), netapps.Extensions()...)
	out := all[:0]
	for _, a := range all {
		if len(a.Roles()) >= 2 {
			out = append(out, a)
		}
	}
	return out
}

// uniformAssignment binds every role of a to kind k.
func uniformAssignment(a apps.App, k ddt.Kind) apps.Assignment {
	assign := make(apps.Assignment)
	for _, r := range a.Roles() {
		assign[r.Name] = k
	}
	return assign
}

// runArena executes one arena-mode live simulation and returns the
// platform (for ground-truth counts/cycles/peak).
func runArena(t *testing.T, a apps.App, cfg explore.Config, assign apps.Assignment, pc memsim.Config) *platform.Platform {
	t.Helper()
	tr, err := trace.Builtin(cfg.TraceName, composePackets)
	if err != nil {
		t.Fatal(err)
	}
	p := platform.New(pc)
	p.UseArenas(apps.RoleNames(a))
	if _, err := a.Run(tr, p, assign, cfg.Knobs, nil); err != nil {
		t.Fatal(err)
	}
	return p
}

// captureComposedRun captures one arena-mode run compositionally.
func captureComposedRun(t *testing.T, a apps.App, cfg explore.Config, assign apps.Assignment) (*astream.Schedule, []*astream.UnpackedLane) {
	t.Helper()
	tr, err := trace.Builtin(cfg.TraceName, composePackets)
	if err != nil {
		t.Fatal(err)
	}
	p := platform.New(memsim.DefaultConfig())
	p.UseArenas(apps.RoleNames(a))
	cr := p.CaptureComposed(nil)
	if _, err := a.Run(tr, p, assign, cfg.Knobs, nil); err != nil {
		t.Fatal(err)
	}
	p.EndCapture()
	return cr.Finish()
}

// The headline property of compositional capture: for every application
// with >= 2 roles, 10 all-same-kind captures yield per-(role, kind)
// sub-streams from which ANY DDT combination replays — on every default
// sweep platform — to exactly the Counts, Cycles and footprint Peak of
// an arena-mode live simulation of that combination.
func TestComposedReplayMatchesArenaLive(t *testing.T) {
	platforms := sweep.DefaultPlatforms()
	for _, a := range composeApps() {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			t.Parallel()
			cfg := explore.Config{TraceName: a.TraceNames()[0], Knobs: a.DefaultKnobs()}
			roles := apps.RoleNames(a)

			// 10 captures cover all 10*K (role, kind) lanes.
			var sched *astream.Schedule
			byKind := make(map[ddt.Kind][]*astream.UnpackedLane)
			for _, k := range ddt.AllKinds() {
				s, subs := captureComposedRun(t, a, cfg, uniformAssignment(a, k))
				byKind[k] = subs
				if sched == nil {
					sched = s
				} else if !bytes.Equal(s.Tokens, sched.Tokens) {
					t.Fatalf("kind %v: operation schedule is not DDT-invariant", k)
				}
			}

			rng := rand.New(rand.NewSource(int64(len(roles))))
			for trial := 0; trial < 5; trial++ {
				assign := make(apps.Assignment, len(roles))
				lanes := make([]*astream.UnpackedLane, len(roles)+1)
				lanes[0] = byKind[ddt.AR][0] // ambient lane is kind-invariant
				for i, role := range roles {
					k := ddt.Kind(rng.Intn(ddt.NumKinds))
					assign[role] = k
					lanes[i+1] = byKind[k][i+1]
				}
				comp := astream.Composition{Sched: sched, Lanes: lanes}
				for _, pp := range platforms {
					live := runArena(t, a, cfg, assign, pp.Config)
					got := replayOne(t, comp, pp.Config)
					if got.Counts != live.Mem.Counts() {
						t.Errorf("%s on %s: counts %+v != live %+v", assign, pp.Name, got.Counts, live.Mem.Counts())
					}
					if got.Cycles != live.Mem.Cycles() {
						t.Errorf("%s on %s: cycles %d != live %d", assign, pp.Name, got.Cycles, live.Mem.Cycles())
					}
					if got.Peak != live.Heap.PeakLiveBytes() {
						t.Errorf("%s on %s: peak %d != live %d", assign, pp.Name, got.Peak, live.Heap.PeakLiveBytes())
					}
				}
			}
		})
	}
}

// replayOne replays src on the single configuration cfg, failing the
// test on error.
func replayOne(t *testing.T, src astream.Source, cfg memsim.Config) astream.Cost {
	t.Helper()
	costs, _, err := astream.Replay(src, []memsim.Config{cfg}, astream.ReplayOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return costs[0]
}

// unwalked returns c without its walk count: a cost served from a
// profile walks nothing, so it equals the replayed cost in every field
// but Walked.
func unwalked(c astream.Cost) astream.Cost {
	c.Walked = 0
	return c
}

// TestEngineComposeMatchesArenaLive pins the engine fast path: a full
// step-1 exploration with composition produces exactly the results of
// the same exploration running every combination as an arena-mode live
// simulation, while executing only ~10·K of the 10^K points.
func TestEngineComposeMatchesArenaLive(t *testing.T) {
	a, err := netapps.ByName("DRR")
	if err != nil {
		t.Fatal(err)
	}
	ref := explore.Config{TraceName: a.TraceNames()[0], Knobs: a.DefaultKnobs()}
	base := explore.Options{TracePackets: composePackets, DominantK: 2}

	liveOpts := base
	liveOpts.Arenas = true
	liveOpts.DisableCache = true
	liveEng := explore.NewEngine(a, liveOpts)
	liveS1, err := liveEng.Step1(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}

	compOpts := base
	compOpts.Arenas = true
	compEng := explore.NewEngine(a, compOpts)
	compS1, err := compEng.Step1(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}

	if len(liveS1.Results) != len(compS1.Results) {
		t.Fatalf("result counts differ: %d vs %d", len(liveS1.Results), len(compS1.Results))
	}
	for i := range liveS1.Results {
		lv, cv := liveS1.Results[i], compS1.Results[i]
		if lv.Vec != cv.Vec {
			t.Errorf("%s: composed vector %+v != live %+v", lv.Label(), cv.Vec, lv.Vec)
		}
		if !lv.Summary.Equal(cv.Summary) {
			t.Errorf("%s: summaries differ", lv.Label())
		}
	}
	if len(liveS1.Survivors) != len(compS1.Survivors) {
		t.Errorf("survivor counts differ: %d vs %d", len(liveS1.Survivors), len(compS1.Survivors))
	}

	st := compEng.Stats()
	total := len(compS1.Results)
	if st.Composed == 0 {
		t.Fatal("composition served no jobs")
	}
	// The live executions are the lane captures: at most one per library
	// kind per role-combination prefix — far below the full space.
	if st.Simulated >= total/2 {
		t.Errorf("compose mode executed %d of %d jobs; expected ~10*K captures", st.Simulated, total)
	}
	t.Logf("compose: %d simulated, %d composed of %d jobs", st.Simulated, st.Composed, total)
}

// TestCacheComposedRoundTrip pins persistence: per-role sub-streams and
// schedules survive SaveWithStreams/Load, and a fresh process composes
// from them — even for a platform the original run never evaluated —
// without executing a single simulation.
func TestCacheComposedRoundTrip(t *testing.T) {
	a, err := netapps.ByName("URL")
	if err != nil {
		t.Fatal(err)
	}
	ref := explore.Config{TraceName: a.TraceNames()[0], Knobs: a.DefaultKnobs()}

	warm := explore.Options{TracePackets: composePackets, DominantK: 2, Arenas: true}
	warmEng := explore.NewEngine(a, warm)
	if _, err := warmEng.Step1(context.Background(), ref); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := warmEng.Cache().SaveWithStreams(&buf); err != nil {
		t.Fatal(err)
	}
	loaded := explore.NewCache()
	if err := loaded.Load(&buf); err != nil {
		t.Fatal(err)
	}
	ls, ws := loaded.Stats(), warmEng.Cache().Stats()
	if ls.Lanes != ws.Lanes || ls.Schedules != ws.Schedules {
		t.Fatalf("round trip lost lanes/schedules: %d/%d vs %d/%d", ls.Lanes, ls.Schedules, ws.Lanes, ws.Schedules)
	}

	// New platform configuration: every job must be served by
	// composition from the loaded lanes, with zero executions.
	other := memsim.DefaultConfig()
	other.L1.SizeBytes = 16 << 10
	cold := explore.Options{TracePackets: composePackets, DominantK: 2, Arenas: true, Platform: &other, Cache: loaded}
	coldEng := explore.NewEngine(a, cold)
	s1, err := coldEng.Step1(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	st := coldEng.Stats()
	if st.Simulated != 0 {
		t.Errorf("loaded cache still executed %d simulations", st.Simulated)
	}
	if st.Composed != len(s1.Results) {
		t.Errorf("composed %d of %d jobs", st.Composed, len(s1.Results))
	}

	// And the composed results must match arena-live ground truth.
	sv := s1.Survivors[0]
	live := runArena(t, a, ref, sv.Assign, other)
	if got := live.Metrics(); got != sv.Vec {
		t.Errorf("composed survivor vector %+v != live %+v", sv.Vec, got)
	}
}
