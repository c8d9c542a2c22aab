package explore

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/apps"
	"repro/internal/apps/netapps"
	"repro/internal/astream"
	"repro/internal/ddt"
	"repro/internal/memsim"
	"repro/internal/metrics"
)

// memoPlatforms are platforms differing in every L1 dimension: size,
// line size and associativity.
func memoPlatforms() []memsim.Config {
	small, wide, assoc := memsim.DefaultConfig(), memsim.DefaultConfig(), memsim.DefaultConfig()
	small.L1.SizeBytes = 4 << 10
	wide.L1.LineBytes, wide.L2.LineBytes = 64, 64
	assoc.L1.Assoc = 4
	return []memsim.Config{memsim.DefaultConfig(), small, wide, assoc}
}

// TestEngineKeysMatchFormatters pins the engine's memoized cache keys
// byte for byte to the plain formatters — the keys are persisted, so a
// memo that renders differently would orphan every saved entry — across
// applications, both address models, every configuration and repeated
// (memo-hit) lookups through distinct but equal knob maps.
func TestEngineKeysMatchFormatters(t *testing.T) {
	pc := memoPlatforms()[2]
	for _, a := range append(netapps.All(), netapps.Extensions()...) {
		for _, opts := range []Options{{}, {Arenas: true, TracePackets: 77}, {Arenas: true, Platform: &pc}} {
			e := NewEngine(a, opts)
			app, packets := a.Name(), e.opts.packets()
			for pass := 0; pass < 2; pass++ {
				for _, cfg := range Configs(a) {
					cfg.Knobs = cfg.Knobs.Clone() // equal content, fresh map
					assign := uniformKinds(a, ddt.Kind(pass+3))
					if got, want := e.jobKey(cfg, assign), cacheKey(app, cfg, assign, packets, e.opts.platformConfig(), e.opts.Arenas); got != want {
						t.Fatalf("jobKey %q, cacheKey %q", got, want)
					}
					if got, want := e.keysFor(cfg).sched, schedKey(app, cfg, packets); got != want {
						t.Fatalf("sched key %q, schedKey %q", got, want)
					}
					for _, role := range apps.RoleNames(a) {
						for _, k := range ddt.AllKinds() {
							if got, want := e.keysFor(cfg).lane(role, k), laneKey(app, cfg, packets, role, k); got != want {
								t.Fatalf("lane key %q, laneKey %q", got, want)
							}
						}
					}
				}
			}
			if n := len(e.keyMemo().cfgs[Configs(a)[0].TraceName]); n == 0 || n > len(Configs(a)) {
				t.Fatalf("%s: %d memo entries for one trace's %d configurations", a.Name(), n, len(Configs(a)))
			}
		}
	}
}

// schedKey and laneKey are the reference renderings of the schedule and
// lane keys, as saved cache files hold them.
func schedKey(app string, cfg Config, packets int) string {
	return fmt.Sprintf("%s|%s|%d|sched", app, cfg, packets)
}

func laneKey(app string, cfg Config, packets int, role string, kind ddt.Kind) string {
	return fmt.Sprintf("%s|%s|%d|lane|%s=%s", app, cfg, packets, role, kind)
}

// uniformKinds binds every role of a to kind k.
func uniformKinds(a apps.App, k ddt.Kind) apps.Assignment {
	assign := make(apps.Assignment)
	for _, r := range apps.RoleNames(a) {
		assign[r] = k
	}
	return assign
}

// peakFixture runs a bound-pruned Step1 on DRR's 3-role grid so the
// cache holds the schedule and every (role, kind) lane, and returns the
// engine with the reference configuration and dominant roles.
func peakFixture(t *testing.T, opts Options) (*Engine, Config, []string) {
	t.Helper()
	a, err := netapps.ByName("DRR")
	if err != nil {
		t.Fatal(err)
	}
	opts.TracePackets, opts.DominantK, opts.BoundPrune = 120, 3, true
	eng := NewEngine(a, opts)
	ref := Config{TraceName: a.TraceNames()[0], Knobs: a.DefaultKnobs()}
	s1, err := eng.Step1(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	return eng, ref, s1.DominantRoles
}

// randomJob draws a combination of the dominant roles' kinds.
func randomJob(rng *rand.Rand, ref Config, dominant []string) Job {
	assign := make(apps.Assignment, len(dominant))
	for _, r := range dominant {
		assign[r] = ddt.Kind(rng.Intn(ddt.NumKinds))
	}
	return Job{Cfg: ref, Assign: assign}
}

// unmemoizedPeak walks the job's combination with astream.ComposedPeak
// directly.
func unmemoizedPeak(t *testing.T, e *Engine, jb Job) uint64 {
	t.Helper()
	comp, _, ok := e.composition(jb.Cfg, jb.Assign)
	if !ok {
		t.Fatalf("lanes of %s not cached", jb.Assign)
	}
	p, err := astream.ComposedPeak(comp)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPeakMemoMatchesComposedPeak pins the schedule's peak memo to an
// unmemoized walk on random combinations, on first and repeated
// requests: each combination is stored once, under its walked peak.
func TestPeakMemoMatchesComposedPeak(t *testing.T) {
	e, ref, dominant := peakFixture(t, Options{})
	sk := e.keysFor(ref).sched
	se, _ := e.cache.scheds.get(e.cache, sk)
	sched := se.Sched
	rng := rand.New(rand.NewSource(5))
	walked := make(map[string]uint64)
	var jobs []Job
	for i := 0; i < 200; i++ {
		jb := randomJob(rng, ref, dominant)
		jobs = append(jobs, jb)
		got, ok := e.exactPeak(sk, sched, jb)
		if !ok {
			t.Fatalf("no peak for %s", jb.Assign)
		}
		want := unmemoizedPeak(t, e, jb)
		if got != want {
			t.Fatalf("%s: memoized peak %d, walked %d", jb.Assign, got, want)
		}
		walked[string(peakKey(nil, sched.Roles, jb.Assign))] = want
	}
	e.cache.sm.RLock()
	pm := e.cache.scheds.m[sk].peaks
	e.cache.sm.RUnlock()
	n := len(pm.m)
	for key, want := range walked {
		if got, ok := pm.m[key]; !ok || got != want {
			t.Fatalf("memo entry %v: %d/%v, want %d", []byte(key), got, ok, want)
		}
	}
	for _, jb := range jobs {
		e.exactPeak(sk, sched, jb)
	}
	if len(pm.m) != n {
		t.Fatalf("repeated requests grew the memo from %d to %d entries", n, len(pm.m))
	}
}

// TestPeakMemoConcurrentEngines runs engines on several platforms over
// one shared cache, each asking for the peaks and lane bounds of
// overlapping random combinations from several goroutines (run under
// -race), so schedule memos and the lanes' suffix tables of several
// geometries are built concurrently: every peak must equal the
// unmemoized walk, and an engine's goroutines must agree on every
// bound.
func TestPeakMemoConcurrentEngines(t *testing.T) {
	seed, ref, dominant := peakFixture(t, Options{})
	var engines []*Engine
	for _, pc := range memoPlatforms() {
		engines = append(engines, NewEngine(seed.app, Options{
			TracePackets: 120, DominantK: 3, BoundPrune: true, Platform: &pc, Cache: seed.cache,
		}))
	}
	want := make(map[string]uint64)
	rng := rand.New(rand.NewSource(9))
	var jobs []Job
	for i := 0; i < 60; i++ {
		jb := randomJob(rng, ref, dominant)
		jobs = append(jobs, jb)
		want[jb.Assign.String()] = unmemoizedPeak(t, seed, jb)
	}
	never := func(metrics.Vector) bool { return false }
	bounds := make([][2][]metrics.Vector, len(engines))
	var wg sync.WaitGroup
	for w, e := range engines {
		for g := 0; g < 2; g++ {
			bounds[w][g] = make([]metrics.Vector, len(jobs))
			wg.Add(1)
			go func() {
				defer wg.Done()
				sk := e.keysFor(ref).sched
				se, _ := e.cache.scheds.get(e.cache, sk)
				sched := se.Sched
				order := rand.New(rand.NewSource(int64(10*w + g))).Perm(len(jobs))
				for _, i := range order {
					jb := jobs[i]
					if got, ok := e.exactPeak(sk, sched, jb); !ok || got != want[jb.Assign.String()] {
						t.Errorf("engine %d: %s peak %d/%v, want %d", w, jb.Assign, got, ok, want[jb.Assign.String()])
						return
					}
					b, _, ok, _ := e.jobBound(jb, never)
					if !ok {
						t.Errorf("engine %d: no bound for %s", w, jb.Assign)
						return
					}
					bounds[w][g][i] = b
				}
			}()
		}
	}
	wg.Wait()
	for w := range engines {
		if !slices.Equal(bounds[w][0], bounds[w][1]) {
			t.Fatalf("engine %d: concurrent goroutines disagree on bounds", w)
		}
	}
}

// TestPeakMemoHoldsNoLanes pins that the peak memo keeps nothing but
// numbers: schedules are never evicted, so a memo holding lanes would
// keep every lane it ever walked alive past its eviction. After the
// memo has served combinations, evicting the lanes must let the decoded
// lanes be collected, and the memo must keep answering.
func TestPeakMemoHoldsNoLanes(t *testing.T) {
	e, ref, dominant := peakFixture(t, Options{})
	sk := e.keysFor(ref).sched
	se, _ := e.cache.scheds.get(e.cache, sk)
	sched := se.Sched
	rng := rand.New(rand.NewSource(3))
	jb := randomJob(rng, ref, dominant)
	want := unmemoizedPeak(t, e, jb)
	if got, ok := e.exactPeak(sk, sched, jb); !ok || got != want {
		t.Fatalf("peak %d/%v, want %d", got, ok, want)
	}

	var collected sync.WaitGroup
	e.cache.sm.Lock()
	for _, l := range e.cache.lanes.m {
		if l.dec != nil {
			collected.Add(1)
			runtime.SetFinalizer(l.dec, func(*astream.UnpackedLane) { collected.Done() })
		}
	}
	e.cache.sm.Unlock()
	e.cache.SetStreamBudget(1)
	if st := e.cache.Stats(); st.Lanes != 0 || st.Schedules == 0 {
		t.Fatalf("eviction left %d lanes, %d schedules", st.Lanes, st.Schedules)
	}
	done := make(chan struct{})
	go func() { collected.Wait(); close(done) }()
	for deadline := time.Now().Add(10 * time.Second); ; {
		runtime.GC()
		select {
		case <-done:
			if got, ok := e.exactPeak(sk, sched, jb); !ok || got != want {
				t.Fatalf("memo lost the peak after eviction: %d/%v, want %d", got, ok, want)
			}
			return
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("evicted lanes stayed reachable")
		}
	}
}

// TestEngineSizeClass pins explore.Engine inside the 512-byte allocator
// size class. Crossing it (456 → 520 bytes) measurably raised the
// campaign benchmark's paper-live setup_s (see the FOUND line on
// setup_s and allocator size classes in CHANGES.md); a field that must
// grow the struct belongs behind a pointer, as the keys memo is.
func TestEngineSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Engine{}); n > 512 {
		t.Fatalf("unsafe.Sizeof(Engine{}) = %d bytes, want <= 512: struct growth past the 512-byte size class "+
			"slows paper-live setup_s (CHANGES.md, FOUND line on setup_s and size classes); move the new state behind a pointer", n)
	}
}
