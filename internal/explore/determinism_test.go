package explore_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/apps/netapps"
	"repro/internal/explore"
	"repro/internal/memsim"
	"repro/internal/sweep"
)

// runDigest is everything a guarded Step1 reports about its own work:
// the engine counters, the step's disposition counts and the survivor
// set.
type runDigest struct {
	stats     explore.EngineStats
	counts    [7]float64 // Simulations, Results, Aborted, Pruned, Screened, Verified, SampleRate
	survivors string
}

func digestStep1(eng *explore.Engine, s1 *explore.Step1Result) runDigest {
	labels := make([]string, len(s1.Survivors))
	for i, sv := range s1.Survivors {
		labels[i] = sv.Label()
	}
	slices.Sort(labels)
	return runDigest{
		stats: eng.Stats(),
		counts: [7]float64{float64(s1.Simulations), float64(len(s1.Results)), float64(s1.Aborted),
			float64(s1.Pruned), float64(s1.Screened), float64(s1.Verified), s1.SampleRate},
		survivors: fmt.Sprint(labels),
	}
}

// TestGuardedStep1Deterministic pins that a guarded Step1 repeats
// itself exactly: for a given worker count, every EngineStats field,
// every disposition count and the survivor set are identical across
// runs and GOMAXPROCS settings. Prunes, subtree cuts and mid-replay
// aborts are decided against the running front, so this holds only
// because no job sees a front that other in-flight jobs are still
// growing. (The worker count is the epoch width, so counts may differ
// between worker counts; the survivor set may not.)
func TestGuardedStep1Deterministic(t *testing.T) {
	const runs = 5
	ctx := context.Background()
	flowmon, err := netapps.ByName("FlowMon")
	if err != nil {
		t.Fatal(err)
	}
	ipchains, err := netapps.ByName("IPchains")
	if err != nil {
		t.Fatal(err)
	}
	drr, err := netapps.ByName("DRR")
	if err != nil {
		t.Fatal(err)
	}
	// The warm cells load the lane store a cold screened run leaves.
	var store bytes.Buffer
	screened := func(workers int, cache *explore.Cache) explore.Options {
		return explore.Options{TracePackets: 2000, DominantK: 3, SampleRate: 1.0 / 64, Workers: workers, Cache: cache}
	}
	warm := func(w int, platform *memsim.Config) (*explore.Engine, error) {
		c := explore.NewCache()
		if err := c.Load(bytes.NewReader(store.Bytes())); err != nil {
			return nil, err
		}
		opts := screened(w, c)
		opts.Platform = platform
		return explore.NewEngine(ipchains, opts), nil
	}
	other := sweep.DefaultPlatforms()[5].Config
	cold := explore.NewEngine(ipchains, screened(1, nil))
	if _, err := cold.Step1(ctx, explore.Configs(ipchains)[0]); err != nil {
		t.Fatal(err)
	}
	if err := cold.Cache().SaveWithStreams(&store); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		workers []int
		engine  func(workers int) (*explore.Engine, error)
	}{
		{"flowmon-k5-branch-and-bound", []int{1, 2}, func(w int) (*explore.Engine, error) {
			return explore.NewEngine(flowmon, explore.Options{TracePackets: 300, DominantK: 5, BoundPrune: true, Workers: w}), nil
		}},
		{"ipchains-k3-screened-cold", []int{1, 2}, func(w int) (*explore.Engine, error) {
			return explore.NewEngine(ipchains, screened(w, nil)), nil
		}},
		// Flat composed Step1 under early abort: the capture plan's live
		// runs share an epoch at two workers, and every later job
		// composes.
		{"drr-k3-composed-abort-cold", []int{1, 2}, func(w int) (*explore.Engine, error) {
			return explore.NewEngine(drr, explore.Options{TracePackets: 200, DominantK: 3, Arenas: true, EarlyAbort: true, Workers: w}), nil
		}},
		{"ipchains-k3-screened-warm", []int{2}, func(w int) (*explore.Engine, error) {
			return warm(w, nil)
		}},
		// Warm lanes, but no results: every combination is screened
		// and verified again on a platform the store has not seen.
		{"ipchains-k3-screened-warm-new-platform", []int{2}, func(w int) (*explore.Engine, error) {
			return warm(w, &other)
		}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range cases {
		want := make(map[int]runDigest)
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			for _, w := range tc.workers {
				for run := 0; run < runs; run++ {
					eng, err := tc.engine(w)
					if err != nil {
						t.Fatal(err)
					}
					s1, err := eng.Step1(ctx, explore.Configs(eng.App())[0])
					if err != nil {
						t.Fatal(err)
					}
					got := digestStep1(eng, s1)
					first, ok := want[w]
					if !ok {
						for _, d := range want {
							if d.survivors != got.survivors {
								t.Fatalf("%s: Workers=%d survivors %s, want %s", tc.name, w, got.survivors, d.survivors)
							}
						}
						want[w] = got
						t.Logf("%s, Workers=%d: %+v counts %v", tc.name, w, got.stats, got.counts)
						continue
					}
					if got != first {
						t.Fatalf("%s, GOMAXPROCS=%d, Workers=%d, run %d:\n got stats %+v counts %v\nwant stats %+v counts %v\nsurvivors equal: %v",
							tc.name, procs, w, run, got.stats, got.counts, first.stats, first.counts, got.survivors == first.survivors)
					}
				}
			}
		}
	}
}

// TestFlowMonK5Step1WorkPinned pins the work of the one tree search the
// benchmark runs, at a scale the test suite affords: FlowMon K=5 Step1
// at 300 packets on one worker repeats every EngineStats field and the
// survivor set exactly (TestGuardedStep1Deterministic), so they are
// pinned here as recorded values. A change to the search order, the
// bounds or the guard shows as a changed count even when the front
// stays the same.
func TestFlowMonK5Step1WorkPinned(t *testing.T) {
	flowmon, err := netapps.ByName("FlowMon")
	if err != nil {
		t.Fatal(err)
	}
	eng := explore.NewEngine(flowmon, explore.Options{TracePackets: 300, DominantK: 5, BoundPrune: true, Workers: 1})
	s1, err := eng.Step1(context.Background(), explore.Configs(flowmon)[0])
	if err != nil {
		t.Fatal(err)
	}
	want := explore.EngineStats{
		Simulated:         10,
		Composed:          102,
		Aborted:           97,
		Pruned:            99791,
		LaneProfiles:      51,
		Expanded:          5291,
		SubtreeCuts:       4561,
		LiveAccesses:      570095,
		LiveProbes:        214359,
		ReplayAccesses:    1767719,
		BoundEvals:        199,
		LaneBytesCaptured: 2113152,
	}
	if got := eng.Stats(); got != want {
		t.Errorf("stats\n got %+v\nwant %+v", got, want)
	}
	labels := make([]string, len(s1.Survivors))
	for i, sv := range s1.Survivors {
		labels[i] = sv.Label()
	}
	slices.Sort(labels)
	const wantSurvivors, wantDigest = 84, "020c06caf70ba8e66c3b400eefa8e5c53bdb70e90b0ebd7a9f0b057d67063981"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(labels, "\n")))); len(labels) != wantSurvivors || got != wantDigest {
		t.Errorf("%d survivors with label digest %s, want %d with %s:\n%s", len(labels), got, wantSurvivors, wantDigest, strings.Join(labels, "\n"))
	}
}

// step2Digest is everything a Step2 reports about its own work: the
// engine counters after it, its disposition counts, and which result
// slot ran to completion, was cut or was pruned.
type step2Digest struct {
	stats        explore.EngineStats
	counts       [4]int // Simulations, Results, Aborted, Pruned
	dispositions string
}

func digestStep2(eng *explore.Engine, s2 *explore.Step2Result) step2Digest {
	disp := make([]byte, len(s2.Results))
	for i, r := range s2.Results {
		switch {
		case r.Pruned:
			disp[i] = 'p'
		case r.Aborted:
			disp[i] = 'a'
		default:
			disp[i] = '.'
		}
	}
	return step2Digest{
		stats:        eng.Stats(),
		counts:       [4]int{s2.Simulations, len(s2.Results), s2.Aborted, s2.Pruned},
		dispositions: string(disp),
	}
}

// TestGuardedStep2Deterministic carries the FlowMon cell of
// TestGuardedStep1Deterministic through Step2: for a given worker count
// the engine counters, the disposition counts and each result's
// disposition repeat across runs and GOMAXPROCS settings. Step2 runs
// its capture plan first and lands each outcome in its survivor slot,
// and the per-configuration guards grow in draw order, epoch by epoch.
func TestGuardedStep2Deterministic(t *testing.T) {
	const runs = 3
	ctx := context.Background()
	flowmon, err := netapps.ByName("FlowMon")
	if err != nil {
		t.Fatal(err)
	}
	configs := explore.Configs(flowmon)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	want := make(map[int]step2Digest)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, w := range []int{1, 2} {
			for run := 0; run < runs; run++ {
				eng := explore.NewEngine(flowmon, explore.Options{TracePackets: 300, DominantK: 5, BoundPrune: true, Workers: w})
				s1, err := eng.Step1(ctx, configs[0])
				if err != nil {
					t.Fatal(err)
				}
				s2, err := eng.Step2(ctx, s1, configs)
				if err != nil {
					t.Fatal(err)
				}
				got := digestStep2(eng, s2)
				first, ok := want[w]
				if !ok {
					want[w] = got
					t.Logf("Workers=%d: %+v counts %v", w, got.stats, got.counts)
					continue
				}
				if got != first {
					t.Fatalf("GOMAXPROCS=%d, Workers=%d, run %d:\n got stats %+v counts %v\nwant stats %+v counts %v\ndispositions equal: %v",
						procs, w, run, got.stats, got.counts, first.stats, first.counts, got.dispositions == first.dispositions)
				}
			}
		}
	}
}
