package explore_test

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/urlsw"
	"repro/internal/explore"
	"repro/internal/memsim"
)

func altPlatform() memsim.Config {
	cfg := memsim.DefaultConfig()
	cfg.L1.SizeBytes = 16 << 10
	cfg.L2.SizeBytes = 256 << 10
	return cfg
}

// TestEngineReplayMatchesLive runs step 1 with capture on the default
// platform, re-runs it on a different platform through the same cache
// (everything should be served by stream replay), and checks the results
// are bit-identical to a from-scratch live exploration on that platform.
func TestEngineReplayMatchesLive(t *testing.T) {
	app := urlsw.App{}
	ctx := context.Background()
	ref := explore.Configs(app)[0]
	cache := explore.NewCache()

	engA := explore.NewEngine(app, explore.Options{TracePackets: 300, Cache: cache})
	if _, err := engA.Step1(ctx, ref); err != nil {
		t.Fatal(err)
	}
	if st := engA.Stats(); st.Replayed != 0 || st.Simulated == 0 {
		t.Fatalf("capture engine stats %+v", st)
	}

	alt := altPlatform()
	engB := explore.NewEngine(app, explore.Options{TracePackets: 300, Cache: cache, Platform: &alt})
	s1b, err := engB.Step1(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}
	stB := engB.Stats()
	if stB.Replayed == 0 {
		t.Fatalf("platform-B engine replayed nothing: %+v", stB)
	}
	if stB.Simulated != 0 {
		t.Errorf("platform-B engine executed %d simulations despite captured streams", stB.Simulated)
	}

	engC := explore.NewEngine(app, explore.Options{TracePackets: 300, Platform: &alt})
	s1c, err := engC.Step1(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1b.Results) != len(s1c.Results) {
		t.Fatalf("result counts differ: %d vs %d", len(s1b.Results), len(s1c.Results))
	}
	for i := range s1b.Results {
		if s1b.Results[i].Vec != s1c.Results[i].Vec {
			t.Errorf("combination %d: replay vector %v != live %v",
				i, s1b.Results[i].Vec, s1c.Results[i].Vec)
		}
		if !s1b.Results[i].Summary.Equal(s1c.Results[i].Summary) {
			t.Errorf("combination %d: replay summary diverged", i)
		}
	}
}

// TestStreamPersistence saves a cache with its access streams and checks
// a fresh process-equivalent cache replays (not re-executes) a new
// platform from the restored streams.
func TestStreamPersistence(t *testing.T) {
	app := urlsw.App{}
	ctx := context.Background()
	ref := explore.Configs(app)[0]
	cache := explore.NewCache()
	engA := explore.NewEngine(app, explore.Options{TracePackets: 300, Cache: cache})
	if _, err := engA.Step1(ctx, ref); err != nil {
		t.Fatal(err)
	}
	if cache.Stats().Streams == 0 {
		t.Fatal("no streams captured")
	}

	var buf bytes.Buffer
	if err := cache.SaveWithStreams(&buf); err != nil {
		t.Fatal(err)
	}
	fullSize := buf.Len()
	restored := explore.NewCache()
	if err := restored.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Stats().Streams, cache.Stats().Streams; got != want {
		t.Fatalf("restored %d streams, want %d", got, want)
	}

	alt := altPlatform()
	eng := explore.NewEngine(app, explore.Options{TracePackets: 300, Cache: restored, Platform: &alt})
	if _, err := eng.Step1(ctx, ref); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Simulated != 0 || st.Replayed == 0 {
		t.Fatalf("restored cache did not serve replays: %+v", st)
	}

	// Plain Save must strip streams.
	var lean bytes.Buffer
	if err := cache.Save(&lean); err != nil {
		t.Fatal(err)
	}
	leanSize := lean.Len()
	stripped := explore.NewCache()
	if err := stripped.Load(&lean); err != nil {
		t.Fatal(err)
	}
	if n := stripped.Stats().Streams; n != 0 {
		t.Fatalf("plain Save persisted %d streams", n)
	}
	if leanSize >= fullSize {
		t.Errorf("stream-less save (%dB) not smaller than full save (%dB)", leanSize, fullSize)
	}
}

// TestZeroBudgetCapturesNoStreams pins that a shared-heap engine on a
// supplied cache that keeps no streams (budget <= 0) neither looks
// streams up nor captures them, and explores exactly as with one that
// does.
func TestZeroBudgetCapturesNoStreams(t *testing.T) {
	app := urlsw.App{}
	ctx := context.Background()
	ref := explore.Configs(app)[0]
	cache := explore.NewCache()
	cache.SetStreamBudget(0)
	s1, err := explore.NewEngine(app, explore.Options{TracePackets: 300, Cache: cache}).Step1(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Streams != 0 || st.StreamBytes != 0 || st.StreamHits+st.StreamMisses != 0 {
		t.Fatalf("zero-budget cache saw stream traffic: %+v", st)
	}
	want, err := explore.NewEngine(app, explore.Options{TracePackets: 300, Cache: explore.NewCache()}).Step1(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1.Results) != len(want.Results) {
		t.Fatalf("%d results, want %d", len(s1.Results), len(want.Results))
	}
	for i := range s1.Results {
		if s1.Results[i].Vec != want.Results[i].Vec {
			t.Fatalf("combination %d: %v, want %v", i, s1.Results[i].Vec, want.Results[i].Vec)
		}
	}
}

// TestStreamBudgetEviction pins that the stream store respects its byte
// budget by evicting oldest-first, and that eviction only costs a
// re-execution, never correctness.
func TestStreamBudgetEviction(t *testing.T) {
	app := urlsw.App{}
	ctx := context.Background()
	ref := explore.Configs(app)[0]
	cache := explore.NewCache()
	cache.SetStreamBudget(64 << 10) // far below a full step-1 capture
	eng := explore.NewEngine(app, explore.Options{TracePackets: 300, Cache: cache})
	if _, err := eng.Step1(ctx, ref); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.StreamBytes > 64<<10 {
		t.Fatalf("stream bytes %d exceed the budget", st.StreamBytes)
	}
	if st.Streams == 0 {
		t.Fatal("budget evicted everything including the newest streams")
	}

	// A later platform still works; evicted identities re-execute.
	alt := altPlatform()
	engB := explore.NewEngine(app, explore.Options{TracePackets: 300, Cache: cache, Platform: &alt})
	s1, err := engB.Step1(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}
	stB := engB.Stats()
	if stB.Simulated == 0 {
		t.Error("expected some re-executions after eviction")
	}
	if len(s1.Survivors) == 0 {
		t.Error("no survivors after eviction")
	}
}

// TestReplayPlatformsWarm pins the warm pass: after one captured step 1,
// ReplayPlatforms precomputes another platform's whole job space, so an
// engine on that platform runs on exact cache hits only.
func TestReplayPlatformsWarm(t *testing.T) {
	app := urlsw.App{}
	ctx := context.Background()
	ref := explore.Configs(app)[0]
	cache := explore.NewCache()
	engA := explore.NewEngine(app, explore.Options{TracePackets: 300, Cache: cache})
	if _, err := engA.Step1(ctx, ref); err != nil {
		t.Fatal(err)
	}

	alt := altPlatform()
	n := explore.ReplayPlatforms(cache, []memsim.Config{alt})
	if n == 0 {
		t.Fatal("warm pass evaluated nothing")
	}
	// Idempotent: everything already stored.
	if again := explore.ReplayPlatforms(cache, []memsim.Config{alt}); again != 0 {
		t.Fatalf("second warm pass re-evaluated %d entries", again)
	}

	engB := explore.NewEngine(app, explore.Options{TracePackets: 300, Cache: cache, Platform: &alt})
	if _, err := engB.Step1(ctx, ref); err != nil {
		t.Fatal(err)
	}
	if st := engB.Stats(); st.Simulated != 0 || st.Replayed != 0 || st.CacheHits == 0 {
		t.Fatalf("warmed engine stats %+v; want pure cache hits", st)
	}
}

// TestEvaluatePlatformsExact pins Engine.EvaluatePlatforms against live
// simulation on every returned platform.
func TestEvaluatePlatformsExact(t *testing.T) {
	app := urlsw.App{}
	ctx := context.Background()
	ref := explore.Configs(app)[0]
	eng := explore.NewEngine(app, explore.Options{TracePackets: 300, Cache: explore.NewCache()})

	probes, err := eng.Profile(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}
	roles := probes.Dominant(2)
	combo := slices.Collect(explore.CombinationSeq(len(roles)))[7]
	asg := make(apps.Assignment, len(roles))
	for i, r := range roles {
		asg[r] = combo[i]
	}

	alt := altPlatform()
	cfgs := []memsim.Config{memsim.DefaultConfig(), alt}
	vecs, err := eng.EvaluatePlatforms(ctx, ref, asg, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		c := cfgs[i]
		r, err := explore.Simulate(app, ref, asg, explore.Options{TracePackets: 300, Platform: &c})
		if err != nil {
			t.Fatal(err)
		}
		if r.Vec != vecs[i] {
			t.Errorf("platform %d: %v != live %v", i, vecs[i], r.Vec)
		}
	}
}
