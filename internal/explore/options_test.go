package explore_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/netapps"
	"repro/internal/explore"
	"repro/internal/memsim"
	"repro/internal/sweep"
)

// TestInvalidOptionsRefused pins that every option combination the
// engine cannot run is an error from each entry point, before any
// work, instead of a silently different strategy.
func TestInvalidOptionsRefused(t *testing.T) {
	a, err := netapps.ByName("Route")
	if err != nil {
		t.Fatal(err)
	}
	ref := explore.Configs(a)[0]
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		opts explore.Options
	}{
		{"bound prune without cache", explore.Options{BoundPrune: true, DisableCache: true}},
		{"screening without cache", explore.Options{SampleRate: 1.0 / 64, DisableCache: true}},
		{"NaN sample rate", explore.Options{SampleRate: math.NaN()}},
		{"negative sample rate", explore.Options{SampleRate: -0.5}},
		{"sample rate 1", explore.Options{SampleRate: 1}},
		{"sample rate above 1", explore.Options{SampleRate: 4}},
		{"NaN abort margin", explore.Options{EarlyAbort: true, AbortMargin: math.NaN()}},
		{"negative abort margin", explore.Options{AbortMargin: -0.1}},
	} {
		tc.opts.TracePackets = 50
		eng := explore.NewEngine(a, tc.opts)
		want := eng.Err()
		if want == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		_, err1 := eng.Step1(ctx, ref)
		_, err2 := eng.Step2(ctx, &explore.Step1Result{Reference: ref}, explore.Configs(a))
		_, _, err3 := eng.Explore(ctx)
		_, err4 := eng.Profile(ctx, ref)
		_, err5 := eng.Simulate(ctx, ref, apps.Original(a))
		_, err6 := eng.EvaluatePlatforms(ctx, ref, apps.Original(a), []memsim.Config{memsim.DefaultConfig()})
		for i, err := range []error{err1, err2, err3, err4, err5, err6} {
			if !errors.Is(err, want) {
				t.Errorf("%s: entry point %d returned %v, want %v", tc.name, i+1, err, want)
			}
		}
		if st := eng.Stats(); st != (explore.EngineStats{}) {
			t.Errorf("%s: refused engine did work: %+v", tc.name, st)
		}
	}
}

// TestOptionsCompatibilityPin fixes the exploration context, the
// campaign ID and one job key of the benchmark's option sets and of a
// -compose -noprune run to the strings earlier releases rendered:
// persisted cache entries, tombstones, checkpoints and distributed
// campaigns match on them byte for byte.
func TestOptionsCompatibilityPin(t *testing.T) {
	var tiny memsim.Config
	for _, p := range sweep.DefaultPlatforms() {
		if p.Name == "tiny-4K-64K" {
			tiny = p.Config
		}
	}
	const (
		defPlat  = "{L1:{SizeBytes:8192 LineBytes:32 Assoc:2} L2:{SizeBytes:131072 LineBytes:32 Assoc:8} L1HitCycles:2 L2HitCycles:18 DRAMCycles:150 PipelinedWord:1 ClockHz:1.6e+09}"
		tinyPlat = "{L1:{SizeBytes:4096 LineBytes:32 Assoc:2} L2:{SizeBytes:65536 LineBytes:32 Assoc:8} L1HitCycles:2 L2HitCycles:18 DRAMCycles:150 PipelinedWord:1 ClockHz:1.6e+09}"
	)
	for _, tc := range []struct {
		name, app             string
		opts                  explore.Options
		ctx, campaign, jobKey string
	}{
		{
			"paper-live", "Route", explore.Options{TracePackets: explore.DefaultTracePackets},
			"prune=0 k=2",
			"Route|prune=0 k=2|packets=4000|" + defPlat + "|arenas=false",
			"Route|FLA table=128|4000|arp-cache=SLL if-stats=SLL radix-nodes=SLL rtentries=SLL|" + defPlat,
		},
		{
			"flowmon-k5-cold", "FlowMon", explore.Options{TracePackets: 1000, DominantK: 5, BoundPrune: true, Workers: 1},
			"prune=0 k=5 bound",
			"FlowMon|prune=0 k=5 bound|packets=1000|" + defPlat + "|arenas=true",
			"FlowMon|FLA alarmkb=4 maxflows=64|1000|alarm-queue=SLL expiry-stage=SLL flow-table=SLL host-stats=SLL port-hist=SLL|arenas|" + defPlat,
		},
		{
			"ipchains-k3-screened-warm", "IPchains",
			explore.Options{TracePackets: 8000, DominantK: 3, SampleRate: 1.0 / 64, Platform: &tiny, Cache: explore.NewCache(), Workers: 1},
			"prune=0 k=3 abort=0.1 bound",
			"IPchains|prune=0 k=3 abort=0.1 bound|packets=8000|" + tinyPlat + "|arenas=true",
			"IPchains|FLA rules=32|8000|conntrack=SLL deny-log=SLL rules=SLL|arenas|" + tinyPlat,
		},
		{
			"compose-noprune", "DRR", explore.Options{TracePackets: 8000, Arenas: true, Cache: explore.NewCache()},
			"prune=0 k=2",
			"DRR|prune=0 k=2|packets=8000|" + defPlat + "|arenas=true",
			"DRR|FLA quantum=600|8000|class-stats=SLL flows=SLL pktqueue=SLL|arenas|" + defPlat,
		},
	} {
		a, err := netapps.ByName(tc.app)
		if err != nil {
			t.Fatal(err)
		}
		eng := explore.NewEngine(a, tc.opts)
		if err := eng.Err(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := eng.ExploreContext(); got != tc.ctx {
			t.Errorf("%s: ExploreContext %q, want %q", tc.name, got, tc.ctx)
		}
		if got := eng.CampaignID(); got != tc.campaign {
			t.Errorf("%s: CampaignID %q, want %q", tc.name, got, tc.campaign)
		}
		spec := explore.JobSpec{Cfg: explore.Configs(a)[0], Assign: apps.Original(a)}
		if got := eng.JobKey(spec); got != tc.jobKey {
			t.Errorf("%s: JobKey %q, want %q", tc.name, got, tc.jobKey)
		}
	}
}
