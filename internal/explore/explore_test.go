package explore_test

import (
	"context"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/drr"
	"repro/internal/apps/route"
	"repro/internal/apps/urlsw"
	"repro/internal/ddt"
	"repro/internal/explore"
	"repro/internal/pareto"
)

// testOpts keeps exploration tests fast: short traces are enough to rank
// dominance and separate the DDT kinds.
var testOpts = explore.Options{TracePackets: 500}

func TestConfigsEnumeration(t *testing.T) {
	// Route: 7 traces x 2 radix sizes = 14 configurations (the paper's
	// 1400 exhaustive simulations / 100 combinations).
	cfgs := explore.Configs(route.App{})
	if len(cfgs) != 14 {
		t.Fatalf("Route configs = %d, want 14", len(cfgs))
	}
	ref := cfgs[0]
	if ref.TraceName != "FLA" || ref.Knobs[route.KnobTable] != 128 {
		t.Errorf("reference config = %v, want FLA table=128", ref)
	}
	seen := make(map[string]bool)
	for _, c := range cfgs {
		if seen[c.String()] {
			t.Errorf("duplicate config %v", c)
		}
		seen[c.String()] = true
	}
	// URL: no sweep -> one config per trace.
	if got := len(explore.Configs(urlsw.App{})); got != 5 {
		t.Errorf("URL configs = %d, want 5", got)
	}
}

func TestCombinations(t *testing.T) {
	if got := len(slices.Collect(explore.CombinationSeq(1))); got != 10 {
		t.Fatalf("10^1 = %d", got)
	}
	combos := slices.Collect(explore.CombinationSeq(2))
	if len(combos) != 100 {
		t.Fatalf("10^2 = %d", len(combos))
	}
	seen := make(map[string]bool)
	for _, c := range combos {
		key := c[0].String() + "/" + c[1].String()
		if seen[key] {
			t.Fatalf("duplicate combination %s", key)
		}
		seen[key] = true
	}
	if slices.Collect(explore.CombinationSeq(0)) != nil {
		t.Error("CombinationSeq(0) should yield nothing")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	a := drr.App{}
	cfg := explore.Configs(a)[0]
	assign := apps.Original(a)
	r1, err := explore.Simulate(a, cfg, assign, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := explore.Simulate(a, cfg, assign, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Vec != r2.Vec {
		t.Fatalf("simulation not deterministic: %v vs %v", r1.Vec, r2.Vec)
	}
	if !r1.Summary.Equal(r2.Summary) {
		t.Fatal("summaries differ across identical simulations")
	}
}

func TestStep1(t *testing.T) {
	a := urlsw.App{}
	ref := explore.Configs(a)[0]
	s1, err := explore.NewEngine(a, testOpts).Step1(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1.DominantRoles) != 2 {
		t.Fatalf("dominant roles = %v, want 2", s1.DominantRoles)
	}
	if s1.Simulations != 100 || len(s1.Results) != 100 {
		t.Fatalf("step 1 ran %d simulations, want 100", s1.Simulations)
	}
	if len(s1.Survivors) == 0 || len(s1.Survivors) == 100 {
		t.Fatalf("survivors = %d; pruning degenerate", len(s1.Survivors))
	}
	// The paper observes that roughly 80% of combinations are discarded;
	// accept a broad band around that.
	if f := s1.SurvivorFraction(); f > 0.5 {
		t.Errorf("survivor fraction %.2f; pruning too weak to reduce design time", f)
	}

	// Survivors must be exactly the 4-D front of the results.
	pts := make([]pareto.Point, len(s1.Results))
	for i, r := range s1.Results {
		pts[i] = r.Point(i)
	}
	if got, want := len(s1.Survivors), len(pareto.Front(pts)); got != want {
		t.Errorf("survivors %d != front size %d", got, want)
	}

	// Every simulated combination must preserve application behaviour.
	for _, r := range s1.Results[1:] {
		if !r.Summary.Equal(s1.Results[0].Summary) {
			t.Fatalf("combination %s changed behaviour", r.Label())
		}
	}
}

func TestStep2ReusesReference(t *testing.T) {
	a := urlsw.App{}
	configs := explore.Configs(a)
	s1, err := explore.NewEngine(a, testOpts).Step1(context.Background(), configs[0])
	if err != nil {
		t.Fatal(err)
	}
	s2, err := explore.NewEngine(a, testOpts).Step2(context.Background(), s1, configs)
	if err != nil {
		t.Fatal(err)
	}
	wantNew := len(s1.Survivors) * (len(configs) - 1)
	if s2.Simulations != wantNew {
		t.Errorf("step 2 ran %d simulations, want %d (survivors x non-reference configs)",
			s2.Simulations, wantNew)
	}
	if len(s2.Results) != len(s1.Survivors)*len(configs) {
		t.Errorf("step 2 results = %d, want %d", len(s2.Results), len(s1.Survivors)*len(configs))
	}
	// Per-config slices are complete.
	for _, cfg := range configs {
		if got := len(s2.ResultsFor(cfg)); got != len(s1.Survivors) {
			t.Errorf("config %v has %d results, want %d", cfg, got, len(s1.Survivors))
		}
	}
	// Reduction vs exhaustive (the point of the methodology).
	exhaustive := 100 * len(configs)
	reduced := s1.Simulations + s2.Simulations
	if reduced >= exhaustive {
		t.Errorf("no reduction: %d reduced vs %d exhaustive", reduced, exhaustive)
	}
}

func TestComboKey(t *testing.T) {
	assign := apps.Assignment{"a": ddt.AR, "b": ddt.DLL}
	if got := explore.ComboKey(assign, []string{"a", "b"}); got != "AR+DLL" {
		t.Errorf("ComboKey = %q", got)
	}
	if got := explore.ComboKey(assign, []string{"b", "a"}); got != "DLL+AR" {
		t.Errorf("ComboKey order not respected: %q", got)
	}
}

func TestSimulateUnknownTrace(t *testing.T) {
	a := drr.App{}
	_, err := explore.Simulate(a, explore.Config{TraceName: "nope", Knobs: a.DefaultKnobs()}, apps.Original(a), testOpts)
	if err == nil {
		t.Fatal("unknown trace accepted")
	}
}

func TestDominantKOption(t *testing.T) {
	a := route.App{}
	ref := explore.Configs(a)[0]
	opts := explore.Options{TracePackets: 300, DominantK: 3}
	s1, err := explore.NewEngine(a, opts).Step1(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1.DominantRoles) != 3 {
		t.Fatalf("dominant roles = %v, want 3", s1.DominantRoles)
	}
	if s1.Simulations != 1000 {
		t.Fatalf("10^3 combinations = %d simulations, want 1000", s1.Simulations)
	}
}
