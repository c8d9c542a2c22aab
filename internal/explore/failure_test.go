package explore_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/ddt"
	"repro/internal/explore"
	"repro/internal/platform"
	"repro/internal/profiler"
	"repro/internal/trace"
)

// faultyApp is a minimal apps.App used for failure injection: it runs
// normally unless the assignment binds the "victim" role to the poison
// kind, in which case it fails the way a buggy or resource-limited
// application run would.
type faultyApp struct {
	poison    *ddt.Kind // nil: never fail (ddt.Kind's zero value is AR)
	failProbe bool
}

func (faultyApp) Name() string { return "Faulty" }

func (faultyApp) Roles() []apps.Role {
	return []apps.Role{
		{Name: "victim", RecordBytes: 16},
		{Name: "bystander", RecordBytes: 16},
	}
}

func (faultyApp) DefaultKnobs() apps.Knobs    { return apps.Knobs{"k": 1} }
func (faultyApp) KnobSweep() map[string][]int { return nil }
func (faultyApp) TraceNames() []string        { return []string{"Berry", "Brown"} }

func (f faultyApp) Run(tr *trace.Trace, p *platform.Platform, assign apps.Assignment, knobs apps.Knobs, probes *profiler.Set) (apps.Summary, error) {
	sum := apps.NewSummary()
	if f.failProbe && probes != nil {
		return sum, errors.New("injected profiling failure")
	}
	if f.poison != nil && assign["victim"] == *f.poison {
		return sum, errors.New("injected simulation failure")
	}
	// Touch each container so profiling ranks something.
	for _, role := range []string{"victim", "bystander"} {
		env := apps.EnvFor(p, probes, role)
		l := ddt.New[int](apps.KindFor(assign, role), env, 16)
		for i := 0; i < 10; i++ {
			l.Append(i)
		}
	}
	sum.Packets = len(tr.Packets)
	return sum, nil
}

func TestStep1SurfacesSimulationFailure(t *testing.T) {
	poison := ddt.DLLARO
	app := faultyApp{poison: &poison}
	_, err := explore.NewEngine(app, explore.Options{TracePackets: 50}).Step1(context.Background(), explore.Configs(app)[0])
	if err == nil || !strings.Contains(err.Error(), "injected simulation failure") {
		t.Fatalf("step 1 swallowed the injected failure: %v", err)
	}
}

func TestStep1SurfacesProfilingFailure(t *testing.T) {
	app := faultyApp{failProbe: true}
	_, err := explore.NewEngine(app, explore.Options{TracePackets: 50}).Step1(context.Background(), explore.Configs(app)[0])
	if err == nil || !strings.Contains(err.Error(), "injected profiling failure") {
		t.Fatalf("step 1 swallowed the profiling failure: %v", err)
	}
}

func TestStep2SurfacesFailure(t *testing.T) {
	// Poison a kind that survives step 1 trivially: make every non-poison
	// run identical so the poison only matters on the second config.
	// Simplest: run step 1 clean, then poison and run step 2.
	clean := faultyApp{}
	configs := explore.Configs(clean)
	s1, err := explore.NewEngine(clean, explore.Options{TracePackets: 50}).Step1(context.Background(), configs[0])
	if err != nil {
		t.Fatal(err)
	}
	poison := s1.Survivors[0].Assign["victim"]
	poisoned := faultyApp{poison: &poison}
	_, err = explore.NewEngine(poisoned, explore.Options{TracePackets: 50}).Step2(context.Background(), s1, configs)
	if err == nil {
		t.Fatal("step 2 swallowed the injected failure")
	}
}

func TestFaultyAppCleanRunWorks(t *testing.T) {
	// The stub itself must be a conforming app when not poisoned, so the
	// failure tests above fail for the right reason.
	app := faultyApp{}
	s1, err := explore.NewEngine(app, explore.Options{TracePackets: 50}).Step1(context.Background(), explore.Configs(app)[0])
	if err != nil {
		t.Fatal(err)
	}
	if s1.Simulations != 100 || len(s1.Survivors) == 0 {
		t.Fatalf("stub exploration degenerate: %d sims, %d survivors",
			s1.Simulations, len(s1.Survivors))
	}
}
