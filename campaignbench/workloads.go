package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/apps"
	"repro/internal/apps/netapps"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/pareto"
	"repro/internal/sweep"
)

// workload is one input set of the benchmark: a Step1 strategy with the
// applications, options and cache state it runs on.
type workload struct {
	name string
	// packets is the built-in trace length every configuration reads.
	packets int
	// prepare does untimed work once per process, before any round.
	prepare func(b *bench) error
	// setup builds one round's engines: the part of a round timed as
	// setup_s. Every round sets up afresh, so no round inherits cache
	// state from an earlier one.
	setup func(b *bench, sp *spans, parent int) (*campaign, error)
	// traces lists the built-in trace names the workload's
	// configurations read.
	traces func() []string
	// premise checks what the workload assumes about the work the
	// engine did for one operation.
	premise func(b *bench, o outcome) error
}

// campaign is one round after set-up: its operations, run in order.
type campaign struct {
	ops []op
}

// op is one operation, i.e. one campaign in the paper's sense: a full
// methodology, or a Step1 alone when step1Only is set.
type op struct {
	name      string
	app       apps.App
	eng       *explore.Engine
	step1Only bool
}

// outcome is what one operation returned, reduced to what the gates and
// the per-layer counts read.
type outcome struct {
	op    string
	s1    *explore.Step1Result
	s2    *explore.Step2Result // nil for a Step1-only operation
	stats explore.EngineStats
	// fronts holds each configuration's 4-D front labels, reference
	// configuration first.
	fronts []configFront
}

type configFront struct {
	config string
	labels []string
}

// prunedWorkers is the worker count of the two pruned workloads. With
// more than one, which combinations a bound or guard discards, and how
// the workers contend, depend on how the scheduler interleaves them: on
// a 2-core machine a round's CPU time varied with a coefficient of
// variation of 0.07-0.11, against 0.03-0.04 with one worker. paper-live
// discards nothing and keeps the engine's default pool.
const prunedWorkers = 1

const (
	paperLive      = "paper-live"
	flowmonCold    = "flowmon-k5-cold"
	screenedWarm   = "ipchains-k3-screened-warm"
	screenedFile   = "ipchains-k3-screened.simcache"
	screenedApp    = "IPchains"
	screenedK      = 3
	screenedSample = 1.0 / 64
)

// workloads lists the benchmark's workloads in BENCHMARK.json order.
func workloads() []*workload {
	return []*workload{
		{
			name:    paperLive,
			packets: explore.DefaultTracePackets,
			setup:   setupPaperLive,
			traces:  func() []string { return tracesOf(netapps.All()...) },
			premise: premisePaperLive,
		},
		{
			name:    flowmonCold,
			packets: 1000,
			setup:   setupFlowmon,
			traces:  func() []string { return tracesOf(mustApp("FlowMon")) },
			premise: premiseFlowmon,
		},
		{
			name:    screenedWarm,
			packets: 8000,
			prepare: prepareScreened,
			setup:   setupScreened,
			traces:  func() []string { return []string{explore.Configs(mustApp(screenedApp))[0].TraceName} },
			premise: premiseScreened,
		},
	}
}

// workers is the number of engine workers the workload's campaigns run.
func (w *workload) workers() int {
	if w.name == paperLive {
		return runtime.GOMAXPROCS(0)
	}
	return prunedWorkers
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func mustApp(name string) apps.App {
	a, err := netapps.ByName(name)
	if err != nil {
		panic(err) // the names above are compiled in
	}
	return a
}

// tracesOf lists the distinct trace names the apps' configurations read.
func tracesOf(as ...apps.App) []string {
	var out []string
	seen := make(map[string]bool)
	for _, a := range as {
		for _, cfg := range explore.Configs(a) {
			if !seen[cfg.TraceName] {
				seen[cfg.TraceName] = true
				out = append(out, cfg.TraceName)
			}
		}
	}
	return out
}

func setupPaperLive(b *bench, _ *spans, _ int) (*campaign, error) {
	c := &campaign{}
	for _, name := range netapps.Names() {
		a, err := netapps.ByName(name)
		if err != nil {
			return nil, err
		}
		eng := explore.NewEngine(a, explore.Options{TracePackets: b.packets})
		c.ops = append(c.ops, op{name: name, app: a, eng: eng})
	}
	return c, nil
}

func setupFlowmon(b *bench, _ *spans, _ int) (*campaign, error) {
	a, err := netapps.ByName("FlowMon")
	if err != nil {
		return nil, err
	}
	eng := explore.NewEngine(a, explore.Options{TracePackets: b.packets, DominantK: 5, BoundPrune: true, Workers: prunedWorkers})
	return &campaign{ops: []op{{name: a.Name(), app: a, eng: eng}}}, nil
}

// screenedOptions are the screened workload's engine options on one
// platform; cache is shared by every platform of a round.
func screenedOptions(packets int, platform *memsim.Config, cache *explore.Cache) explore.Options {
	return explore.Options{
		TracePackets: packets,
		DominantK:    screenedK,
		SampleRate:   screenedSample,
		Platform:     platform,
		Cache:        cache,
		Workers:      prunedWorkers,
	}
}

// screenedPlatforms returns the default sweep's platforms other than
// the default one the cache file was built on.
func screenedPlatforms() []sweep.PlatformPoint {
	var out []sweep.PlatformPoint
	for _, p := range sweep.DefaultPlatforms() {
		if p.Config != memsim.DefaultConfig() {
			out = append(out, p)
		}
	}
	return out
}

// prepareScreened runs a cold screened Step1 on the default platform and
// saves its cache with streams: the lane store every round loads.
func prepareScreened(b *bench) error {
	a, err := netapps.ByName(screenedApp)
	if err != nil {
		return err
	}
	eng := explore.NewEngine(a, screenedOptions(b.packets, nil, nil))
	if _, err := eng.Step1(context.Background(), explore.Configs(a)[0]); err != nil {
		return fmt.Errorf("preparing the screened cache: %w", err)
	}
	path := filepath.Join(b.workdir, screenedFile)
	if err := eng.Cache().SaveFile(path, true); err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	b.cacheFileMB = float64(st.Size()) / (1 << 20)
	return nil
}

func setupScreened(b *bench, sp *spans, parent int) (*campaign, error) {
	a, err := netapps.ByName(screenedApp)
	if err != nil {
		return nil, err
	}
	id := sp.begin("cache.load", parent)
	cache := explore.NewCache()
	rep, err := cache.LoadFile(filepath.Join(b.workdir, screenedFile))
	sp.end(id)
	if err != nil {
		return nil, fmt.Errorf("loading the screened cache: %w", err)
	}
	if len(rep.Dropped) > 0 || rep.Truncated {
		return nil, fmt.Errorf("loading the screened cache: dropped %v, truncated %v", rep.Dropped, rep.Truncated)
	}
	c := &campaign{}
	for _, p := range screenedPlatforms() {
		cfg := p.Config
		eng := explore.NewEngine(a, screenedOptions(b.packets, &cfg, cache))
		c.ops = append(c.ops, op{name: p.Name, app: a, eng: eng, step1Only: true})
	}
	return c, nil
}

// run executes the operation. Untraced (sp nil) it goes through the
// public entry point a user calls: core.Methodology.RunContext for a
// full methodology. Traced, it replays RunContext's order through the
// engine's public calls with a span around each.
func (o op) run(ctx context.Context, sp *spans, parent int) (outcome, error) {
	ref := explore.Configs(o.app)[0]
	if sp == nil && !o.step1Only {
		r, err := core.Methodology{App: o.app, Engine: o.eng}.RunContext(ctx)
		if err != nil {
			return outcome{}, err
		}
		out := outcome{op: o.name, s1: r.Step1, s2: r.Step2, stats: o.eng.Stats()}
		for _, cr := range r.Configs {
			out.fronts = append(out.fronts, configFront{cr.Config.String(), labels(cr.Front4D)})
		}
		return out, nil
	}

	id := sp.begin("explore.profile", parent)
	_, err := o.eng.Profile(ctx, ref)
	sp.end(id)
	if err != nil {
		return outcome{}, err
	}
	id = sp.begin("explore.step1", parent)
	s1, err := o.eng.Step1(ctx, ref)
	sp.end(id)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{op: o.name, s1: s1}
	if o.step1Only {
		pts := resultPoints(explore.Live(s1.Results))
		out.fronts = []configFront{{ref.String(), labels(pareto.Front(pts))}}
		out.stats = o.eng.Stats()
		return out, nil
	}

	configs := explore.Configs(o.app)
	id = sp.begin("explore.step2", parent)
	s2, err := o.eng.Step2(ctx, s1, configs)
	sp.end(id)
	if err != nil {
		return outcome{}, err
	}
	out.s2 = s2

	// Step 3 as core.RunContext computes it: per-configuration fronts,
	// trade-off spans and the reference configuration's factors.
	id = sp.begin("pareto.step3", parent)
	var refPts, refFront []pareto.Point
	for i, cfg := range configs {
		results := explore.Live(s2.ResultsFor(cfg))
		if i == 0 {
			results = explore.Live(s1.Results)
		}
		pts := resultPoints(results)
		front := pareto.Front(pts)
		pareto.Front2D(pts, metrics.Time, metrics.Energy)
		pareto.Front2D(pts, metrics.Accesses, metrics.Footprint)
		for _, m := range metrics.AllMetrics() {
			pareto.TradeoffRange(front, m)
		}
		if i == 0 {
			refPts, refFront = pts, front
		}
		out.fronts = append(out.fronts, configFront{cfg.String(), labels(front)})
	}
	for _, m := range metrics.AllMetrics() {
		pareto.WorstBestFactor(refPts, refFront, m)
	}
	sp.end(id)

	id = sp.begin("explore.original", parent)
	_, err = o.eng.Simulate(ctx, ref, apps.Original(o.app))
	sp.end(id)
	if err != nil {
		return outcome{}, err
	}
	out.stats = o.eng.Stats()
	return out, nil
}

func resultPoints(rs []explore.Result) []pareto.Point {
	pts := make([]pareto.Point, len(rs))
	for i, r := range rs {
		pts[i] = r.Point(i)
	}
	return pts
}

func labels(pts []pareto.Point) []string {
	out := make([]string, len(pts))
	for i, p := range pts {
		out[i] = p.Label
	}
	return out
}
