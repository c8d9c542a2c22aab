// Package repro is the public API of the DDTR reproduction: the dynamic
// data type refinement methodology of Bartzas et al. (DATE 2006) together
// with everything it runs on — the 10-DDT container library, the simulated
// embedded platform (virtual heap, cache hierarchy, CACTI-like energy
// model), the four NetBench-style case studies and the synthetic
// NLANR/Dartmouth-style traces.
//
// Quick start:
//
//	m, _ := repro.MethodologyFor("URL", 4000)
//	rep, _ := m.Run()
//	fmt.Printf("simulations: %d instead of %d (%.0f%% less)\n",
//		rep.Reduced, rep.Exhaustive, 100*rep.ReductionFraction())
//	best := rep.BestEnergy
//	fmt.Printf("pick %s: %v\n", best.Label, best.Vec)
//
// See examples/ for runnable programs and the README's Architecture
// section for the system map.
package repro

import (
	"context"

	"repro/internal/apps"
	"repro/internal/apps/netapps"
	"repro/internal/core"
	"repro/internal/ddt"
	"repro/internal/explore"
	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/pareto"
	"repro/internal/platform"
	"repro/internal/profiler"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// Re-exported types. The alias forms keep one canonical definition in the
// internal packages while giving library users a single import.
type (
	// App is a network application under DDT refinement.
	App = apps.App
	// Assignment maps container roles to DDT kinds.
	Assignment = apps.Assignment
	// Knobs are application-specific network parameters.
	Knobs = apps.Knobs
	// Summary reports application behaviour independent of cost.
	Summary = apps.Summary

	// Kind identifies one of the ten DDT implementations.
	Kind = ddt.Kind
	// List is the sequence abstraction all ten DDTs implement.
	List[V any] = ddt.List[V]
	// Env is the execution environment a DDT charges its costs to.
	Env = ddt.Env

	// Platform is the simulated embedded platform.
	Platform = platform.Platform
	// PlatformConfig describes the simulated memory subsystem.
	PlatformConfig = memsim.Config

	// Metric identifies one of the four cost axes.
	Metric = metrics.Metric
	// Vector is a point in the 4-D cost space.
	Vector = metrics.Vector

	// Point is a labelled solution in the Pareto analysis.
	Point = pareto.Point

	// Trace is a packet trace; TraceParams are its extracted network
	// parameters.
	Trace = trace.Trace
	// TraceParams are the network parameters extracted from a trace.
	TraceParams = trace.Params

	// Methodology configures an end-to-end 3-step run.
	Methodology = core.Methodology
	// Report is the methodology outcome (fronts, tables, headline).
	Report = core.Report
	// ConfigReport is the per-network-configuration Pareto analysis.
	ConfigReport = core.ConfigReport
	// Config identifies one network configuration.
	Config = explore.Config
	// Options tune exploration scale and Engine behaviour (workers,
	// cache, early abort, progress).
	Options = explore.Options
	// Profile is the container access profile of an application run.
	Profile = profiler.Set

	// Engine is the streaming exploration driver: bounded worker pool,
	// lazily generated combination/configuration spaces, incremental
	// Pareto pruning, simulation cache and optional early abort.
	Engine = explore.Engine
	// EngineStats counts the work an Engine actually did (simulated,
	// cache hits, early aborts).
	EngineStats = explore.EngineStats
	// SimCache memoizes simulation results across runs and processes.
	SimCache = explore.Cache
	// SimCacheStats reports cache traffic.
	SimCacheStats = explore.CacheStats
	// ExploreResult is the outcome of one simulation inside exploration.
	ExploreResult = explore.Result

	// PlatformPoint is one candidate platform design in a sweep.
	PlatformPoint = sweep.PlatformPoint
	// SweepResult is the methodology outcome under one platform design.
	SweepResult = sweep.Result
)

// The ten DDT kinds of the library.
const (
	AR     = ddt.AR
	ARP    = ddt.ARP
	SLL    = ddt.SLL
	DLL    = ddt.DLL
	SLLO   = ddt.SLLO
	DLLO   = ddt.DLLO
	SLLAR  = ddt.SLLAR
	DLLAR  = ddt.DLLAR
	SLLARO = ddt.SLLARO
	DLLARO = ddt.DLLARO
)

// The four cost metrics.
const (
	Energy    = metrics.Energy
	Time      = metrics.Time
	Accesses  = metrics.Accesses
	Footprint = metrics.Footprint
)

// Kinds returns the ten DDT kinds in canonical order.
func Kinds() []Kind { return ddt.AllKinds() }

// ParseKind resolves a library name like "SLL(AR)" to its Kind.
func ParseKind(s string) (Kind, error) { return ddt.ParseKind(s) }

// Apps returns the four NetBench case studies (Route, URL, IPchains, DRR).
func Apps() []App { return netapps.All() }

// AppByName returns the case study with the given name.
func AppByName(name string) (App, error) { return netapps.ByName(name) }

// NewPlatform builds a simulated platform with the default embedded
// configuration (8 KiB L1, 128 KiB L2, 1.6 GHz).
func NewPlatform() *Platform { return platform.Default() }

// NewPlatformWith builds a platform from a custom memory-subsystem
// configuration.
func NewPlatformWith(cfg PlatformConfig) *Platform { return platform.New(cfg) }

// DefaultPlatformConfig returns the default memory-subsystem model.
func DefaultPlatformConfig() PlatformConfig { return memsim.DefaultConfig() }

// NewList constructs a container of the given kind on p, storing records
// of recordBytes simulated bytes.
func NewList[V any](k Kind, p *Platform, recordBytes uint32) List[V] {
	return ddt.New[V](k, &ddt.Env{Heap: p.Heap, Mem: p.Mem}, recordBytes)
}

// OriginalAssignment returns the unmodified benchmark's assignment (every
// candidate container a single linked list, as the paper states for
// NetBench).
func OriginalAssignment(a App) Assignment { return apps.Original(a) }

// BuiltinTrace generates one of the ten built-in traces; packets > 0
// overrides the configured length.
func BuiltinTrace(name string, packets int) (*Trace, error) { return trace.Builtin(name, packets) }

// BuiltinTraceNames lists the ten built-in trace names.
func BuiltinTraceNames() []string { return trace.BuiltinNames() }

// ExtractParams recovers the network parameters from a trace, as the
// methodology's network-level step does.
func ExtractParams(t *Trace) TraceParams { return trace.Extract(t) }

// MethodologyFor builds a ready-to-run methodology for the named case
// study. packets sets the per-simulation trace length (0 selects the
// default benchmark scale).
func MethodologyFor(appName string, packets int) (Methodology, error) {
	a, err := netapps.ByName(appName)
	if err != nil {
		return Methodology{}, err
	}
	return Methodology{App: a, Opts: explore.Options{TracePackets: packets}}, nil
}

// NewEngine builds a streaming exploration Engine for the application.
// One engine per application is the intended shape: share it across
// methodology steps, repeated runs and ad-hoc Simulate calls so the
// simulation cache keeps paying.
func NewEngine(a App, opts Options) *Engine { return explore.NewEngine(a, opts) }

// NewSimCache returns an empty simulation cache to share between engines
// (and persist across processes via its Save/Load).
func NewSimCache() *SimCache { return explore.NewCache() }

// Simulate runs a single simulation: app over the configuration's trace
// under the assignment — the unit the methodology counts. It goes through
// a one-shot Engine; callers running more than one simulation should hold
// a NewEngine themselves and use its cached Simulate.
func Simulate(a App, cfg Config, assign Assignment, opts Options) (Vector, Summary, error) {
	opts.DisableCache = true // a one-shot engine's cache would die with it
	res, err := explore.NewEngine(a, opts).Simulate(context.Background(), cfg, assign)
	if err != nil {
		return Vector{}, Summary{}, err
	}
	return res.Vec, res.Summary, nil
}

// ConfigsFor enumerates the network configurations of an application
// (traces x parameter sweep), reference configuration first.
func ConfigsFor(a App) []Config { return explore.Configs(a) }

// ParetoFront returns the subset of pts not dominated in all four
// metrics.
func ParetoFront(pts []Point) []Point { return pareto.Front(pts) }

// ParetoFront2D returns the Pareto curve of pts considering only axes x
// and y, sorted by ascending x.
func ParetoFront2D(pts []Point, x, y Metric) []Point { return pareto.Front2D(pts, x, y) }

// BestPoint returns the point minimizing metric m.
func BestPoint(pts []Point, m Metric) Point { return pareto.Best(pts, m) }

// ExtensionApps returns applications beyond the paper's four case studies
// (currently the NAT gateway), demonstrating that the methodology plugs
// into any network application.
func ExtensionApps() []App { return netapps.Extensions() }

// DefaultPlatformPoints spans embedded-to-midrange platform designs —
// capacity, line-size and associativity variants — for SweepPlatforms.
func DefaultPlatformPoints() []PlatformPoint { return sweep.DefaultPlatforms() }

// SweepPlatforms runs the full methodology under each platform design —
// the co-design extension: how does the recommended DDT combination move
// with the memory hierarchy? Unless caching is disabled the sweep is
// capture-once/replay-many: only the first platform executes the
// applications; every later platform is evaluated by replaying the
// recorded word-access streams against its cache model, with results
// identical to live simulation (see the Capture & replay section of the
// README).
func SweepPlatforms(a App, platforms []PlatformPoint, opts Options) ([]SweepResult, error) {
	return sweep.Run(a, platforms, opts)
}

// ReplayCachedPlatforms evaluates every access stream captured in cache
// against the given platform configurations — one decode per stream, one
// cache model per platform — storing the exact results back into the
// cache. It returns the number of (stream, platform) evaluations
// performed. Use it to extend an explored design space to new platform
// points without re-executing anything.
func ReplayCachedPlatforms(cache *SimCache, platforms []PlatformConfig) int {
	return explore.ReplayPlatforms(cache, platforms)
}

// RenderSweep formats a platform sweep as an aligned table.
func RenderSweep(appName string, results []SweepResult) string {
	return sweep.Render(appName, results)
}

// SweepShifts reports whether the recommended combination changes across
// the sweep.
func SweepShifts(results []SweepResult) bool { return sweep.Shifts(results) }
