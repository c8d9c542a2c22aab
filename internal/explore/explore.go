// Package explore implements the first two steps of the DDT refinement
// methodology: the application-level exploration (§3.1 — simulate every
// combination of the 10 library DDTs for the dominant data structures on a
// reference configuration and keep the non-dominated ~20%) and the
// network-level exploration (§3.2 — re-simulate only the survivors for
// every network configuration).
//
// A "simulation" in the paper's sense is one execution of an application
// under study over one input trace (§3.1); Simulate is exactly that, and
// the step results carry the simulation counts that reproduce Table 1.
//
// # Streaming model
//
// The exploration runs on the Engine: combination and configuration
// spaces are expanded lazily (CombinationSeq, ConfigSeq — nothing
// materializes the 10^k table), simulations are scheduled over a bounded
// worker pool, and results land on the step's own goroutine — in
// epochs of Options.Workers jobs, in draw order, whenever a front
// guards them, so no guarded job sees its front move while it runs. The step-1
// survivor set is maintained as an incremental Pareto front
// (pareto.OnlineFront) while results arrive, instead of being filtered at
// a barrier afterwards; with Options.EarlyAbort the same running front
// stops simulations mid-trace once their monotonically-growing cost
// vector is strictly dominated. Finished results are
// memoized in a Cache keyed by the complete simulation identity, so the
// network level, platform sweeps and repeated runs never re-simulate a
// point.
//
// NewEngine resolves Options once into the plan the engine runs; each
// strategy refines the one exhaustive exploration. On the shared heap
// (the paper's address model) every point is a live simulation, and a
// caller-supplied Cache also keeps each run's platform-invariant
// word-access stream (internal/astream), so a job differing only in
// platform is replayed instead — exact, without re-running the
// application; ReplayPlatforms and Engine.EvaluatePlatforms batch this
// with one decode per stream. On per-role arenas (Arenas, implied by
// BoundPrune and SampleRate) every execution records one lane per
// container role plus the DDT-invariant schedule, and any combination
// whose lanes are cached is composed by the replay kernel — the 10^k
// space costs ~10·k executions. Each composing step decides once,
// before any job runs, which of its jobs capture the lanes the cache
// lacks (its capture plan), runs those live first and composes the
// rest. BoundPrune adds the branch-and-bound search over admissible
// lane bounds, SampleRate the sampled screening on top of it. Options
// the plan cannot run are errors, never another strategy. Cancellation
// and deadlines propagate through context.Context.
package explore

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/apps"
	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/pareto"
	"repro/internal/platform"
	"repro/internal/profiler"
	"repro/internal/trace"
)

// Config identifies one network configuration: a trace plus the
// application-specific parameters (the paper's radix size / rule count /
// fairness level).
type Config struct {
	TraceName string
	Knobs     apps.Knobs
}

// String renders the configuration as "trace knobs".
func (c Config) String() string {
	return c.TraceName + " " + c.Knobs.String()
}

// Options tune an exploration run.
type Options struct {
	// TracePackets is the per-simulation trace length. Zero selects
	// DefaultTracePackets.
	TracePackets int
	// DominantK is how many dominant structures the exploration refines.
	// Zero selects 2, the value the paper finds for all four case studies.
	DominantK int
	// Platform overrides the simulated memory subsystem. Nil selects
	// memsim.DefaultConfig.
	Platform *memsim.Config

	// Workers bounds the Engine's simulation worker pool. Zero selects
	// GOMAXPROCS. The pool size is the number of goroutines that exist,
	// not merely the number allowed to run. Guarded steps run in epochs
	// of Workers jobs, so their discard counts depend on Workers;
	// survivors and fronts do not. Which jobs run live does not either:
	// a composing step's capture plan is fixed before its first draw.
	Workers int
	// Cache supplies a shared simulation cache; nil gives each Engine a
	// private one. Share a Cache to carry results across methodology
	// runs, sweeps or processes (Cache.Save/Load). On the shared heap a
	// supplied Cache also keeps every executed simulation's access
	// stream, so a later job differing only in platform is replayed,
	// not re-run; a private cache dies with its engine and keeps none.
	Cache *Cache
	// DisableCache turns result memoization off entirely — for benchmarks
	// that must measure raw simulation cost, and for live oracles.
	// BoundPrune and SampleRate need a cache and are an error with it.
	DisableCache bool
	// Arenas runs the exploration on the per-role-arena address model:
	// each container role allocates from a private region of the virtual
	// address space, so one role's addresses never depend on another
	// role's DDT choice. Footprint is unchanged; cache behaviour (and so
	// cycles and energy) differs from the shared-heap model, and results
	// from the two models are cached under distinct keys. With a cache,
	// arena runs compose: every execution records one access lane per
	// container role plus the DDT-invariant operation schedule, and any
	// combination whose per-(role, kind) lanes are cached is
	// evaluated by interleaving them through the replay kernel — exact,
	// and ~10·K captures for the 10^K combinations. With DisableCache
	// every arena point is a live simulation.
	Arenas bool
	// BoundPrune enables bound-guided combination pruning (implies
	// Arenas; needs a cache): before composing a
	// combination, the engine sums the admissible per-lane lower bounds
	// derived from each lane's ISOLATED probe outcomes (astream.LaneBound:
	// one LineSim pass per lane and L1 geometry, ~10·K cheap passes
	// total, shared with the completion bound) and skips the composed
	// replay entirely when the live Pareto front already dominates the
	// bound — the combination provably cannot enter the front. A
	// combination the bound cannot prune is composed with its replay
	// polled against the same front: the completion bound (a guarded
	// astream.Replay of its Composition) is tested with the same
	// strict dominance, and a dominated replay stops mid-walk as an
	// Aborted tombstone. Survivor fronts are
	// bit-identical to the exhaustive path (the bound never exceeds the
	// exact cost on any objective, and dominance is transitive); pruned
	// entries carry the bound vector with Result.Aborted and
	// Result.Pruned set. The bound is only sound on platforms in
	// memsim.BoundEligible: elsewhere the resolved plan
	// (Engine.Options) has BoundPrune cleared and the arena run is
	// exhaustive. As with EarlyAbort, discarded
	// points are excluded from full-space analyses: a step-1 survivor
	// pruned under some step-2 configuration drops out of the
	// cross-configuration averaged charts (it lacks full configuration
	// coverage), while every step front stays exact.
	BoundPrune bool
	// SampleRate, when in (0, 1), turns Step1 into a two-phase screening
	// exploration (implies Arenas, BoundPrune and EarlyAbort; needs a
	// cache). Zero runs exactly; NaN, negative rates and rates >= 1 are
	// an error.
	// Phase one replays every combination through the SHARDS-sampled
	// kernel at the nearest power-of-two rate at or below SampleRate
	// (R = 2^-shift, shift <= memsim.MaxSampleShift): hash-selected
	// cache lines drive miniature recency stacks while the invariant
	// counters stay exact, so each replay costs O(segments + R·lines)
	// against memoized per-lane views. Screened estimates carry a
	// per-result confidence half-width (Result.RelCI), the running front
	// is consulted only at the pessimistic ends of both intervals
	// (pareto.OnlineFront.DominatedInterval — this also widens the
	// BoundPrune cut test), and everything not provably dominated is
	// verified EXACTLY in phase two, most-promising-first by the
	// estimated ranking, under the exact guard (admissible bound cuts
	// and mid-replay aborts dispose of estimated-
	// dominated candidates on exact evidence, with the estimate order
	// filling the exact front early so the cuts fire at their maximal
	// rate). The reported front therefore contains only exact vectors
	// and is bit-identical in membership to the exhaustive run's (pinned
	// by TestScreenedFrontMatchesExact); combinations discarded on
	// sampled evidence keep their estimates in Results with Screened and
	// Aborted set.
	SampleRate float64
	// EarlyAbort stops a running simulation once a member of the
	// incremental front strictly dominates its cost vector — the test
	// bound pruning uses. Live runs and flat replays test their partial
	// cost, composed replays their completion bound (as they do under
	// BoundPrune). Survivor fronts are provably unchanged (each tested
	// vector is a lower bound of the final one, so its being dominated
	// proves the final vector dominated); the aborted entries keep
	// partial vectors and Result.Aborted set, so full-space charts thin
	// out — step fronts stay exact. The capture runs of a composing step
	// are never stopped: their lanes serve every combination.
	EarlyAbort bool
	// Progress, when set, is called after every completed simulation of a
	// streaming step with the number done and the step's total. It runs
	// on the collecting goroutine (the one inside Step1/Step2).
	Progress func(done, total int)
	// CheckpointEvery, when positive, snapshots the campaign every time
	// another CheckpointEvery jobs settle — every delivered outcome plus
	// the full leaf width of every branch-and-bound subtree cut — and on
	// context cancellation of a streaming step. Each snapshot (the
	// settled watermark, the survivor front, the engine stats) is
	// recorded in the cache, ready for Cache.SaveFile to persist; see
	// Checkpoint. Zero disables periodic checkpoints (the watermark
	// still counts).
	CheckpointEvery int
	// Checkpoint, when set, receives every campaign snapshot the engine
	// records — periodic, cancellation and terminal ones. It runs on the
	// goroutine that called the step, where results land, so a slow
	// callback (persisting the cache file is the typical one) delays
	// landing and the next draws, never a running simulation.
	Checkpoint func(Checkpoint)
}

// DefaultTracePackets is the simulation trace length used when Options
// does not specify one: long enough that tables fill and queues back up,
// short enough that a full 100-combination sweep stays in seconds.
const DefaultTracePackets = 4000

// DefaultSampleRate is the screening sample rate the ddt-explore CLI
// selects with a bare -sample-rate flag: 1/64 keeps per-bin confidence
// intervals tight on trace lengths worth screening (≥100x the default)
// while cutting per-replay probe work by well over an order of
// magnitude.
const DefaultSampleRate = 1.0 / 64

// sampleShift converts SampleRate to the kernel's power-of-two shift,
// rounding the rate DOWN (coarser) to the nearest 2^-k and clamping at
// memsim.MaxSampleShift. Zero means exact.
func (o Options) sampleShift() uint32 {
	if o.SampleRate <= 0 || o.SampleRate >= 1 {
		return 0
	}
	var s uint32
	for r := o.SampleRate; r < 1 && s < memsim.MaxSampleShift; r *= 2 {
		s++
	}
	return s
}

func (o Options) packets() int {
	if o.TracePackets > 0 {
		return o.TracePackets
	}
	return DefaultTracePackets
}

func (o Options) dominantK() int {
	if o.DominantK > 0 {
		return o.DominantK
	}
	return 2
}

func (o Options) platformConfig() memsim.Config {
	if o.Platform != nil {
		return *o.Platform
	}
	return memsim.DefaultConfig()
}

// Result is the outcome of one simulation.
type Result struct {
	App     string
	Config  Config
	Assign  apps.Assignment
	Vec     metrics.Vector
	Summary apps.Summary
	// Aborted marks a simulation the early-abort guard stopped: Vec holds
	// the partial costs at the stop and must not enter Pareto analyses
	// (it is incomparable with finished vectors).
	Aborted bool
	// Pruned marks a combination the bound-guided search discarded
	// before any replay: Vec holds the admissible LOWER BOUND the front
	// dominated, not an exact cost. Pruned results always carry Aborted
	// too, so every existing filter (Live, logs, Pareto analyses)
	// excludes them.
	Pruned bool
	// Screened marks a phase-one sampled estimate (Options.SampleRate):
	// Vec was derived from hash-sampled recency stacks and lies within
	// (1 ± RelCI) of the exact vector with high probability. A screened
	// result the interval filter discards also carries Aborted, so it
	// never enters Pareto analyses; one that survives screening is
	// replaced by its exact phase-two re-evaluation and loses the mark.
	Screened bool
	// RelCI is the relative confidence half-width of a screened
	// estimate (the worst across the replay's profiles); 0 for exact
	// results.
	RelCI float64
}

// Label is the combination label used in logs and charts: the assignment
// restricted to its refined roles.
func (r Result) Label() string { return r.Assign.String() }

// Point converts the result to a Pareto point tagged with idx.
func (r Result) Point(idx int) pareto.Point {
	return pareto.Point{Label: r.Label(), Vec: r.Vec, Tag: idx}
}

// Live returns the subset of results that ran to completion — the points
// that may enter Pareto analyses. With early abort off it returns results
// unchanged.
func Live(results []Result) []Result {
	aborted := 0
	for _, r := range results {
		if r.Aborted {
			aborted++
		}
	}
	if aborted == 0 {
		return results
	}
	out := make([]Result, 0, len(results)-aborted)
	for _, r := range results {
		if !r.Aborted {
			out = append(out, r)
		}
	}
	return out
}

// Configs enumerates the application's network configurations: its traces
// crossed with the cartesian product of its knob sweep (knobs without a
// sweep keep their default). The reference configuration (first trace,
// default knobs) is always element 0.
func Configs(a apps.App) []Config {
	var out []Config
	for cfg := range ConfigSeq(a) {
		out = append(out, cfg)
	}
	return out
}

// knobCartesian expands the knob sweep into full knob maps, defaults
// first.
func knobCartesian(a apps.App) []apps.Knobs {
	defaults := a.DefaultKnobs()
	sweep := a.KnobSweep()
	if len(sweep) == 0 {
		return []apps.Knobs{defaults}
	}
	names := make([]string, 0, len(sweep))
	for n := range sweep {
		names = append(names, n)
	}
	sort.Strings(names)

	sets := []apps.Knobs{defaults.Clone()}
	for _, name := range names {
		var next []apps.Knobs
		for _, base := range sets {
			for _, v := range sweep[name] {
				k := base.Clone()
				k[name] = v
				next = append(next, k)
			}
		}
		sets = next
	}
	return sets
}

// traceCache avoids regenerating the same synthetic trace for every one of
// the hundreds of simulations that read it.
var traceCache sync.Map // key string -> *trace.Trace

func loadTrace(name string, packets int) (*trace.Trace, error) {
	key := fmt.Sprintf("%s/%d", name, packets)
	if tr, ok := traceCache.Load(key); ok {
		return tr.(*trace.Trace), nil
	}
	tr, err := trace.Builtin(name, packets)
	if err != nil {
		return nil, err
	}
	traceCache.Store(key, tr)
	return tr, nil
}

// newPlatform builds the platform a simulation of a runs on, applying
// the options' address model (per-role arenas when Arenas).
func newPlatform(a apps.App, opts Options) *platform.Platform {
	p := platform.New(opts.platformConfig())
	if opts.Arenas {
		p.UseArenas(apps.RoleNames(a))
	}
	return p
}

// Simulate runs one simulation: the application over the configuration's
// trace with the given DDT assignment, on a fresh platform. It is the raw
// uncached primitive; Engine.Simulate adds the cache in front of it.
func Simulate(a apps.App, cfg Config, assign apps.Assignment, opts Options) (Result, error) {
	tr, err := loadTrace(cfg.TraceName, opts.packets())
	if err != nil {
		return Result{}, err
	}
	p := newPlatform(a, opts)
	sum, err := a.Run(tr, p, assign, cfg.Knobs, nil)
	if err != nil {
		return Result{}, fmt.Errorf("explore: %s on %s: %w", a.Name(), cfg, err)
	}
	return Result{
		App:     a.Name(),
		Config:  cfg,
		Assign:  assign,
		Vec:     p.Metrics(),
		Summary: sum,
	}, nil
}

// Profile runs the profiling sub-step: the application with its original
// DDTs and a probe on every candidate container, returning the ranked
// probe set (§3.1: "the profiling reveals the dominant data structures").
func Profile(a apps.App, cfg Config, opts Options) (*profiler.Set, error) {
	tr, err := loadTrace(cfg.TraceName, opts.packets())
	if err != nil {
		return nil, err
	}
	probes := profiler.NewSet()
	p := platform.New(opts.platformConfig())
	if _, err := a.Run(tr, p, apps.Original(a), cfg.Knobs, probes); err != nil {
		return nil, fmt.Errorf("explore: profiling %s: %w", a.Name(), err)
	}
	return probes, nil
}

// Step1Result is the outcome of the application-level exploration.
type Step1Result struct {
	DominantRoles []string
	Profile       *profiler.Set // the profiling run that picked the roles
	Reference     Config
	// Results holds the combinations on the reference config, in
	// combination order. The flat scan materializes every one; the
	// branch-and-bound search materializes only the combinations it
	// composed or individually pruned — subtrees cut in bulk appear
	// solely in the Pruned count, so Results + Pruned always accounts
	// for the whole space.
	Results     []Result
	Survivors   []Result // the 4-D non-dominated subset
	Simulations int      // the full combination space size, 10^K
	Aborted     int      // simulations the early-abort guard stopped
	Pruned      int      // combinations the bound-guided search discarded with zero replays (bulk subtree cuts counted by width)
	// Screened counts combinations a two-phase run (Options.SampleRate)
	// disposed of on sampled evidence alone: their estimates were
	// interval-dominated by the screening front and they were never
	// replayed exactly. Verified counts the combinations that carried
	// an exact vector through phase-two verification to the end — the
	// pool the survivor front was drawn from; verification candidates
	// discarded there on exact evidence land in Pruned (bound cuts)
	// or Aborted (stopped replays) instead. Screened + Verified +
	// Pruned + Aborted always accounts for the whole space. Screened
	// and Verified stay zero on exact runs.
	Screened int
	Verified int
	// SampleRate is the spatial sample rate the screening phase
	// achieved (kept probes / total probes over the sampled replays);
	// 0 when Step1 ran exactly.
	SampleRate float64
}

// SurvivorFraction reports how much of the combination space survived
// (the paper observes ≈20%).
func (s Step1Result) SurvivorFraction() float64 {
	if s.Simulations > 0 {
		return float64(len(s.Survivors)) / float64(s.Simulations)
	}
	if len(s.Results) == 0 {
		return 0
	}
	return float64(len(s.Survivors)) / float64(len(s.Results))
}

// Step2Result is the outcome of the network-level exploration.
type Step2Result struct {
	Configs     []Config
	Results     []Result // survivors x configurations (reference included)
	Simulations int      // new simulations run in this step
	Aborted     int      // simulations the early-abort guard stopped
	Pruned      int      // points the bound-guided search discarded with zero replays
}

// ResultsFor returns the step's results for one configuration.
func (s Step2Result) ResultsFor(cfg Config) []Result {
	var out []Result
	want := cfg.String()
	for _, r := range s.Results {
		if r.Config.String() == want {
			out = append(out, r)
		}
	}
	return out
}

// ComboKey returns a canonical string for the kinds assigned to the given
// roles — the identity of a combination across configurations.
func ComboKey(assign apps.Assignment, roles []string) string {
	parts := make([]string, len(roles))
	for i, r := range roles {
		parts[i] = assign[r].String()
	}
	return strings.Join(parts, "+")
}
