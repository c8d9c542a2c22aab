package explore

import (
	"context"
	"fmt"
	"iter"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/apps"
	"repro/internal/astream"
	"repro/internal/ddt"
	"repro/internal/energy"
	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/pareto"
	"repro/internal/platform"
	"repro/internal/profiler"
	"repro/internal/trace"
)

// abortCheckProbes is how many cache-line probes pass between dominance
// checks of an early-abort simulation: rare enough that the 4-metric
// snapshot is noise, frequent enough that a hopeless simulation dies long
// before its trace ends.
const abortCheckProbes = 2048

// DefaultAbortMargin is the safety margin of the early-abort dominance
// test when Options.AbortMargin is zero: a running simulation is only
// stopped once its partial cost vector is at least 10% worse than a
// finished front member on every metric.
const DefaultAbortMargin = 0.10

// Job is one simulation request: a network configuration plus a DDT
// assignment for the application's container roles.
type Job struct {
	Cfg    Config
	Assign apps.Assignment
}

// Outcome is one streamed simulation outcome. Index is the job's position
// in the submission order, so callers can reassemble deterministic slices
// from the completion-ordered stream.
type Outcome struct {
	Index     int
	Job       Job
	Result    Result
	Err       error
	FromCache bool // served from the simulation cache, nothing simulated
	Replayed  bool // served by replaying a captured access stream
	Composed  bool // served by composing per-role sub-streams
	Aborted   bool // stopped early by the dominance guard; Result.Vec is partial
	Pruned    bool // discarded by the bound-guided search; Result.Vec is a lower bound
}

// EngineStats counts what an Engine actually did, as opposed to the
// methodology-level Simulations counters which report the paper's
// simulation budget regardless of how cheaply each point was obtained.
type EngineStats struct {
	Simulated int // simulations executed to completion
	Replayed  int // results produced by replaying captured access streams
	Composed  int // results produced by composing per-role sub-streams
	Profiled  int // results derived arithmetically from cached reuse profiles (zero probes)
	CacheHits int // results served from the cache
	Aborted   int // simulations (live, replayed or composed) stopped early by the dominance guard
	// Pruned counts combinations discarded by the admissible lower bound
	// with zero replays — individually (one bound check each) or as
	// branch-and-bound subtree cuts, which add their full leaf width in
	// one step.
	Pruned int
	// LaneProfiles counts the lane bounds the engine derived: one per
	// (lane, engine), each read off the lane's isolated suffix table
	// (astream.LaneBound), whose isolated pass runs at most once per
	// (lane, L1 geometry) however many engines share the lane — ~10·K
	// for a 10^K space, not per-job work.
	LaneProfiles int
	// Expanded counts the tree nodes the branch-and-bound search popped
	// off its best-first heap; SubtreeCuts counts the bulk tombstones it
	// recorded, each covering a whole dominated lane-prefix subtree.
	// Both stay zero outside the tree search.
	Expanded    int
	SubtreeCuts int
	// Sampled counts the SHARDS-sampled screening replays a two-phase
	// Step1 ran — phase-one estimates, each O(segments + R·lines)
	// against the lanes' memoized sampled views. Zero on exact runs.
	Sampled int
}

// Engine is the streaming exploration driver: it expands combination and
// configuration spaces lazily, schedules simulations over a bounded worker
// pool, streams results as they finish, maintains the step-1 survivor
// front incrementally, consults the simulation cache before running
// anything, and (optionally) aborts simulations the front has already
// dominated. One Engine serves one application; it is safe for concurrent
// use and can be shared across methodology steps and repeated runs so the
// cache keeps paying.
type Engine struct {
	app  apps.App
	opts Options

	cache *Cache
	// exploreCtx tags this engine's exploration semantics for dominance
	// tombstones: a tombstone proven under one prune mode / dominant-k is
	// only reused by engines exploring the identical job space.
	exploreCtx string

	// profiles memoizes profiling runs per configuration: profiling is
	// deterministic, and a warm engine should not pay one full
	// instrumented simulation per repeated Step1.
	profMu   sync.Mutex
	profiles map[string]*profiler.Set

	// Bound pruning state: pruneOK gates on the engine's (single)
	// platform being memsim.BoundEligible, model is that platform's
	// energy model, and laneBounds memoizes each lane's derived
	// memsim.LaneBound so the 10^K bound checks pay map reads per lane.
	pruneOK    bool
	model      energy.Model
	laneBounds sync.Map // lane or schedule key -> memsim.LaneBound
	laneLocks  sync.Map // lane or schedule key -> *sync.Mutex, dedupes slow-path computes per lane

	// keys holds the hot cache-key renderings, allocated on first use:
	// a field in place would grow every Engine by a size class, which
	// costs measurable set-up time for engines that never render a key.
	keys atomic.Pointer[engineKeys]

	// Screening state (Options.SampleRate): sampleShift is the SHARDS
	// rate exponent (0 = exact), screenCtx tags screening tombstones and
	// estimates with the rate so they never answer exact lookups, and
	// screenMaxCI tracks the widest confidence half-width any screening
	// estimate has reported — the member-side slack every interval
	// dominance test in the screening phase must absorb.
	sampleShift   uint32
	screenCtx     string
	screenMaxCI   atomic.Uint64 // math.Float64bits of the running max
	screenProbes  atomic.Uint64 // exact probe count over screening replays
	screenSampled atomic.Uint64 // hash-kept probes over screening replays

	// Checkpoint state: settled is the campaign watermark (delivered
	// outcomes plus bulk subtree-cut widths); lastCkpt remembers the
	// most recent snapshot for terminal saves.
	settled  atomic.Int64
	ckptMu   sync.Mutex
	lastCkpt *Checkpoint

	simulated    atomic.Int64
	replayed     atomic.Int64
	composed     atomic.Int64
	profiled     atomic.Int64
	cacheHits    atomic.Int64
	aborted      atomic.Int64
	pruned       atomic.Int64
	laneProfiled atomic.Int64
	bbExpanded   atomic.Int64
	bbCuts       atomic.Int64
	sampled      atomic.Int64
}

// NewEngine builds an Engine for the application. Unless
// Options.DisableCache is set, the engine uses Options.Cache or, when that
// is nil, a fresh private cache.
func NewEngine(a apps.App, opts Options) *Engine {
	if opts.SampleRate > 0 && opts.SampleRate < 1 {
		opts.Compose = true    // screening replays compose cached lanes
		opts.BoundPrune = true // the verification phase cuts on exact bounds
		opts.EarlyAbort = true // ... and stops replays whose completion bound is dominated
	}
	if opts.BoundPrune {
		opts.Compose = true // the bound is defined on composed lanes
	}
	if opts.Compose {
		opts.Arenas = true // composition is defined on the arena address model
	}
	// The exploration context tags dominance tombstones with everything
	// that decides which points a run may discard: the survivor
	// strategy and dominant-k (the job space), plus the guard semantics
	// (abort margin, bound pruning). A tombstone is only reused by an
	// engine whose exploration would have discarded the point the same
	// way — so a -noprune run on a shared cache never inherits
	// bound-pruned entries, and vice versa.
	ctx := fmt.Sprintf("prune=%d k=%d", opts.Prune, opts.dominantK())
	if opts.EarlyAbort {
		ctx += fmt.Sprintf(" abort=%g", opts.abortMargin())
	}
	if opts.BoundPrune {
		ctx += " bound"
	}
	e := &Engine{
		app:        a,
		opts:       opts,
		exploreCtx: ctx,
		pruneOK:    memsim.BoundEligible(opts.platformConfig()),
		model:      energy.CACTILike(opts.platformConfig()),
	}
	if e.sampleShift = opts.sampleShift(); e.sampleShift != 0 {
		// Screening artifacts (estimates, widened-bound tombstones) are
		// rate-specific: tag their context so a run at another rate — or
		// an exact one — never inherits them.
		e.screenCtx = fmt.Sprintf("%s sample=%d", ctx, e.sampleShift)
	}
	if !opts.DisableCache {
		if opts.Cache != nil {
			e.cache = opts.Cache
		} else {
			e.cache = NewCache()
		}
	}
	return e
}

// App returns the application the engine explores.
func (e *Engine) App() apps.App { return e.app }

// Options returns the engine's options.
func (e *Engine) Options() Options { return e.opts }

// Cache returns the engine's simulation cache (nil when caching is off).
func (e *Engine) Cache() *Cache { return e.cache }

// Stats snapshots the engine's work counters.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Simulated:    int(e.simulated.Load()),
		Replayed:     int(e.replayed.Load()),
		Composed:     int(e.composed.Load()),
		Profiled:     int(e.profiled.Load()),
		CacheHits:    int(e.cacheHits.Load()),
		Aborted:      int(e.aborted.Load()),
		Pruned:       int(e.pruned.Load()),
		LaneProfiles: int(e.laneProfiled.Load()),
		Expanded:     int(e.bbExpanded.Load()),
		SubtreeCuts:  int(e.bbCuts.Load()),
		Sampled:      int(e.sampled.Load()),
	}
}

// boundPruneActive reports whether bound-guided pruning can run: opted
// in, a cache to hold lanes and profiles, a platform the bound
// construction is sound on, and the PruneFront survivor strategy —
// pruning only guarantees an unchanged survivor set for the Pareto
// filter (a dominated point can never enter the front, but
// PruneBestPerMetric's per-axis argmin can select a dominated point on
// an exact tie, which a pruned run would have discarded).
func (e *Engine) boundPruneActive() bool {
	return e.opts.BoundPrune && e.cache != nil && e.pruneOK && e.opts.Prune == PruneFront
}

// screeningActive reports whether Step1 runs as the two-phase sampled
// screening: a rate was requested, composition can serve the sampled
// replays (Compose + cache), and the survivor strategy is the Pareto
// filter — screening estimates can only stand in for exact vectors
// under dominance reasoning, which PruneBestPerMetric's per-axis argmin
// does not use. Anything else silently runs exactly.
func (e *Engine) screeningActive() bool {
	return e.sampleShift != 0 && e.opts.Compose && e.cache != nil &&
		e.opts.Prune == PruneFront
}

// guarded reports whether the streaming steps should attach front
// guards to jobs — for early abort, bound pruning, or both.
func (e *Engine) guarded() bool {
	return e.opts.EarlyAbort || e.boundPruneActive()
}

func (e *Engine) workers() int {
	if e.opts.Workers > 0 {
		return e.opts.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// CombinationSeq yields every assignment of the ddt.NumKinds library DDTs
// to k roles in the same lexicographic order Combinations materializes,
// without building the 10^k slice — the generator that lets DominantK grow
// past what a materialized combination table tolerates.
func CombinationSeq(k int) iter.Seq[[]ddt.Kind] {
	return func(yield func([]ddt.Kind) bool) {
		if k <= 0 {
			return
		}
		idx := make([]int, k)
		for {
			combo := make([]ddt.Kind, k)
			for i, v := range idx {
				combo[i] = ddt.Kind(v)
			}
			if !yield(combo) {
				return
			}
			i := k - 1
			for ; i >= 0; i-- {
				idx[i]++
				if idx[i] < ddt.NumKinds {
					break
				}
				idx[i] = 0
			}
			if i < 0 {
				return
			}
		}
	}
}

// ConfigSeq yields the application's network configurations in Configs
// order without materializing the trace x knob cross product.
func ConfigSeq(a apps.App) iter.Seq[Config] {
	return func(yield func(Config) bool) {
		knobSets := knobCartesian(a)
		for _, tn := range a.TraceNames() {
			for _, ks := range knobSets {
				if !yield(Config{TraceName: tn, Knobs: ks}) {
					return
				}
			}
		}
	}
}

// frontGuard is the concurrency-safe wrapper around the incremental
// Pareto front the streaming steps maintain: the collector adds finished
// results, worker goroutines ask it whether a running simulation is
// already hopeless.
type frontGuard struct {
	mu     sync.Mutex
	front  *pareto.OnlineFront
	margin float64
	// memberSlack, when non-nil, reports the relative uncertainty of the
	// front's member vectors — the widest confidence half-width any
	// screening estimate has claimed so far. dominates() then requires a
	// member to dominate even after inflating itself by that slack, so a
	// sampled front cuts a point only when its PESSIMISTIC interval end
	// still dominates. nil on exact fronts.
	memberSlack func() float64
}

func newFrontGuard(margin float64) *frontGuard {
	return &frontGuard{front: pareto.NewOnlineFront(), margin: margin}
}

func (g *frontGuard) add(p pareto.Point) {
	g.mu.Lock()
	g.front.Add(p)
	g.mu.Unlock()
}

func (g *frontGuard) dominatedBeyond(v metrics.Vector) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.front.DominatedBeyond(v, g.margin)
}

// dominates is the margin-free dominance test the bound-guided search
// uses: v here is an admissible LOWER bound, so a member strictly
// dominating it proves the exact vector dominated too — no safety
// margin is needed for soundness (strictness alone keeps equal-vector
// ties unpruned, matching OnlineFront.Add).
func (g *frontGuard) dominates(v metrics.Vector) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.memberSlack != nil {
		return g.front.DominatedInterval(v, 0, g.memberSlack())
	}
	return g.front.DominatedBeyond(v, 0)
}

// dominatesExact is dominates without the memberSlack widening: the
// face-value strict test against the members as recorded. The screening
// phase uses it for DEFERRAL decisions only — rescheduling a
// combination to the back of the exact verification queue — so unlike
// every discard test it needs no admissibility argument; phase two
// settles the combination with exact evidence either way.
func (g *frontGuard) dominatesExact(v metrics.Vector) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.front.DominatedBeyond(v, 0)
}

// dominatedInterval is the two-sided interval test the screening filter
// applies to sampled estimates: v (an estimate with half-width vSlack)
// is only discarded when a member still dominates it with both
// intervals at their pessimistic ends.
func (g *frontGuard) dominatedInterval(v metrics.Vector, vSlack, mSlack float64) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.front.DominatedInterval(v, vSlack, mSlack)
}

func (g *frontGuard) points() []pareto.Point {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.front.Points()
}

type indexedJob struct {
	idx   int
	job   Job
	guard *frontGuard
}

// Stream schedules the jobs over the bounded worker pool and returns the
// channel the outcomes arrive on, in completion order. The channel closes
// once every scheduled job has reported or the context is cancelled;
// after cancellation, jobs not yet started are dropped. Exactly
// Options.Workers (default GOMAXPROCS) goroutines simulate at any moment,
// however large the job space is.
func (e *Engine) Stream(ctx context.Context, jobs iter.Seq[Job]) <-chan Outcome {
	return e.stream(ctx, jobs, nil)
}

// stream is Stream plus the per-job early-abort guard hookup used by the
// methodology steps. guardFor is called from the feeder goroutine only.
func (e *Engine) stream(ctx context.Context, jobs iter.Seq[Job], guardFor func(Job) *frontGuard) <-chan Outcome {
	return e.streamMode(ctx, jobs, guardFor, false)
}

// streamMode is stream with the screening switch: screen routes every
// job through the sampled phase-one path first (screenJob). The flag is
// per-stream, not engine state, so a screening phase and an exact
// verification phase of the same engine can overlap safely.
func (e *Engine) streamMode(ctx context.Context, jobs iter.Seq[Job], guardFor func(Job) *frontGuard, screen bool) <-chan Outcome {
	out := make(chan Outcome)
	feed := make(chan indexedJob)

	go func() { // feeder: lazily expands the job space
		defer close(feed)
		i := 0
		for jb := range jobs {
			ij := indexedJob{idx: i, job: jb}
			if guardFor != nil {
				ij.guard = guardFor(jb)
			}
			select {
			case feed <- ij:
			case <-ctx.Done():
				return
			}
			i++
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < e.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ij := range feed {
				o := e.runJobMode(ij.idx, ij.job, ij.guard, screen)
				select {
				case out <- o:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// runJob resolves one job along the cheapest sound path: exact-key cache
// lookup, then the bound-guided prune check (BoundPrune: zero replays
// when the front already dominates the combination's admissible lower
// bound), then composition of cached per-role sub-streams (Compose),
// then replay of a captured whole-run access stream for the same
// platform-invariant identity, then a (possibly guarded) live simulation
// — which records whatever capture mode is on, so later jobs take a
// cheaper path. All paths fill the cache.
func (e *Engine) runJob(idx int, jb Job, guard *frontGuard) Outcome {
	return e.runJobMode(idx, jb, guard, false)
}

// runJobMode is runJob with the screening switch: when screen is set
// the job is first offered to the sampled phase-one path, and only
// falls through to the exact body when screening cannot answer it
// (lanes not yet captured — such a job is one of the ~10·K seed
// executions, and its exact result seeds the screening front with zero
// slack). Fallen-through results are mirrored under the rate-tagged
// key so a warm screening run never falls through again.
func (e *Engine) runJobMode(idx int, jb Job, guard *frontGuard, screen bool) Outcome {
	if !screen {
		return e.runJobExact(idx, jb, guard)
	}
	if o, ok := e.screenJob(idx, jb, guard); ok {
		return o
	}
	o := e.runJobExact(idx, jb, guard)
	if e.cache != nil && o.Err == nil && !o.Result.Aborted {
		e.cache.store(screenKey(e.jobKey(jb.Cfg, jb.Assign), e.sampleShift), o.Result, e.screenCtx)
	}
	return o
}

// runJobExact is the exact resolution chain every non-screening job —
// and every screening seed — goes through.
func (e *Engine) runJobExact(idx int, jb Job, guard *frontGuard) Outcome {
	o := Outcome{Index: idx, Job: jb}
	var key, skey string
	compose := e.opts.Compose && e.cache != nil
	// The guard serves two roles: early abort polls it mid-simulation
	// (EarlyAbort only), the bound-guided search consults it before any
	// replay and during composed replays (BoundPrune). aguard is the
	// abort-side view of the live and flat-replay paths.
	aguard := guard
	if !e.opts.EarlyAbort {
		aguard = nil
	}
	if e.cache != nil {
		key = e.jobKey(jb.Cfg, jb.Assign)
		// A guarded stream may reuse a dominance tombstone: the job space
		// of a step is deterministic, so a point an identical exploration
		// (same simulation identity AND same exploration semantics)
		// proved dominated is dominated again.
		if r, ok := e.cache.lookup(key, guard != nil, e.exploreCtx); ok {
			e.cacheHits.Add(1)
			o.Result, o.FromCache = r, true
			o.Aborted = r.Aborted
			o.Pruned = r.Pruned
			return o
		}
		if guard != nil && e.boundPruneActive() && e.pruneJob(&o, jb, guard) {
			e.cache.store(key, o.Result, e.exploreCtx) // a tombstone, like aborted results
			return o
		}
		if compose && e.composeJob(&o, jb, guard) {
			e.cache.store(key, o.Result, e.exploreCtx)
			return o
		}
		if e.opts.CaptureStreams && !compose {
			skey = streamKey(e.app.Name(), jb.Cfg, jb.Assign, e.opts.packets(), e.opts.Arenas)
			if st, sum, ok := e.cache.lookupStream(skey); ok && e.replayJob(&o, st, sum, jb, aguard) {
				e.cache.store(key, o.Result, e.exploreCtx)
				return o
			}
		}
	}
	tr, err := loadTrace(jb.Cfg.TraceName, e.opts.packets())
	if err != nil {
		o.Err = err
		return o
	}
	p := newPlatform(e.app, e.opts)
	var (
		rec *astream.Recorder
		cr  *astream.ComposedRecorder
	)
	switch {
	case compose:
		// A compositional capture run is one of the ~10·K executions the
		// whole combination space composes from; letting the guard kill
		// it would forfeit lanes that 10^(K-1) other jobs need, so it
		// runs unguarded.
		cr = p.CaptureComposed()
	default:
		if aguard != nil {
			p.AbortWhen(abortCheckProbes, aguard.dominatedBeyond)
		}
		if skey != "" {
			rec = astream.NewRecorder()
			p.Capture(rec)
		}
	}
	sum, abortedRun, err := runRecovering(e.app, tr, p, jb.Assign, jb.Cfg.Knobs)
	if err != nil {
		o.Err = fmt.Errorf("explore: %s on %s: %w", e.app.Name(), jb.Cfg, err)
		return o
	}
	if rec != nil {
		// Aborted runs leave a partial stream: retained (tagged) for
		// inspection, never replayed.
		p.EndCapture()
		e.cache.storeStream(skey, streamEntry{
			App: e.app.Name(), Cfg: jb.Cfg, Assign: jb.Assign, Packets: e.opts.packets(),
			Stream: rec.Finish(abortedRun), Summary: sum, Arenas: e.opts.Arenas,
		})
	}
	if cr != nil {
		p.EndCapture()
		e.storeComposed(jb, cr, sum, abortedRun)
	}
	o.Result = Result{
		App:     e.app.Name(),
		Config:  jb.Cfg,
		Assign:  jb.Assign,
		Vec:     p.Metrics(),
		Summary: sum,
		Aborted: abortedRun,
	}
	if abortedRun {
		e.aborted.Add(1)
		o.Aborted = true
	} else {
		e.simulated.Add(1)
	}
	if e.cache != nil {
		e.cache.store(key, o.Result, e.exploreCtx) // aborted results become tombstones
	}
	return o
}

// storeComposed files one compositional capture: the configuration's
// schedule entry (DDT-invariant) plus one lane sub-stream per role,
// keyed by the kind that implemented the role in this run.
func (e *Engine) storeComposed(jb Job, cr *astream.ComposedRecorder, sum apps.Summary, aborted bool) {
	sched, subs := cr.Finish(aborted)
	if aborted {
		return // partial lanes prove nothing; compose mode runs unguarded anyway
	}
	ck := e.keysFor(jb.Cfg)
	e.cache.storeSchedule(ck.sched, schedEntry{
		Sched: sched, Ambient: subs[0], Summary: sum,
	})
	for i, role := range sched.Roles {
		e.cache.storeLane(ck.lane(role, apps.KindFor(jb.Assign, role)), subs[i+1])
	}
}

// composition gathers the schedule and the point's pre-decoded lanes
// from the cache: the ambient lane plus one unpacked sub-stream
// per role, selected by the assignment's kind for that role. ok is
// false as soon as anything is missing.
func (e *Engine) composition(cfg Config, assign apps.Assignment) (astream.Composition, apps.Summary, bool) {
	ck := e.keysFor(cfg)
	sched, ambient, sum, ok := e.cache.lookupSchedule(ck.sched)
	if !ok {
		return astream.Composition{}, apps.Summary{}, false
	}
	lanes := make([]*astream.UnpackedLane, len(sched.Roles)+1)
	if lanes[0], ok = e.cache.unpackedLane(ck.sched, ambient, true); !ok {
		return astream.Composition{}, apps.Summary{}, false
	}
	for i, role := range sched.Roles {
		lk := ck.lane(role, apps.KindFor(assign, role))
		sub, ok := e.cache.lookupLane(lk)
		if !ok {
			return astream.Composition{}, apps.Summary{}, false
		}
		if lanes[i+1], ok = e.cache.unpackedLane(lk, sub, false); !ok {
			return astream.Composition{}, apps.Summary{}, false
		}
	}
	return astream.Composition{Sched: sched, Lanes: lanes}, sum, true
}

// composeJob satisfies a job by interleaving cached per-role sub-streams
// for the job's DDT assignment — exact arena-model results with no
// execution and (lanes being pre-decoded) no decoding. It reports false
// when the schedule or any role's lane is not cached, sending the caller
// to the live path.
//
// A guarded job's replay is polled with its completion bound (see
// astream.GuardFunc) and cut as soon as the front dominates it: under
// EarlyAbort by the margin test every early abort uses, under exact
// branch-and-bound by the margin-free test pruneJob uses — the snapshot
// is an admissible lower bound, so a strictly dominating member proves
// the exact vector dominated. A cut replay becomes a tombstone.
func (e *Engine) composeJob(o *Outcome, jb Job, guard *frontGuard) bool {
	comp, sum, ok := e.composition(jb.Cfg, jb.Assign)
	if !ok {
		return false
	}
	cfg := e.opts.platformConfig()
	model := e.model
	var (
		g         astream.GuardFunc
		exactPeak uint64
		peakKnown bool
	)
	if guard != nil {
		dom := guard.dominates
		if e.opts.EarlyAbort {
			dom = guard.dominatedBeyond
		}
		// Staged like jobBound: the snapshot's footprint is only the
		// running peak, so test with footprint ignored first, and walk
		// the schedule for the exact final peak — once per replay — only
		// when that relaxed vector is dominated (through the schedule's
		// peak memo, which jobBound's staged test shares). Dominance is
		// monotone in footprint, so the decisions equal testing the exact
		// peak at every poll.
		g = func(c astream.Cost) bool {
			v := replayVector(cfg, model, c)
			v.Footprint = math.Inf(1)
			if !dom(v) {
				return false
			}
			if !peakKnown {
				p, ok := e.exactPeak(e.keysFor(jb.Cfg).sched, comp.Sched, jb)
				if !ok {
					return false
				}
				exactPeak, peakKnown = p, true
			}
			v.Footprint = float64(exactPeak)
			return dom(v)
		}
	}
	costs, _, err := astream.Replay(comp, []memsim.Config{cfg}, astream.ReplayOpts{Guard: g})
	if err != nil {
		return false
	}
	cost := costs[0]
	if cost.Aborted {
		cost.Peak = exactPeak // a cut implies the staged test computed it
	}
	o.Result = Result{
		App:     e.app.Name(),
		Config:  jb.Cfg,
		Assign:  jb.Assign,
		Vec:     replayVector(cfg, model, cost),
		Summary: sum,
		Aborted: cost.Aborted,
	}
	o.Composed = true
	o.Aborted = cost.Aborted
	if cost.Aborted {
		e.aborted.Add(1)
	} else {
		e.composed.Add(1)
	}
	return true
}

// pruneJob is the bound-guided search: it sums the admissible per-lane
// lower bounds of the job's combination (ambient lane + one lane per
// role, each derived from the lane's ISOLATED reuse profile) into a
// lower-bound cost vector, and discards the job — zero probe passes,
// zero decodes on a warm cache — when the live front already strictly
// dominates the bound. Soundness: the bound never exceeds the exact
// composed cost on any objective (memsim.BoundFromProfile documents the
// stack-inclusion and cold-fill arguments; the admissibility property
// test pins it), and a front member dominating the bound therefore
// dominates the exact vector, which dominance transitivity preserves to
// the final front — so the survivor front is bit-identical to the
// exhaustive path. It reports false when any lane or profile is
// unavailable, or the bound is not dominated, sending the caller to the
// composed-replay path.
func (e *Engine) pruneJob(o *Outcome, jb Job, guard *frontGuard) bool {
	bound, sum, ok, dominated := e.jobBound(jb, guard.dominates)
	if !ok || !dominated {
		return false
	}
	o.Result = Result{
		App:     e.app.Name(),
		Config:  jb.Cfg,
		Assign:  jb.Assign,
		Vec:     bound,
		Summary: sum,
		Aborted: true,
		Pruned:  true,
	}
	o.Aborted, o.Pruned = true, true
	e.pruned.Add(1)
	return true
}

// jobBound assembles the job's admissible lower-bound cost vector from
// the memoized per-lane bounds and reports whether dom holds on it.
// ok is false — with nothing computed — when any lane is unavailable,
// so misses stay cheap and transient. dom is any dominance test
// against a front; pruneJob passes the guard's (slack-widened under
// screening), the screening deferral passes the face-value one.
func (e *Engine) jobBound(jb Job, dom func(metrics.Vector) bool) (bound metrics.Vector, sum apps.Summary, ok, dominated bool) {
	ck := e.keysFor(jb.Cfg)
	sched, ambient, sum, schedOK := e.cache.lookupSchedule(ck.sched)
	if !schedOK {
		return metrics.Vector{}, apps.Summary{}, false, false
	}
	total, boundOK := e.laneBoundFor(ck.sched, func() (*astream.UnpackedLane, bool) {
		return e.cache.unpackedLane(ck.sched, ambient, true)
	})
	if !boundOK {
		return metrics.Vector{}, apps.Summary{}, false, false
	}
	for _, role := range sched.Roles {
		lk := ck.lane(role, apps.KindFor(jb.Assign, role))
		b, ok := e.laneBoundFor(lk, func() (*astream.UnpackedLane, bool) {
			sub, ok := e.cache.lookupLane(lk)
			if !ok {
				return nil, false
			}
			return e.cache.unpackedLane(lk, sub, false)
		})
		if !ok {
			return metrics.Vector{}, apps.Summary{}, false, false
		}
		total.Accumulate(b)
	}
	bound = e.boundVec(total)
	if !dom(bound) {
		// The closed-form footprint floor is the loosest axis (it knows
		// nothing about which lanes' live bytes coexist). Tighten it to
		// the EXACT composed peak — a schedule walk over the lanes'
		// segment deltas, still zero probes, memoized per combination on
		// the schedule entry — and re-check. Before that, make sure
		// footprint is actually the blocking axis: if no member
		// dominates even with footprint ignored, no exact peak can flip
		// the answer.
		relaxed := bound
		relaxed.Footprint = math.Inf(1)
		if !dom(relaxed) {
			return bound, sum, true, false
		}
		exactPeak, ok := e.exactPeak(ck.sched, sched, jb)
		if !ok {
			return bound, sum, true, false
		}
		bound.Footprint = float64(exactPeak)
		if !dom(bound) {
			return bound, sum, true, false
		}
	}
	return bound, sum, true, true
}

// exactPeak returns the exact composed footprint peak of the job's
// combination through the schedule's peak memo, walking the
// combination's lanes only on the first request from any engine
// sharing the cache.
func (e *Engine) exactPeak(sk string, sched *astream.Schedule, jb Job) (uint64, bool) {
	var buf [16]byte
	return e.cache.composedPeak(sk, peakKey(buf[:0], sched.Roles, jb.Assign), func() (uint64, bool) {
		comp, _, ok := e.composition(jb.Cfg, jb.Assign)
		if !ok {
			return 0, false
		}
		p, err := astream.ComposedPeak(comp)
		return p, err == nil
	})
}

// laneBoundFor returns one lane's memoized bound ingredients at the
// engine's platform, deriving them on first use from the lane's
// isolated suffix table (fetch supplies the decoded lane, which
// memoizes the table). It reports false without memoizing when the
// lane is not available yet (a later job may capture it), so misses
// stay cheap and transient.
func (e *Engine) laneBoundFor(key string, fetch func() (*astream.UnpackedLane, bool)) (memsim.LaneBound, bool) {
	if v, ok := e.laneBounds.Load(key); ok {
		return v.(memsim.LaneBound), true
	}
	// Serialize the slow path PER LANE: without this, every worker that
	// misses the memo for the same new lane would wait on the lane's
	// table build and over-count LaneProfiles; keying the lock by lane
	// lets distinct lanes build in parallel during the cold ramp.
	// Failures are not memoized — a missing lane may be captured by a
	// later job — so the lock, not a sync.Once, guards the work.
	muI, _ := e.laneLocks.LoadOrStore(key, &sync.Mutex{})
	mu := muI.(*sync.Mutex)
	mu.Lock()
	defer mu.Unlock()
	if v, ok := e.laneBounds.Load(key); ok {
		return v.(memsim.LaneBound), true
	}
	u, ok := fetch()
	if !ok {
		return memsim.LaneBound{}, false
	}
	b := astream.LaneBound(u, e.opts.platformConfig())
	e.laneProfiled.Add(1)
	e.laneBounds.Store(key, b)
	return b, true
}

// replayVector assembles the cost vector a live platform.Metrics would
// report from a replay outcome: same energy model, same seconds
// conversion, exact counts.
func replayVector(cfg memsim.Config, model energy.Model, c astream.Cost) metrics.Vector {
	seconds := float64(c.Cycles) / cfg.ClockHz
	return metrics.Vector{
		Energy:    model.Energy(c.Counts, seconds),
		Time:      seconds,
		Accesses:  float64(c.Counts.Accesses()),
		Footprint: float64(c.Peak),
	}
}

// replayJob satisfies a job by replaying a captured access stream
// against the engine's platform, with the early-abort guard (when
// present) polled on the running partial vector exactly as a live
// simulation would be. It reports false when the stream cannot be used
// (decode error), sending the caller down the live-execution path.
func (e *Engine) replayJob(o *Outcome, st *astream.Stream, sum apps.Summary, jb Job, guard *frontGuard) bool {
	cfg := e.opts.platformConfig()
	model := e.model
	var g astream.GuardFunc
	if guard != nil {
		g = func(c astream.Cost) bool {
			return guard.dominatedBeyond(replayVector(cfg, model, c))
		}
	}
	costs, _, err := astream.Replay(st, []memsim.Config{cfg}, astream.ReplayOpts{Guard: g})
	if err != nil {
		return false
	}
	cost := costs[0]
	o.Result = Result{
		App:     e.app.Name(),
		Config:  jb.Cfg,
		Assign:  jb.Assign,
		Vec:     replayVector(cfg, model, cost),
		Summary: sum,
		Aborted: cost.Aborted,
	}
	o.Replayed = true
	o.Aborted = cost.Aborted
	if cost.Aborted {
		e.aborted.Add(1)
	} else {
		e.replayed.Add(1)
	}
	return true
}

// runRecovering executes the application run and converts the memsim
// early-abort sentinel back into normal control flow. Any other panic
// propagates untouched.
func runRecovering(a apps.App, tr *trace.Trace, p *platform.Platform, assign apps.Assignment, knobs apps.Knobs) (sum apps.Summary, aborted bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(*memsim.Aborted); ok {
				aborted = true
				err = nil
				return
			}
			panic(r)
		}
	}()
	sum, err = a.Run(tr, p, assign, knobs, nil)
	return sum, false, err
}

// Simulate runs (or recalls from cache) a single simulation.
func (e *Engine) Simulate(ctx context.Context, cfg Config, assign apps.Assignment) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	o := e.runJob(0, Job{Cfg: cfg, Assign: assign}, nil)
	return o.Result, o.Err
}

// Profile runs the profiling sub-step through the engine: the application
// with its original DDTs and a probe on every candidate container.
// Profiling runs are memoized per configuration for the engine's
// lifetime, and — because per-role access attribution is platform-
// invariant — shared through the simulation cache across engines, so a
// platform sweep profiles each network configuration exactly once.
func (e *Engine) Profile(ctx context.Context, cfg Config) (*profiler.Set, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key := cfg.String()
	e.profMu.Lock()
	memo := e.profiles[key]
	e.profMu.Unlock()
	if memo != nil {
		return memo, nil
	}
	shared := fmt.Sprintf("%s|%s|%d", e.app.Name(), cfg, e.opts.packets())
	probes := (*profiler.Set)(nil)
	if e.cache != nil {
		probes = e.cache.lookupProfile(shared)
	}
	if probes == nil {
		var err error
		probes, err = Profile(e.app, cfg, e.opts)
		if err != nil {
			return nil, err
		}
		if e.cache != nil {
			e.cache.storeProfile(shared, probes)
		}
	}
	e.profMu.Lock()
	if e.profiles == nil {
		e.profiles = make(map[string]*profiler.Set)
	}
	e.profiles[key] = probes
	e.profMu.Unlock()
	return probes, nil
}

// EvaluatePlatforms returns the cost vector of one simulation point
// (configuration + assignment) under each given platform configuration,
// executing the application at most once. The platforms are grouped
// into line-size geometry families (platform.LineFamilies); a family
// whose cached reuse profile covers every member is answered by pure
// arithmetic — zero probe passes — and the remaining families share
// one all-geometry probe pass (see evalFamilies). Under Compose the
// pass replays the point's cached composition; without one — or
// without Compose — it replays the point's access stream, taken from
// the cache or captured by a single execution. Either pass leaves its
// reuse profiles in the cache for the next sweep. Results are exact —
// identical to live simulation on each platform — and are stored in the
// cache under their full identities. Without a cache to hold the stream
// it falls back to one live simulation per platform.
func (e *Engine) EvaluatePlatforms(ctx context.Context, cfg Config, assign apps.Assignment, platforms []memsim.Config) ([]metrics.Vector, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(platforms) == 0 {
		return nil, nil
	}
	if e.cache == nil {
		// Capture unavailable: one live simulation per platform.
		vecs := make([]metrics.Vector, len(platforms))
		for i, pc := range platforms {
			o := Options{TracePackets: e.opts.packets(), Platform: &pc, DisableCache: true, Arenas: e.opts.Arenas}
			r, err := Simulate(e.app, cfg, assign, o)
			if err != nil {
				return nil, err
			}
			e.simulated.Add(1)
			vecs[i] = r.Vec
		}
		return vecs, nil
	}
	// A composed pass that finds no cached composition (or fails) leaves
	// no trace, so the stream pass below cannot double-count.
	if e.opts.Compose {
		if vecs, ok, err := e.evalPlatforms(cfg, assign, platforms, true); ok && err == nil {
			return vecs, nil
		}
	}
	vecs, _, err := e.evalPlatforms(cfg, assign, platforms, false)
	if err != nil {
		return nil, err
	}
	return vecs, nil
}

// evalPlatforms is one EvaluatePlatforms pass over the point's cached
// composition (composed) or its access stream. Results are stored when
// the point's run summary is known: from the pass's source, or else
// from the point's cached stream or schedule entry, so cached Results
// never lose their summaries.
func (e *Engine) evalPlatforms(cfg Config, assign apps.Assignment, platforms []memsim.Config, composed bool) ([]metrics.Vector, bool, error) {
	app, packets := e.app.Name(), e.opts.packets()
	skey := streamKey(app, cfg, assign, packets, e.opts.Arenas)
	vecs := make([]metrics.Vector, len(platforms))
	var (
		sum              apps.Summary
		haveSum, settled bool
	)
	open := func() (astream.Source, error) {
		if composed {
			comp, s, ok := e.composition(cfg, assign)
			if !ok {
				return nil, nil
			}
			sum, haveSum, settled = s, true, true
			return comp, nil
		}
		st, s, err := e.captureStream(cfg, assign)
		if err != nil {
			return nil, err
		}
		sum, haveSum, settled = s, true, true
		return st, nil
	}
	put := func(i int, cost astream.Cost, probed bool) {
		pc := platforms[i]
		vecs[i] = replayVector(pc, energy.CACTILike(pc), cost)
		switch {
		case !probed:
			e.profiled.Add(1)
		case composed:
			e.composed.Add(1)
		default:
			e.replayed.Add(1)
		}
		if !settled {
			settled = true
			if e.opts.Compose {
				_, _, sum, haveSum = e.cache.lookupSchedule(e.keysFor(cfg).sched)
			} else {
				_, sum, haveSum = e.cache.lookupStream(skey)
			}
		}
		if haveSum {
			e.cache.store(cacheKey(app, cfg, assign, packets, pc, e.opts.Arenas), Result{
				App: app, Config: cfg, Assign: assign, Vec: vecs[i], Summary: sum,
			}, e.exploreCtx)
		}
	}
	ok, err := evalFamilies(e.cache, skey, platforms, platform.LineFamilies(platforms), nil, open, put)
	return vecs, ok, err
}

// captureStream returns the complete access stream for the point, from
// the cache or by executing once with capture attached. A nil stream
// (without error) means capture is unavailable (no cache to retain it).
func (e *Engine) captureStream(cfg Config, assign apps.Assignment) (*astream.Stream, apps.Summary, error) {
	if e.cache == nil {
		return nil, apps.Summary{}, nil
	}
	skey := streamKey(e.app.Name(), cfg, assign, e.opts.packets(), e.opts.Arenas)
	if st, sum, ok := e.cache.lookupStream(skey); ok {
		return st, sum, nil
	}
	tr, err := loadTrace(cfg.TraceName, e.opts.packets())
	if err != nil {
		return nil, apps.Summary{}, err
	}
	p := newPlatform(e.app, e.opts)
	rec := astream.NewRecorder()
	p.Capture(rec)
	sum, err := e.app.Run(tr, p, assign, cfg.Knobs, nil)
	if err != nil {
		return nil, apps.Summary{}, fmt.Errorf("explore: %s on %s: %w", e.app.Name(), cfg, err)
	}
	p.EndCapture()
	st := rec.Finish(false)
	e.cache.storeStream(skey, streamEntry{
		App: e.app.Name(), Cfg: cfg, Assign: assign, Packets: e.opts.packets(),
		Stream: st, Summary: sum, Arenas: e.opts.Arenas,
	})
	e.simulated.Add(1)
	key := e.jobKey(cfg, assign)
	e.cache.store(key, Result{
		App: e.app.Name(), Config: cfg, Assign: assign,
		Vec: p.Metrics(), Summary: sum,
	}, e.exploreCtx)
	return st, sum, nil
}

// collect drains a stream into an index-ordered result slice, feeding
// each live result to sink (when non-nil) as it lands. It returns the
// lowest-index error, if any; on error it cancels the stream's context
// so unstarted jobs are dropped while in-flight ones drain. total is
// only used for progress reporting. Every delivered outcome advances
// the settled watermark under sc, which fires periodic checkpoints.
func (e *Engine) collect(cancel context.CancelFunc, outcomes <-chan Outcome, results []Result, total int, sc ckptScope, sink func(Outcome)) error {
	var firstErr error
	firstErrIdx := len(results) + 1
	done := 0
	for o := range outcomes {
		if o.Err != nil {
			if o.Index < firstErrIdx {
				firstErr, firstErrIdx = o.Err, o.Index
			}
			cancel() // stop feeding; in-flight simulations still drain
			continue
		}
		results[o.Index] = o.Result
		if sink != nil && !o.Result.Aborted {
			sink(o)
		}
		done++
		e.noteSettled(1, sc)
		if e.opts.Progress != nil {
			e.opts.Progress(done, total)
		}
	}
	return firstErr
}

// Step1 performs the application-level DDT exploration as a stream:
// profile for dominance, then push all 10^k combinations of the dominant
// roles through the worker pool, maintaining the 4-metric survivor front
// incrementally as results land. With Options.EarlyAbort, combinations
// the running front has already dominated (beyond Options.AbortMargin)
// are stopped mid-simulation; their entries in Results carry partial
// vectors and Aborted set, and they are — provably — never survivors.
//
// With bound pruning active (and Options.FlatPrune off), the flat scan
// is replaced by the best-first branch-and-bound search over lane
// prefixes (see step1BranchBound): whole subtrees of the combination
// tree are cut against the live front before enumeration, Results holds
// only the materialized combinations (sorted by combination index), and
// Pruned counts every discarded combination whether it was cut in bulk
// or individually. Simulations, the survivor set and all fronts are
// identical either way.
func (e *Engine) Step1(ctx context.Context, reference Config) (*Step1Result, error) {
	probes, err := e.Profile(ctx, reference)
	if err != nil {
		return nil, err
	}
	dominant := probes.Dominant(e.opts.dominantK())
	total := 1
	for range dominant {
		total *= ddt.NumKinds
	}

	if e.screeningActive() {
		return e.step1Screened(ctx, reference, probes, dominant, total)
	}

	if e.boundPruneActive() && !e.opts.FlatPrune {
		s1 := &Step1Result{
			DominantRoles: dominant,
			Profile:       probes,
			Reference:     reference,
			Simulations:   total,
		}
		if err := e.step1BranchBound(ctx, reference, s1); err != nil {
			return nil, err
		}
		return s1, nil
	}

	jobs := func(yield func(Job) bool) {
		for combo := range CombinationSeq(len(dominant)) {
			assign := make(apps.Assignment, len(dominant))
			for r, role := range dominant {
				assign[role] = combo[r]
			}
			if !yield(Job{Cfg: reference, Assign: assign}) {
				return
			}
		}
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	guard := newFrontGuard(e.opts.abortMargin())
	var guardFor func(Job) *frontGuard
	if e.guarded() {
		guardFor = func(Job) *frontGuard { return guard }
	}

	sc := ckptScope{step: 1, front: guard.points}
	results := make([]Result, total)
	err = e.collect(cancel, e.stream(runCtx, jobs, guardFor), results, total, sc, func(o Outcome) {
		guard.add(o.Result.Point(o.Index))
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		e.fireCheckpoint(sc, false) // cancelled mid-step: snapshot for resume
		return nil, err
	}

	s1 := &Step1Result{
		DominantRoles: dominant,
		Profile:       probes,
		Reference:     reference,
		Results:       results,
		Simulations:   total,
	}
	switch e.opts.Prune {
	case PruneBestPerMetric:
		s1.Survivors = pruneBestPerMetric(results)
	default:
		front := guard.points()
		s1.Survivors = make([]Result, len(front))
		for i, p := range front {
			s1.Survivors[i] = results[p.Tag]
		}
	}
	for _, r := range results {
		switch {
		case r.Pruned:
			s1.Pruned++
		case r.Aborted:
			s1.Aborted++
		}
	}
	return s1, nil
}

// Step2 performs the network-level DDT exploration as a stream: every
// step-1 survivor crossed with every non-reference configuration, with a
// per-configuration incremental front guarding early aborts (points only
// compete within their own configuration, exactly as step 3 charts them).
// Reference-configuration results propagate from step 1 — via the cache
// when it is warm, and by construction here regardless.
func (e *Engine) Step2(ctx context.Context, s1 *Step1Result, configs []Config) (*Step2Result, error) {
	ref := s1.Reference.String()
	var streamed []Config
	guards := make(map[string]*frontGuard)
	for _, cfg := range configs {
		if cfg.String() == ref {
			continue
		}
		streamed = append(streamed, cfg)
		if e.guarded() {
			guards[cfg.String()] = newFrontGuard(e.opts.abortMargin())
		}
	}
	total := len(streamed) * len(s1.Survivors)

	jobs := func(yield func(Job) bool) {
		for _, cfg := range streamed {
			for _, sv := range s1.Survivors {
				if !yield(Job{Cfg: cfg, Assign: sv.Assign}) {
					return
				}
			}
		}
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var guardFor func(Job) *frontGuard
	if e.guarded() {
		guardFor = func(jb Job) *frontGuard { return guards[jb.Cfg.String()] }
	}

	// Step-2 fronts are per-configuration and rebuild from cache, so the
	// scope snapshots no front of its own: checkpoints keep carrying the
	// step-1 survivor front (see fireCheckpoint).
	sc := ckptScope{step: 2}
	results := make([]Result, total)
	err := e.collect(cancel, e.stream(runCtx, jobs, guardFor), results, total, sc, func(o Outcome) {
		if g := guards[o.Job.Cfg.String()]; g != nil {
			g.add(o.Result.Point(o.Index))
		}
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		e.fireCheckpoint(sc, false) // cancelled mid-step: snapshot for resume
		return nil, err
	}

	all := make([]Result, 0, len(results)+len(s1.Survivors))
	all = append(all, s1.Survivors...)
	all = append(all, results...)
	s2 := &Step2Result{
		Configs:     configs,
		Results:     all,
		Simulations: total,
	}
	for _, r := range results {
		switch {
		case r.Pruned:
			s2.Pruned++
		case r.Aborted:
			s2.Aborted++
		}
	}
	return s2, nil
}

// Explore runs both exploration steps over the application's full
// configuration space and returns them. It is the engine-native
// equivalent of calling Step1 then Step2 with Configs(app).
func (e *Engine) Explore(ctx context.Context) (*Step1Result, *Step2Result, error) {
	configs := Configs(e.app)
	if len(configs) == 0 {
		return nil, nil, fmt.Errorf("explore: %s has no network configurations", e.app.Name())
	}
	s1, err := e.Step1(ctx, configs[0])
	if err != nil {
		return nil, nil, err
	}
	s2, err := e.Step2(ctx, s1, configs)
	if err != nil {
		return nil, nil, err
	}
	return s1, s2, nil
}
