package explore

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"iter"
	"math"
	"runtime"
	"slices"
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

// Job is one simulation request: a network configuration plus a DDT
// assignment for the application's container roles.
type Job struct {
	Cfg    Config
	Assign apps.Assignment
}

// Outcome is one resolved job. Index is the job's position in the draw
// order, so steps can reassemble deterministic slices however the
// outcomes land.
type Outcome struct {
	Index  int
	Job    Job
	Result Result
	Err    error
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
	// LiveAccesses and LiveProbes count the word accesses and cache-line
	// probes the engine's live simulations performed, aborted runs
	// included: the work of the live probe kernel, read once per live
	// job from the run's final counts.
	LiveAccesses uint64
	LiveProbes   uint64
	// ReplayAccesses counts the accesses the engine's composed and
	// stream replays walked, aborted replays up to their stop: the work
	// of the replay probe kernel, added once per replay job from the
	// replay's astream.Cost.Walked.
	ReplayAccesses uint64
	// BoundEvals counts jobBound calls: the per-leaf admissible-bound
	// checks of pruneJob and of the screening deferral. The tree
	// search's node bounds are counted by Expanded.
	BoundEvals uint64
	// LaneBytesCaptured sums the resident size of every lane (ambient
	// lanes included) a compositional capture added to the lane store
	// under a key it did not hold;
	// LaneBytesDecoded sums the encoded size of every loaded or merged
	// lane the engine decoded on its first use.
	LaneBytesCaptured uint64
	LaneBytesDecoded  uint64
	// SampledProbes counts the line probes the sampled screening
	// replays walked, before sampling kept a subset of them. Zero on
	// exact runs.
	SampledProbes uint64
}

// Engine is the streaming exploration driver: it expands combination and
// configuration spaces lazily, schedules simulations over a bounded worker
// pool, lands results as they finish, maintains the step-1 survivor
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
	// tombstones: a tombstone proven under one guard rule / dominant-k is
	// only reused by engines exploring the identical job space.
	exploreCtx string

	// profiles memoizes profiling runs per configuration: profiling is
	// deterministic, and a warm engine should not pay one full
	// instrumented simulation per repeated Step1.
	profMu   sync.Mutex
	profiles map[string]*profiler.Set

	// err is why the options cannot run (see NewEngine); nil otherwise.
	err error

	// Bound pruning state: model is the engine's (single) platform's
	// energy model, and laneBounds memoizes each lane's derived
	// memsim.LaneBound so the 10^K bound checks pay map reads per lane.
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
	liveAccesses atomic.Uint64
	liveProbes   atomic.Uint64
	replayWalked atomic.Uint64
	boundEvals   atomic.Uint64
	laneCaptured atomic.Uint64
	laneDecoded  atomic.Uint64
}

// NewEngine builds an Engine for the application and resolves its
// options once into the plan it runs (see Options): SampleRate implies
// BoundPrune and EarlyAbort, BoundPrune implies Arenas, and BoundPrune
// is cleared on a platform outside memsim.BoundEligible. Unless
// Options.DisableCache is set, the engine uses Options.Cache or, when
// that is nil, a fresh private cache. Options it cannot run are not
// replaced by another strategy: Err reports them, and every step call
// returns the error before doing any work.
func NewEngine(a apps.App, opts Options) *Engine {
	plan, err := resolve(opts)
	if err != nil {
		return &Engine{app: a, opts: opts, err: err}
	}
	// The exploration context tags dominance tombstones with everything
	// that decides which points a run may discard: dominant-k (the job
	// space) and the guard semantics as requested (early abort, bound
	// pruning). A tombstone is only reused by an engine whose
	// exploration would have discarded the point the same way. The
	// "prune=0" head and the "abort=0" field (early abort has no
	// margin) keep the key format persisted tombstones, checkpoints and
	// campaign IDs are matched on.
	ctx := fmt.Sprintf("prune=0 k=%d", plan.dominantK())
	if plan.EarlyAbort {
		ctx += " abort=0"
	}
	if plan.BoundPrune {
		ctx += " bound"
		plan.BoundPrune = memsim.BoundEligible(plan.platformConfig()) // where the bound is sound
	}
	e := &Engine{
		app:        a,
		opts:       plan,
		exploreCtx: ctx,
		model:      energy.CACTILike(plan.platformConfig()),
	}
	if e.sampleShift = plan.sampleShift(); e.sampleShift != 0 {
		// Screening artifacts (estimates, widened-bound tombstones) are
		// rate-specific: tag their context so a run at another rate — or
		// an exact one — never inherits them.
		e.screenCtx = fmt.Sprintf("%s sample=%d", ctx, e.sampleShift)
	}
	if !plan.DisableCache {
		if plan.Cache != nil {
			e.cache = plan.Cache
		} else {
			e.cache = NewCache()
		}
	}
	return e
}

// resolve validates opts and applies the implications between them.
func resolve(opts Options) (Options, error) {
	if r := opts.SampleRate; math.IsNaN(r) || r < 0 || r >= 1 {
		return opts, fmt.Errorf("explore: SampleRate %v outside [0, 1)", r)
	}
	if opts.SampleRate > 0 {
		opts.BoundPrune = true // the verification phase cuts on exact bounds
		opts.EarlyAbort = true // ... and stops replays whose completion bound is dominated
	}
	if opts.BoundPrune {
		if opts.DisableCache {
			return opts, errors.New("explore: BoundPrune and SampleRate need the cache that DisableCache turns off")
		}
		opts.Arenas = true // lanes and their bounds are defined on the arena address model
	}
	return opts, nil
}

// Err reports why the engine's options cannot run, or nil.
func (e *Engine) Err() error { return e.err }

// App returns the application the engine explores.
func (e *Engine) App() apps.App { return e.app }

// Options returns the resolved plan the engine runs (see NewEngine);
// with an error, the options as given.
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
		LiveAccesses: e.liveAccesses.Load(),
		LiveProbes:   e.liveProbes.Load(),

		ReplayAccesses:    e.replayWalked.Load(),
		BoundEvals:        e.boundEvals.Load(),
		LaneBytesCaptured: e.laneCaptured.Load(),
		LaneBytesDecoded:  e.laneDecoded.Load(),
		SampledProbes:     e.screenProbes.Load(),
	}
}

// countLive adds a finished (or aborted) live simulation's word
// accesses and line probes to the work counters.
func (e *Engine) countLive(p *platform.Platform) {
	c := p.Mem.Counts()
	e.liveAccesses.Add(c.Accesses())
	e.liveProbes.Add(c.LineProbes())
}

// guarded reports whether the streaming steps should attach front
// guards to jobs — for early abort, bound pruning, or both.
func (e *Engine) guarded() bool {
	return e.opts.EarlyAbort || e.opts.BoundPrune
}

// composing reports whether the engine captures and composes per-role
// lanes: the arena model with a cache to hold them.
func (e *Engine) composing() bool {
	return e.opts.Arenas && e.cache != nil
}

func (e *Engine) workers() int {
	if e.opts.Workers > 0 {
		return e.opts.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// CombinationSeq yields every assignment of the ddt.NumKinds library DDTs
// to k roles — the 10^k combinations of §3.1 — in lexicographic order
// (the last role varies fastest), without building the 10^k slice, so
// DominantK can grow past what a materialized combination table
// tolerates.
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

// assignFor decodes combination index combo into the assignment of the
// dominant slate: combo's base-10 digits, most significant on the first
// role — CombinationSeq order.
func assignFor(dominant []string, combo int) apps.Assignment {
	assign := make(apps.Assignment, len(dominant))
	for i := len(dominant) - 1; i >= 0; i-- {
		assign[dominant[i]] = ddt.Kind(combo % ddt.NumKinds)
		combo /= ddt.NumKinds
	}
	return assign
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
// Pareto front the streaming steps maintain: landing adds finished
// results, worker goroutines ask it whether a running simulation is
// already hopeless.
type frontGuard struct {
	mu    sync.Mutex
	front *pareto.OnlineFront
	// memberSlack, when non-nil, reports the relative uncertainty of the
	// front's member vectors — the widest confidence half-width any
	// screening estimate has claimed so far. dominates() then requires a
	// member to dominate even after inflating itself by that slack, so a
	// sampled front cuts a point only when its PESSIMISTIC interval end
	// still dominates. nil on exact fronts.
	memberSlack func() float64
}

func newFrontGuard() *frontGuard {
	return &frontGuard{front: pareto.NewOnlineFront()}
}

func (g *frontGuard) add(p pareto.Point) {
	g.mu.Lock()
	g.front.Add(p)
	g.mu.Unlock()
}

// dominates is the dominance test of every discard — bound prunes,
// subtree cuts and early aborts alike: v is a LOWER bound of the exact
// vector (an admissible lane bound, a completion bound, or the partial
// cost of a run whose cost only grows), so a member strictly
// dominating it proves the exact vector dominated too. Strictness
// alone keeps equal-vector ties, matching OnlineFront.Add.
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

// run resolves the jobs over the bounded worker pool: exactly
// Options.Workers (default GOMAXPROCS) goroutines resolve jobs, however
// large the job space is. The job iterator, guardFor and land all run
// on the calling goroutine only, so land — guard adds, the settled
// watermark under sc, Progress — never races the iterator or itself.
// Outcome.Index is the job's draw position. mode selects each job's
// resolution chain (see jobMode).
//
// With guardFor set, jobs read fronts that landing grows, so the pool
// advances in epochs: it draws at most Workers jobs, waits for all of
// them, and lands them in draw order before it draws again. No front a
// job reads changes while that job runs, so every prune, subtree cut
// and abort is decided against the same front on every run. Without a
// guard nothing reads the landing order: a job is drawn as soon as
// another lands, and the pool stays full.
//
// Lanes need no such care: steps draw through runPlan, whose capture
// phase runs every job that captures, each live, before any job that
// composes, so no job's path depends on what its epoch-mates store.
//
// The lowest-index error is returned. An error or a cancelled ctx stops
// the draws; the jobs in flight still finish and land.
func (e *Engine) run(ctx context.Context, jobs iter.Seq[Job], guardFor func(Job) *frontGuard, mode jobMode, sc ckptScope, land func(Outcome)) error {
	type task struct {
		idx   int
		job   Job
		guard *frontGuard
	}
	workers := e.workers()
	feed := make(chan task)
	// done holds every job that can be in flight, so a worker never
	// blocks on an outcome the caller is not yet waiting for.
	done := make(chan Outcome, workers)
	defer close(feed)
	for range workers {
		go func() {
			for t := range feed {
				done <- e.runJobMode(t.idx, t.job, t.guard, mode)
			}
		}()
	}
	var (
		firstErr error
		errIdx   int
		inFlight int
		epoch    []Outcome
	)
	settle := func(o Outcome) {
		if o.Err != nil {
			if firstErr == nil || o.Index < errIdx {
				firstErr, errIdx = o.Err, o.Index
			}
			return
		}
		land(o)
		e.noteSettled(1, sc)
	}
	// wait receives outcomes until at most n jobs are in flight; in
	// epoch mode it lands them in draw order once the pool is empty.
	wait := func(n int) {
		for ; inFlight > n; inFlight-- {
			o := <-done
			if guardFor == nil {
				settle(o)
				continue
			}
			epoch = append(epoch, o)
		}
		if inFlight == 0 {
			slices.SortFunc(epoch, func(a, b Outcome) int { return cmp.Compare(a.Index, b.Index) })
			for _, o := range epoch {
				settle(o)
			}
			epoch = epoch[:0]
		}
	}
	idx := 0
	for jb := range jobs {
		if ctx.Err() != nil || firstErr != nil {
			break
		}
		t := task{idx: idx, job: jb}
		if guardFor != nil {
			t.guard = guardFor(jb)
		}
		feed <- t
		idx++
		if inFlight++; inFlight == workers {
			if guardFor != nil {
				wait(0)
			} else {
				wait(workers - 1)
			}
		}
	}
	wait(0)
	return firstErr
}

// landAt returns the land callback of a step whose outcomes fill
// results by index: each live (non-aborted) outcome also goes to add,
// and Progress counts against len(results).
func (e *Engine) landAt(results []Result, add func(Outcome)) func(Outcome) {
	done := 0
	return func(o Outcome) {
		results[o.Index] = o.Result
		if !o.Result.Aborted {
			add(o)
		}
		done++
		if e.opts.Progress != nil {
			e.opts.Progress(done, len(results))
		}
	}
}

// runJob resolves one job along the cheapest sound path: exact-key cache
// lookup, then the bound-guided prune check (BoundPrune: zero replays
// when the front already dominates the combination's admissible lower
// bound), then composition of cached per-role sub-streams (arena
// model), then replay of a captured whole-run access stream for the
// same platform-invariant identity (shared heap, caller's cache), then a
// (possibly guarded) live simulation — which records whatever capture
// the plan runs, so later jobs take a cheaper path. All paths fill the
// cache.
func (e *Engine) runJob(idx int, jb Job, guard *frontGuard) Outcome {
	if e.err != nil {
		return Outcome{Index: idx, Job: jb, Err: e.err}
	}
	return e.runJobMode(idx, jb, guard, exactMode)
}

// jobMode selects the resolution chain the driver runs a job through.
// The modes are ordered so that max(mode, captureMode) is the mode of a
// step's capture phase.
type jobMode uint8

const (
	// exactMode runs runJobExact's full chain.
	exactMode jobMode = iota
	// captureMode runs a capture-plan job: a cache lookup, then a live
	// run — never a prune or a composition, whatever lanes its
	// epoch-mates store meanwhile.
	captureMode
	// screenMode offers the job to the sampled phase-one path first and
	// falls through to the exact chain only when screening cannot
	// answer it: its lanes are missing, so it is one of the plan's live
	// runs, and its exact result seeds the screening front with zero
	// slack. Fallen-through results are mirrored under the rate-tagged
	// key, so a warm screening run never falls through again.
	screenMode
)

// runJobMode is runJob under a driver mode.
func (e *Engine) runJobMode(idx int, jb Job, guard *frontGuard, mode jobMode) Outcome {
	if mode != screenMode {
		return e.runJobExact(idx, jb, guard, mode == captureMode)
	}
	if o, ok := e.screenJob(idx, jb, guard); ok {
		return o
	}
	o := e.runJobExact(idx, jb, guard, false)
	if e.cache != nil && o.Err == nil && !o.Result.Aborted {
		e.cache.store(screenKey(e.jobKey(jb.Cfg, jb.Assign), e.sampleShift), o.Result, e.screenCtx)
	}
	return o
}

// runJobExact is the exact resolution chain every non-screening job —
// and every screening job the sampled path cannot answer — goes
// through. live skips the prune and composition paths (captureMode).
func (e *Engine) runJobExact(idx int, jb Job, guard *frontGuard, live bool) Outcome {
	o := Outcome{Index: idx, Job: jb}
	var key, skey string
	compose := e.composing()
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
			o.Result = r
			return o
		}
		if guard != nil && e.opts.BoundPrune && !live && e.pruneJob(&o, jb, guard) {
			e.cache.store(key, o.Result, e.exploreCtx) // a tombstone, like aborted results
			return o
		}
		if compose && !live && e.composeJob(&o, jb, guard) {
			e.cache.store(key, o.Result, e.exploreCtx)
			return o
		}
		// Whole-run streams outlive the engine only in a caller's cache,
		// and only one that keeps streams at all.
		if !compose && e.opts.Cache != nil && e.cache.keepsStreams() {
			skey = streamKey(e.app.Name(), jb.Cfg, jb.Assign, e.opts.packets(), e.opts.Arenas)
			if se, ok := e.cache.streams.get(e.cache, skey); ok && e.replayJob(&o, se.Stream, cloneSummary(se.Summary), jb, aguard) {
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
		// runs unguarded. It records only the lanes the cache lacks.
		cr = p.CaptureComposed(e.lanesToCapture(jb))
	default:
		if aguard != nil {
			p.AbortWhen(aguard.dominates)
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
		// An aborted run's partial stream is not admitted.
		p.EndCapture()
		e.cache.streams.put(e.cache, skey, e.streamEntry(jb.Cfg, jb.Assign, rec.Finish(abortedRun), sum))
	}
	if cr != nil {
		p.EndCapture()
		if !abortedRun { // partial lanes prove nothing; compose mode runs unguarded anyway
			e.storeComposed(jb, cr, sum)
		}
	}
	o.Result = Result{
		App:     e.app.Name(),
		Config:  jb.Cfg,
		Assign:  jb.Assign,
		Vec:     p.Metrics(),
		Summary: sum,
		Aborted: abortedRun,
	}
	e.countLive(p)
	if abortedRun {
		e.aborted.Add(1)
	} else {
		e.simulated.Add(1)
	}
	if e.cache != nil {
		e.cache.store(key, o.Result, e.exploreCtx) // aborted results become tombstones
	}
	return o
}

// lanesToCapture reports which lanes of jb's compositional capture the
// cache would admit and does not hold: index 0 the ambient lane, i+1
// the lane of the app's i-th role under jb's kind for it.
func (e *Engine) lanesToCapture(jb Job) []bool {
	keys := e.jobLanes(jb)
	return e.cache.missingLanes(keys[0], keys[1:])
}

// storeComposed files one complete compositional capture: the
// configuration's schedule entry (DDT-invariant) with its ambient lane,
// and one lane per role, keyed by the kind that implemented the role in
// this run — each lane the recorder captured, in the decoded form it
// was captured in.
func (e *Engine) storeComposed(jb Job, cr *astream.ComposedRecorder, sum apps.Summary) {
	sched, lanes := cr.Finish()
	c, ck := e.cache, e.keysFor(jb.Cfg)
	if lanes[0] != nil && c.scheds.put(c, ck.sched, schedEntry{Sched: sched, Ambient: laneEntry{dec: lanes[0]}, Summary: cloneSummary(sum)}) {
		e.laneCaptured.Add(uint64(lanes[0].SizeBytes()))
	}
	for i, role := range sched.Roles {
		if lanes[i+1] != nil && c.lanes.put(c, ck.lane(role, apps.KindFor(jb.Assign, role)), laneEntry{dec: lanes[i+1]}) {
			e.laneCaptured.Add(uint64(lanes[i+1].SizeBytes()))
		}
	}
}

// decodedLane is Cache.decodedLane on the engine's cache, counting the
// encoded bytes a first use decodes.
func (e *Engine) decodedLane(key string, ambient bool) (*astream.UnpackedLane, bool) {
	u, decoded, ok := e.cache.decodedLane(key, ambient)
	e.laneDecoded.Add(uint64(decoded))
	return u, ok
}

// composition gathers the schedule and the point's decoded lanes from
// the cache: the ambient lane plus one lane per role, selected by the
// assignment's kind for that role. ok is false as soon as anything is
// missing.
func (e *Engine) composition(cfg Config, assign apps.Assignment) (astream.Composition, apps.Summary, bool) {
	c, ck := e.cache, e.keysFor(cfg)
	se, ok := c.scheds.get(c, ck.sched)
	if !ok {
		return astream.Composition{}, apps.Summary{}, false
	}
	lanes := make([]*astream.UnpackedLane, len(se.Sched.Roles)+1)
	if lanes[0], ok = e.decodedLane(ck.sched, true); !ok {
		return astream.Composition{}, apps.Summary{}, false
	}
	for i, role := range se.Sched.Roles {
		if lanes[i+1], ok = e.decodedLane(ck.lane(role, apps.KindFor(assign, role)), false); !ok {
			return astream.Composition{}, apps.Summary{}, false
		}
	}
	return astream.Composition{Sched: se.Sched, Lanes: lanes}, cloneSummary(se.Summary), true
}

// composeJob satisfies a job by interleaving cached per-role sub-streams
// for the job's DDT assignment — exact arena-model results with no
// execution and (lanes being pre-decoded) no decoding. It reports false
// when the schedule or any role's lane is not cached, sending the caller
// to the live path.
//
// A guarded job's replay is polled with its completion bound (see
// astream.GuardFunc) and cut as soon as the front dominates it, by the
// test pruneJob uses: the snapshot is an admissible lower bound, so a
// strictly dominating member proves the exact vector dominated. A cut
// replay becomes a tombstone.
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
			if !guard.dominates(v) {
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
			return guard.dominates(v)
		}
	}
	costs, _, err := astream.Replay(comp, []memsim.Config{cfg}, astream.ReplayOpts{Guard: g})
	if err != nil {
		return false
	}
	cost := costs[0]
	e.replayWalked.Add(cost.Walked)
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
	if cost.Aborted {
		e.aborted.Add(1)
	} else {
		e.composed.Add(1)
	}
	return true
}

// pruneJob is the bound-guided search: it sums the admissible per-lane
// lower bounds of the job's combination (ambient lane + one lane per
// role, each read by astream.LaneBound off the lane totals of its
// isolated suffix table) into a lower-bound cost vector, and discards
// the job — zero probe passes, zero decodes on a warm cache — when the
// live front already strictly dominates the bound. Soundness: the bound
// never exceeds the exact composed cost on any objective
// (memsim.LaneBound documents the stack-inclusion and cold-fill
// arguments; TestLaneBoundAdmissible pins it), and a front member
// dominating the bound therefore dominates the exact vector, which
// dominance transitivity preserves to the final front — so the survivor
// front is bit-identical to the exhaustive path. It reports false when
// any lane is unavailable, or the bound is not dominated, sending the
// caller to the composed-replay path.
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
	e.pruned.Add(1)
	return true
}

// jobBound assembles the job's admissible lower-bound cost vector from
// the memoized per-lane bounds and reports whether dom holds on it.
// ok is false — with nothing computed — when any lane is unavailable,
// so misses stay cheap and transient. sum, the run's summary, is
// returned only with a dominated bound. dom is any dominance test
// against a front; pruneJob passes the guard's (slack-widened under
// screening), the screening deferral passes the face-value one.
func (e *Engine) jobBound(jb Job, dom func(metrics.Vector) bool) (bound metrics.Vector, sum apps.Summary, ok, dominated bool) {
	e.boundEvals.Add(1)
	c, ck := e.cache, e.keysFor(jb.Cfg)
	se, schedOK := c.scheds.get(c, ck.sched)
	if !schedOK {
		return metrics.Vector{}, apps.Summary{}, false, false
	}
	sched := se.Sched
	total, boundOK := e.laneBoundFor(ck.sched, func() (*astream.UnpackedLane, bool) {
		return e.decodedLane(ck.sched, true)
	})
	if !boundOK {
		return metrics.Vector{}, apps.Summary{}, false, false
	}
	for _, role := range sched.Roles {
		lk := ck.lane(role, apps.KindFor(jb.Assign, role))
		b, ok := e.laneBoundFor(lk, func() (*astream.UnpackedLane, bool) {
			return e.decodedLane(lk, false)
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
			return bound, apps.Summary{}, true, false
		}
		exactPeak, ok := e.exactPeak(ck.sched, sched, jb)
		if !ok {
			return bound, apps.Summary{}, true, false
		}
		bound.Footprint = float64(exactPeak)
		if !dom(bound) {
			return bound, apps.Summary{}, true, false
		}
	}
	return bound, cloneSummary(se.Summary), true, true
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
			return guard.dominates(replayVector(cfg, model, c))
		}
	}
	costs, _, err := astream.Replay(st, []memsim.Config{cfg}, astream.ReplayOpts{Guard: g})
	if err != nil {
		return false
	}
	cost := costs[0]
	e.replayWalked.Add(cost.Walked)
	o.Result = Result{
		App:     e.app.Name(),
		Config:  jb.Cfg,
		Assign:  jb.Assign,
		Vec:     replayVector(cfg, model, cost),
		Summary: sum,
		Aborted: cost.Aborted,
	}
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
	if e.err != nil {
		return nil, e.err
	}
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
// one all-geometry probe pass (see evalFamilies). On the arena model
// the pass replays the point's cached composition; without one — or
// on the shared heap — it replays the point's access stream, taken from
// the cache or captured by a single execution. Either pass leaves its
// reuse profiles in the cache for the next sweep. Results are exact —
// identical to live simulation on each platform — and are stored in the
// cache under their full identities. Without a cache to hold the stream
// it falls back to one live simulation per platform.
func (e *Engine) EvaluatePlatforms(ctx context.Context, cfg Config, assign apps.Assignment, platforms []memsim.Config) ([]metrics.Vector, error) {
	if e.err != nil {
		return nil, e.err
	}
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
	if e.opts.Arenas {
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
			if e.opts.Arenas {
				se, ok := e.cache.scheds.get(e.cache, e.keysFor(cfg).sched)
				sum, haveSum = se.Summary, ok
			} else {
				se, ok := e.cache.streams.get(e.cache, skey)
				sum, haveSum = se.Summary, ok
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

// streamEntry files a stream the engine captured for (cfg, assign),
// with its own copies of the run's identity and summary.
func (e *Engine) streamEntry(cfg Config, assign apps.Assignment, st *astream.Stream, sum apps.Summary) streamEntry {
	cfg.Knobs = cfg.Knobs.Clone()
	return streamEntry{
		App: e.app.Name(), Cfg: cfg, Assign: assign.Clone(), Packets: e.opts.packets(),
		Stream: st, Summary: cloneSummary(sum), Arenas: e.opts.Arenas,
	}
}

// captureStream returns the complete access stream for the point, from
// the engine's cache or by executing once with capture attached.
func (e *Engine) captureStream(cfg Config, assign apps.Assignment) (*astream.Stream, apps.Summary, error) {
	skey := streamKey(e.app.Name(), cfg, assign, e.opts.packets(), e.opts.Arenas)
	if se, ok := e.cache.streams.get(e.cache, skey); ok {
		return se.Stream, cloneSummary(se.Summary), nil
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
	e.cache.streams.put(e.cache, skey, e.streamEntry(cfg, assign, st, sum))
	e.simulated.Add(1)
	e.countLive(p)
	key := e.jobKey(cfg, assign)
	e.cache.store(key, Result{
		App: e.app.Name(), Config: cfg, Assign: assign,
		Vec: p.Metrics(), Summary: sum,
	}, e.exploreCtx)
	return st, sum, nil
}

// Step1 performs the application-level DDT exploration as a stream:
// profile for dominance, then push all 10^k combinations of the dominant
// roles through the worker pool, maintaining the 4-metric survivor front
// incrementally as results land. With Options.EarlyAbort, combinations
// the running front has already dominated are stopped mid-simulation;
// their entries in Results carry partial vectors and Aborted set, and
// they are — provably — never survivors. Guarded jobs run in epochs
// (see run), so the discard counts repeat from run to run.
//
// A composing engine runs the space's capture plan first (see
// spacePlan and runPlan): on a cold cache the ddt.NumKinds
// uniform-kind combinations, whose live runs capture every lane the
// space needs, so every other combination composes.
//
// With bound pruning active, the flat scan is replaced by the
// best-first branch-and-bound search over lane prefixes (see
// step1BranchBound): whole subtrees of the combination tree are cut
// against the front before enumeration, Results holds only the
// materialized combinations (sorted by combination index), and Pruned
// counts every discarded combination whether it was cut in bulk or
// individually. The survivor set and all fronts are identical to the
// flat scan's.
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

	if e.sampleShift != 0 {
		return e.step1Screened(ctx, reference, probes, dominant, total)
	}

	s1 := &Step1Result{
		DominantRoles: dominant,
		Profile:       probes,
		Reference:     reference,
		Simulations:   total,
	}
	if e.opts.BoundPrune {
		if err := e.step1BranchBound(ctx, reference, s1); err != nil {
			return nil, err
		}
		return s1, nil
	}

	guard := newFrontGuard()
	var guardFor func(Job) *frontGuard
	if e.guarded() {
		guardFor = func(Job) *frontGuard { return guard }
	}
	sc := ckptScope{step: 1, front: guard.points}
	results := make([]Result, total)
	err = e.runPlan(ctx, e.spacePlan(reference, dominant), positions(total), comboJob(reference, dominant), guardFor, exactMode, sc, e.landAt(results, func(o Outcome) {
		guard.add(o.Result.Point(o.Index))
	}))
	if err != nil {
		return nil, err
	}

	s1.Results = results
	front := guard.points()
	s1.Survivors = make([]Result, len(front))
	for i, p := range front {
		s1.Survivors[i] = results[p.Tag]
	}
	s1.Pruned, s1.Aborted = discards(results)
	return s1, nil
}

// Step2 performs the network-level DDT exploration as a stream: every
// step-1 survivor crossed with every non-reference configuration, with a
// per-configuration incremental front guarding early aborts (points only
// compete within their own configuration, exactly as step 3 charts them).
// Reference-configuration results propagate from step 1 — via the cache
// when it is warm, and by construction here regardless.
//
// A composing engine runs the jobs' capture plan first (see
// capturePlan and runPlan): per configuration, the few survivors that
// together use every (role, kind) lane the cache lacks, so their live
// runs capture those lanes and every other job composes. Either way
// Results holds the configurations in order and each configuration's
// results in survivor order; only the draw order — which jobs run live,
// and the order outcomes land and grow the guards — differs.
func (e *Engine) Step2(ctx context.Context, s1 *Step1Result, configs []Config) (*Step2Result, error) {
	if e.err != nil {
		return nil, e.err
	}
	ref := s1.Reference.String()
	var jobs []Job
	guards := make(map[string]*frontGuard)
	for _, cfg := range configs {
		if cfg.String() == ref {
			continue
		}
		if e.guarded() {
			guards[cfg.String()] = newFrontGuard()
		}
		for _, sv := range s1.Survivors {
			jobs = append(jobs, Job{Cfg: cfg, Assign: sv.Assign})
		}
	}
	total := len(jobs)

	var guardFor func(Job) *frontGuard
	if e.guarded() {
		guardFor = func(jb Job) *frontGuard { return guards[jb.Cfg.String()] }
	}

	// Step-2 fronts are per-configuration and rebuild from cache, so the
	// scope snapshots no front of its own: checkpoints keep carrying the
	// step-1 survivor front (see fireCheckpoint).
	sc := ckptScope{step: 2}
	results := make([]Result, total)
	err := e.runPlan(ctx, e.capturePlan(jobs), positions(total), func(p int) Job { return jobs[p] }, guardFor, exactMode, sc, e.landAt(results, func(o Outcome) {
		if g := guards[o.Job.Cfg.String()]; g != nil {
			g.add(o.Result.Point(o.Index))
		}
	}))
	if err != nil {
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
	s2.Pruned, s2.Aborted = discards(results)
	return s2, nil
}

// discards counts the bound-pruned results and the other aborted ones.
func discards(results []Result) (pruned, aborted int) {
	for _, r := range results {
		switch {
		case r.Pruned:
			pruned++
		case r.Aborted:
			aborted++
		}
	}
	return pruned, aborted
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
