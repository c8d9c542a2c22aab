package explore

import (
	"context"
	"math"
	"sort"

	"repro/internal/apps"
	"repro/internal/astream"
	"repro/internal/memsim"
	"repro/internal/pareto"
	"repro/internal/profiler"
)

// Two-phase sampled screening (Options.SampleRate).
//
// Phase one pushes the whole combination space through the SHARDS-
// sampled replay kernel: hash-selected cache lines drive miniature
// recency stacks against each lane's memoized sampled view, so one
// screening replay costs O(segments + R·lines) instead of O(lines).
// Every estimate carries a confidence half-width (ReuseProfile.RelCI),
// the running front absorbs the widest one as member-side slack, and
// both the bound-prune cut test and the final screening filter only
// discard a combination when it is dominated with ALL intervals at
// their pessimistic ends. A combination whose exact admissible bound
// the estimate front dominates even at face value is not estimated at
// all — it is DEFERRED to the tail of phase two, where the complete
// exact front disposes of it by bound cut or completion-bound abort.
// Phase two verifies everything that survived
// screening exactly, most-promising-first by the estimated ranking,
// under the exact guard (admissible bound cuts + mid-replay aborts) —
// so the survivor front forms from exact vectors and exact discards
// only, and its membership matches the exhaustive run's by the same
// argument as the bound-pruned search (the residual risk is confined
// to estimate-only discards, the ~3σ tail of the interval, pinned
// empirically by TestScreenedFrontMatchesExact).
//
// On traces whose distinct-line footprint is small (every synthetic
// case study here), the estimator is honest about its own noise: the
// per-line variance term is O(1/sqrt(R·lines)) and the intervals stay
// wide, so the interval filter discards little and the savings come
// from the ordering — the exact front fills with its eventual members
// almost immediately, after which the bound cuts fire at their maximal
// rate. On large-footprint traces the intervals tighten as R·lines
// grows and the filter itself retires the bulk of the space before any
// exact work.

// screenSlack is the member-side slack of every interval dominance
// test in the screening phase: the widest confidence half-width any
// screening estimate has reported so far.
func (e *Engine) screenSlack() float64 {
	return math.Float64frombits(e.screenMaxCI.Load())
}

// noteScreenCI folds one landed estimate's half-width into the running
// max. Only landing calls it, so no job sees the slack move while it
// runs.
func (e *Engine) noteScreenCI(ci float64) {
	for {
		old := e.screenMaxCI.Load()
		if math.Float64frombits(old) >= ci {
			return
		}
		if e.screenMaxCI.CompareAndSwap(old, math.Float64bits(ci)) {
			return
		}
	}
}

// screenJob resolves one phase-one job on sampled evidence: a cached
// estimate (or widened-bound tombstone) under the rate-tagged key, a
// widened bound-prune check, or a fresh sampled composed replay. It
// reports false when the combination's lanes are not all captured yet,
// sending the caller down the exact path.
func (e *Engine) screenJob(idx int, jb Job, guard *frontGuard) (Outcome, bool) {
	o := Outcome{Index: idx, Job: jb}
	key := screenKey(e.jobKey(jb.Cfg, jb.Assign), e.sampleShift)
	if r, ok := e.cache.lookup(key, guard != nil, e.screenCtx); ok {
		e.cacheHits.Add(1)
		o.Result = r
		return o, true
	}
	// The bound vector is an exact admissible lower bound, but the front
	// members it is tested against are estimates: guard.memberSlack
	// widens the cut test to their pessimistic interval ends, so a
	// screening prune discards strictly fewer combinations than an exact
	// one would — never more.
	if guard != nil && e.opts.BoundPrune {
		if e.pruneJob(&o, jb, guard) {
			e.cache.store(key, o.Result, e.screenCtx)
			return o, true
		}
		// Deferral: the widened cut failed, but if the estimate front
		// dominates the combination's exact bound at face value, a
		// sampled replay would be wasted on it — the estimate could only
		// confirm what the bound already says. Mark it deferred instead:
		// phase two verifies it LAST, against the fully formed exact
		// front, where a zero-replay bound cut or a completion-bound
		// abort almost always disposes of it. Deferral is scheduling,
		// not a discard — the bound never enters the front (landing
		// skips aborted results), and phase two settles the combination
		// with exact evidence either way. The marker IS cached (as a
		// context-gated tombstone under the screen key) so a warm rerun
		// answers the combination from the cache like every other
		// phase-one job instead of re-deriving the decision.
		if bound, sum, ok, dominated := e.jobBound(jb, guard.dominatesExact); ok && dominated {
			o.Result = Result{
				App:     e.app.Name(),
				Config:  jb.Cfg,
				Assign:  jb.Assign,
				Vec:     bound,
				Summary: sum,
				Aborted: true,
			}
			e.cache.store(key, o.Result, e.screenCtx)
			return o, true
		}
	}
	if e.screenCompose(&o, jb) {
		e.cache.store(key, o.Result, e.screenCtx)
		return o, true
	}
	return Outcome{Index: idx, Job: jb}, false
}

// screenCompose answers one screening job from compositional state: the
// rate-tagged sampled reuse profile when one covers the platform (pure
// arithmetic, zero probes), else one sampled composed replay — which
// leaves its profile behind for the next platform at this rate.
func (e *Engine) screenCompose(o *Outcome, jb Job) bool {
	comp, sum, ok := e.composition(jb.Cfg, jb.Assign)
	if !ok {
		return false
	}
	cfg := e.opts.platformConfig()
	skey := streamKey(e.app.Name(), jb.Cfg, jb.Assign, e.opts.packets(), true)
	pkey := screenKey(reuseProfileKey(skey, memsim.EffectiveLineBytes(cfg)), e.sampleShift)
	if p, ok := e.cache.sprofiles.get(e.cache, pkey); ok && p.Covers(cfg) {
		if cost, ok := astream.CostFromProfile(p, cfg); ok {
			e.finishScreen(o, jb, cost, p.RelCI(cfg), sum)
			e.profiled.Add(1)
			return true
		}
	}
	costs, profs, err := astream.Replay(comp, []memsim.Config{cfg}, astream.ReplayOpts{Profile: true, SampleShift: e.sampleShift})
	if err != nil {
		return false
	}
	var ci float64
	for _, p := range profs {
		if c := p.RelCI(cfg); c > ci {
			ci = c
		}
		e.screenProbes.Add(p.Probes)
		e.screenSampled.Add(p.SampledProbes)
		e.cache.sprofiles.put(e.cache, screenKey(reuseProfileKey(skey, p.LineBytes), e.sampleShift), p)
	}
	e.sampled.Add(1)
	e.finishScreen(o, jb, costs[0], ci, sum)
	return true
}

func (e *Engine) finishScreen(o *Outcome, jb Job, cost astream.Cost, ci float64, sum apps.Summary) {
	cfg := e.opts.platformConfig()
	o.Result = Result{
		App:      e.app.Name(),
		Config:   jb.Cfg,
		Assign:   jb.Assign,
		Vec:      replayVector(cfg, e.model, cost),
		Summary:  sum,
		Screened: true,
		RelCI:    ci,
	}
}

// step1Screened is the two-phase Step1 body: screen everything at the
// sampled rate, interval-filter, verify the rest exactly.
func (e *Engine) step1Screened(ctx context.Context, reference Config, probes *profiler.Set, dominant []string, total int) (*Step1Result, error) {
	// Phase 1: the space's capture plan (spacePlan), then a flat scan of
	// the rest, every job offered to the sampled path first. The shared
	// guard collects the plan's exact results and the estimates into
	// the screening front; its memberSlack hook widens the bound-prune
	// cut test as estimates report their half-widths.
	guard := newFrontGuard()
	guard.memberSlack = e.screenSlack

	guardFor := func(Job) *frontGuard { return guard }
	sc := ckptScope{step: 1, front: guard.points}
	results := make([]Result, total)
	err := e.runPlan(ctx, e.spacePlan(reference, dominant), positions(total), comboJob(reference, dominant), guardFor, screenMode, sc, e.landAt(results, func(o Outcome) {
		e.noteScreenCI(o.Result.RelCI)
		guard.add(o.Result.Point(o.Index))
	}))
	if err != nil {
		return nil, err
	}

	// Interval filter: discard an estimate only when a member of the
	// FINAL screening front still dominates it with both intervals at
	// their pessimistic ends — the member inflated by the widest slack
	// any estimate claimed, the candidate deflated by its own
	// half-width. Dominance among estimates is
	// transitive through front eviction (a member that evicted another
	// dominates whatever the evictee dominated at the same slack), so
	// testing against the final front alone loses nothing. Everything
	// not discarded — including the plan's exact results — goes to
	// phase two.
	maxCI := e.screenSlack()
	var cands, deferred []int
	screened := 0
	for i := range results {
		r := &results[i]
		if r.Pruned {
			continue // widened-bound tombstones keep their Pruned accounting
		}
		if r.Aborted && !r.Screened {
			// A phase-one deferral marker: no estimate was spent on the
			// combination because the estimate front dominated its exact
			// bound at face value. It still goes to phase two — after
			// every ranked candidate — so its fate is decided by exact
			// evidence against the by-then complete exact front.
			deferred = append(deferred, i)
			continue
		}
		if r.Screened && guard.dominatedInterval(r.Vec, r.RelCI, maxCI) {
			r.Aborted = true // estimate: never enters Pareto analyses
			screened++
			continue
		}
		cands = append(cands, i)
	}

	// Phase 2: exact verification of every candidate, most promising
	// first. The estimates' real power on small-footprint traces is not
	// absolute accuracy (their intervals are honest and wide) but
	// ORDER: common spatial sampling across all combinations makes the
	// estimated ranking track the exact one closely. Sorting the
	// candidates by estimated non-dominance fills the exact front with
	// its eventual members almost immediately, so the guarded exact
	// machinery — admissible per-lane bound cuts (zero replays) and
	// mid-replay aborts, both EXACT evidence with the same soundness
	// argument as the bound-pruned exhaustive search — disposes of the
	// bulk of the space without ever replaying it. Every vector that
	// survives phase two is exact; discards are certified by an exact
	// bound or partial replay against exact front members.
	rank := make(map[int]int, len(cands))
	for _, i := range cands {
		for _, j := range cands {
			if j != i && results[j].Vec.Dominates(results[i].Vec) {
				rank[i]++
			}
		}
	}
	sort.SliceStable(cands, func(a, b int) bool { return rank[cands[a]] < rank[cands[b]] })
	// Deferred combinations verify after every ranked candidate: by the
	// time the stream reaches them the exact front is fully formed, so
	// nearly all of them die to a zero-replay bound cut — the exact
	// analogue of the face-value test that deferred them.
	cands = append(cands, deferred...)
	verifyJob := func(j int) Job { return Job{Cfg: reference, Assign: results[cands[j]].Assign} }
	// The verification guard has no member slack: every form of
	// evidence it rules on is an admissible lower bound — the per-lane
	// bound vector in pruneJob, the completion-bound snapshots the
	// guarded composed replay polls — tested against exact members, so
	// a member STRICTLY dominating the evidence proves the exact final
	// vector dominated too.
	vguard := newFrontGuard()
	vsc := ckptScope{step: 1, front: vguard.points}
	vres := make([]Result, len(cands))
	err = e.runPlan(ctx, nil, positions(len(cands)), verifyJob, func(Job) *frontGuard { return vguard }, exactMode, vsc, e.landAt(vres, func(o Outcome) {
		vguard.add(o.Result.Point(o.Index))
	}))
	if err != nil {
		return nil, err
	}
	for j, i := range cands {
		results[i] = vres[j]
	}

	// The survivor front forms from the verified exact vectors only.
	front := pareto.NewOnlineFront()
	for _, i := range cands {
		if !results[i].Aborted && !results[i].Pruned {
			front.Add(results[i].Point(i))
		}
	}

	s1 := &Step1Result{
		DominantRoles: dominant,
		Profile:       probes,
		Reference:     reference,
		Results:       results,
		Simulations:   total,
		Screened:      screened,
	}
	if sp := e.screenProbes.Load(); sp > 0 {
		s1.SampleRate = float64(e.screenSampled.Load()) / float64(sp)
	} else {
		s1.SampleRate = 1 / float64(uint64(1)<<e.sampleShift)
	}
	pts := front.Points()
	s1.Survivors = make([]Result, len(pts))
	for i, p := range pts {
		s1.Survivors[i] = results[p.Tag]
	}
	for _, r := range results {
		switch {
		case r.Pruned:
			// bound-pruned in either phase: exact evidence, zero replays.
			s1.Pruned++
		case r.Screened && r.Aborted:
			// counted in Screened, not Aborted: nothing was stopped,
			// the estimate simply lost the interval filter.
		case r.Aborted:
			// stopped mid-replay by the exact verification guard.
			s1.Aborted++
		default:
			// carried an exact vector to the end of verification.
			s1.Verified++
		}
	}
	return s1, nil
}
