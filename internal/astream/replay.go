package astream

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/memsim"
)

// ErrPartial is returned when a partial (aborted-capture) stream is asked
// to replay: the recorded prefix proves nothing about the full run, so
// replaying it across configurations would poison results.
var ErrPartial = errors.New("astream: stream is partial (aborted capture); refusing to replay")

// Cost is the outcome of replaying a stream against one platform
// configuration: exactly the Counts, cycle total and footprint peak a
// live execution of the same application run on that configuration would
// produce (the replay-equivalence property tests pin this bit-for-bit).
type Cost struct {
	Counts memsim.Counts
	Cycles uint64
	Peak   uint64 // footprint high-water mark, bytes
	// Aborted marks a guarded replay the guard stopped; Counts, Cycles
	// and Peak then hold the guard's lower-bound snapshot at the stop
	// (see GuardFunc: never more than the exact full-replay cost on any
	// objective).
	Aborted bool
	// Walked is the number of accesses the replay's walk probed before
	// it ended: every access of the source for a complete pass, the
	// accesses up to the stop for an aborted one, and zero for a cost
	// derived from a profile (CostFromProfile), which walks nothing.
	Walked uint64
}

// GuardFunc is polled during a guarded replay with a lower bound on
// the replay's final cost; returning true stops the replay (the Cost
// comes back Aborted). A Composition on a memsim.BoundEligible platform
// polls the completion bound (see Replay); every other guarded replay
// polls the bare partial cost. Either way no objective a snapshot
// implies — cycles, energy, words, footprint — exceeds the exact final
// one, so a front member dominating a snapshot dominates the final
// vector, as in live early abort. The snapshot's Peak is the running
// footprint peak; a guard that needs the exact final peak computes it
// with ComposedPeak.
//
// The poll cadence is one check per batchEvents probed accesses, the
// live simulation's batch (memsim.BatchAccesses). A *Stream is decoded
// batchEvents accesses per decode call, across chunk boundaries, and
// polls after every full batch, never after the final partial one —
// the accesses a guarded live run of the same job polls after. A
// Composition polls at the end of the first schedule run (consecutive
// segments of one lane) that brings the accesses since the last poll to
// batchEvents, the final run included.
type GuardFunc func(Cost) bool

// costOf merges the platform-invariant counters with one LineSim's probe
// outcomes into the exact cost vector ingredients.
func costOf(cfg memsim.Config, ls *memsim.LineSim, inv memsim.Counts, peak uint64) Cost {
	inv.L1Hits = ls.L1Hits
	inv.L2Hits = ls.L2Hits
	inv.DRAMFills = ls.DRAMFills
	return Cost{Counts: inv, Cycles: cfg.CyclesFor(inv, ls.Pipelined()), Peak: peak}
}

// scratch is the reusable per-replay working set: the stream decode
// batch (the two 8 KiB struct-of-array halves and their write bits), the
// probe simulators — per-config LineSims and all-geometry GeomSims — the
// plan's index slice and a walker per source kind. Replays run steadily
// inside the exploration engine's worker pool — thousands per
// exploration — so this state is pooled rather than reallocated per
// call; a recycled kernel whose geometry (or geometry family) matches
// the request is Reset instead of rebuilt. The astream benchmarks assert
// the resulting steady-state allocation count.
type scratch struct {
	b      batch
	sims   []*memsim.LineSim
	geos   []*memsim.GeomSim
	simIdx []int
	// The walker of the open source: sw for a *Stream, cw (composed)
	// for a Composition.
	sw       streamWalker
	cw       compWalker
	composed bool
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// putScratch returns s to the pool without its source references, so a
// pooled scratch never keeps a stream's chunks or a composition's lanes
// alive.
func putScratch(s *scratch) {
	s.sw = streamWalker{}
	clear(s.cw.isos)
	s.cw = compWalker{cursor: s.cw.cursor[:0], isos: s.cw.isos[:0]}
	scratchPool.Put(s)
}

// simFor returns slot i's simulator, cold and configured for cfg —
// recycled when the geometry matches, freshly built otherwise.
func (s *scratch) simFor(i int, cfg memsim.Config) *memsim.LineSim {
	for len(s.sims) <= i {
		s.sims = append(s.sims, nil)
	}
	if ls := s.sims[i]; ls != nil && ls.Reset(cfg) {
		return ls
	}
	ls := memsim.NewLineSim(cfg)
	s.sims[i] = ls
	return ls
}

// geoFor returns an all-geometry kernel for the family in plan slot i,
// cold — recycled from anywhere in the scratch's kernel pool when a
// kernel of identical identity (family AND sample shift; the tag
// stores are sized for the shift's scaled set counts) is pooled (a
// worker alternating between the line-size families of a sweep must
// not rebuild tag stores per pass), freshly built otherwise. planFor
// only requests eligible same-line-size families under a validated
// shift, so construction cannot fail.
func (s *scratch) geoFor(i int, family []memsim.Config, sampleShift uint32) *memsim.GeomSim {
	for len(s.geos) <= i {
		s.geos = append(s.geos, nil)
	}
	for j := i; j < len(s.geos); j++ {
		if gs := s.geos[j]; gs != nil && gs.ResetSampled(family, sampleShift) {
			s.geos[i], s.geos[j] = gs, s.geos[i]
			return gs
		}
	}
	gs, err := memsim.NewGeomSimSampled(family, sampleShift)
	if err != nil {
		panic("astream: planFor built an invalid geometry family: " + err.Error())
	}
	// Keep the displaced kernel pooled (another family alternating with
	// this one on the same worker), within a small bound.
	if old := s.geos[i]; old != nil && len(s.geos) < 8 {
		s.geos = append(s.geos, old)
	}
	s.geos[i] = gs
	return gs
}

// costOfGeom is costOf for a configuration served by an all-geometry
// pass: the per-config probe outcome is derived arithmetically from the
// kernel's depth histograms instead of read off a dedicated LineSim.
func costOfGeom(cfg memsim.Config, gs *memsim.GeomSim, inv memsim.Counts, peak uint64) Cost {
	c, pipelined, ok := gs.CountsFor(cfg)
	if !ok {
		panic("astream: GeomSim pass does not cover its own family member")
	}
	inv.L1Hits = c.L1Hits
	inv.L2Hits = c.L2Hits
	inv.DRAMFills = c.DRAMFills
	return Cost{Counts: inv, Cycles: cfg.CyclesFor(inv, pipelined), Peak: peak}
}

// CostFromProfile derives one configuration's exact replay cost from a
// cached reuse profile alone — zero decode, zero probes. ok is false
// when the configuration is outside the profile's covered cross
// product; a covered cost is bit-identical to replaying the stream the
// profile was built from.
func CostFromProfile(p *memsim.ReuseProfile, cfg memsim.Config) (Cost, bool) {
	counts, pipelined, ok := p.CountsFor(cfg)
	if !ok {
		return Cost{}, false
	}
	return Cost{Counts: counts, Cycles: cfg.CyclesFor(counts, pipelined), Peak: p.Peak}, true
}

// multiPlan is how a replay partitions its target configurations:
// same-line-size geometry families collapse into one GeomSim pass each,
// and the leftovers (singleton families, non-power-of-two geometries)
// keep a dedicated LineSim. Every probe run is walked once per geom
// plus once per leftover sim — not once per configuration.
type multiPlan struct {
	cfgs    []memsim.Config
	geoms   []*memsim.GeomSim
	geomIdx [][]int // geoms[k] serves cfgs[geomIdx[k][...]]
	sims    []*memsim.LineSim
	simIdx  []int // sims[j] serves cfgs[simIdx[j]]
	// views[lane][k] is the lane's sampled view for geoms[k] when a
	// sampled Composition replays on GeomSims alone (compWalker.views).
	views [][]*sampledView
}

// planFor partitions cfgs into the plan, recycling pooled kernels. The
// line-size grouping is the shared memsim.LineFamiliesOf, so the plan
// can never partition differently from the exploration layers. A family
// of one only takes the GeomSim path when the caller wants its reuse
// profile or a sampled pass (LineSim has no sampling mode); otherwise a
// plain LineSim is cheaper. Ineligible configurations always fall back
// to an exact LineSim, even under sampling — their costs simply come
// back exact, which only tightens the caller's interval.
func (sc *scratch) planFor(cfgs []memsim.Config, profiled bool, sampleShift uint32) multiPlan {
	// Built in locals, not in the plan: the plan holds cfgs, which must
	// not reach the pooled scratch (a caller's slice would escape).
	simIdx := sc.simIdx[:0]
	var geomIdx [][]int
	if len(cfgs) == 1 && !profiled && sampleShift == 0 {
		// The guarded and per-platform hot path: a lone exact
		// configuration is always a LineSim, so skip the grouping.
		simIdx = append(simIdx, 0)
	} else {
		for _, fam := range memsim.LineFamiliesOf(cfgs) {
			var idx []int
			for _, i := range fam.Indexes {
				if !memsim.GeomEligible(cfgs[i]) {
					simIdx = append(simIdx, i)
				} else {
					idx = append(idx, i)
				}
			}
			if len(idx) == 0 {
				continue
			}
			if len(idx) < 2 && !profiled && sampleShift == 0 {
				simIdx = append(simIdx, idx...)
				continue
			}
			fcfgs := make([]memsim.Config, len(idx))
			for k, i := range idx {
				fcfgs[k] = cfgs[i]
			}
			sc.geoFor(len(geomIdx), fcfgs, sampleShift)
			geomIdx = append(geomIdx, idx)
		}
	}
	for j, i := range simIdx {
		sc.simFor(j, cfgs[i])
	}
	sc.simIdx = simIdx
	return multiPlan{
		cfgs:    cfgs,
		geoms:   sc.geos[:len(geomIdx)],
		geomIdx: geomIdx,
		sims:    sc.sims[:len(simIdx)],
		simIdx:  simIdx,
	}
}

// probe walks one run's accesses through every kernel of the plan —
// or, on a sampled view plan, feeds each kernel the run's kept lines.
func (p *multiPlan) probe(r *run) {
	if len(r.addr) == 0 {
		return
	}
	if p.views != nil {
		for k, gs := range p.geoms {
			p.views[r.lane][k].probeRun(gs, r.s0, r.s1)
		}
		return
	}
	for _, gs := range p.geoms {
		gs.ProbeAccesses(r.addr, r.size)
	}
	for _, ls := range p.sims {
		ls.ProbeAccesses(r.addr, r.size)
	}
}

// costs assembles the per-configuration cost vector of the finished
// pass, in the original configuration order.
func (p *multiPlan) costs(inv memsim.Counts, peak uint64) []Cost {
	out := make([]Cost, len(p.cfgs))
	for k, gs := range p.geoms {
		for _, i := range p.geomIdx[k] {
			out[i] = costOfGeom(p.cfgs[i], gs, inv, peak)
		}
	}
	for j, i := range p.simIdx {
		out[i] = costOf(p.cfgs[i], p.sims[j], inv, peak)
	}
	return out
}

// profiles snapshots every geometry family's reuse profile, completed
// with the source's platform-invariant aggregates so a profile-served
// cost later needs no source at all.
func (p *multiPlan) profiles(inv memsim.Counts, peak uint64) []*memsim.ReuseProfile {
	out := make([]*memsim.ReuseProfile, 0, len(p.geoms))
	for _, gs := range p.geoms {
		pr := gs.Profile()
		pr.ReadWords = inv.ReadWords
		pr.WriteWords = inv.WriteWords
		pr.OpCycles = inv.OpCycles
		pr.Peak = peak
		out = append(out, pr)
	}
	return out
}

// Source is an access sequence Replay evaluates: a whole-run capture
// (*Stream) or one DDT combination composed from per-lane parts
// (Composition). Both refine one specification — the access sequence of
// a run — so they share one evaluator. The interface is sealed.
type Source interface{ source() }

func (*Stream) source()     {}
func (Composition) source() {}

// ReplayOpts selects what a Replay computes besides the exact costs.
type ReplayOpts struct {
	// Guard, when non-nil, is polled during the pass (see GuardFunc); a
	// true result stops it and returns the snapshot with Aborted set. A
	// guarded replay takes exactly one configuration and neither
	// profiles nor samples.
	Guard GuardFunc
	// Profile additionally returns the reuse profiles of the pass: one
	// memsim.ReuseProfile per geometry family (identified by its
	// LineBytes), each answering any configuration in its covered cross
	// product by pure arithmetic afterwards (CostFromProfile).
	Profile bool
	// SampleShift samples the pass at spatial rate 2^-SampleShift: the
	// walk and the platform-invariant aggregates stay exact, while only
	// the hash-kept line subset descends the recency stacks, so the
	// probe cost drops by ~2^SampleShift. Costs and profiles come back as
	// scaled estimates with confidence intervals (ReuseProfile.RelCI);
	// configurations outside memsim.GeomEligible come back exact. Shift
	// 0 is the exact pass.
	SampleShift uint32
}

// Replay evaluates src under every configuration in cfgs without
// re-running the application. One walk of the source drives the plan's
// probe kernels — one all-geometry kernel per family of configurations
// sharing an L1 line size (memsim.GeomSim), a dedicated LineSim for the
// rest — while the platform-invariant counters (word counts, ALU
// cycles, footprint) are reconstructed arithmetically, so a geometry
// sweep pays about one probe pass, not one per configuration. Each
// result is exactly what a live execution of the same run on that
// configuration would produce (the arena-mode run, for a Composition).
//
// A guarded replay on a Composition and a memsim.BoundEligible platform
// polls the completion bound: exact final word and op counts, the probe
// outcomes so far, and each lane's unprobed suffix priced by its
// isolated outcomes (isolated L1 misses as L2 hits, first line touches
// as DRAM fills, every other probe as an L1 hit; see memsim/bound.go).
// The per-lane tables come from one isolated pass per lane and L1
// geometry, memoized on the lane.
//
// Replay returns an error, and never panics, for a guard with other
// than one configuration or with Profile or SampleShift set, a sample
// shift above memsim.MaxSampleShift, a partial stream (ErrPartial), and
// a composition whose lanes do not match its schedule.
func Replay(src Source, cfgs []memsim.Config, opts ReplayOpts) ([]Cost, []*memsim.ReuseProfile, error) {
	switch {
	case opts.Guard != nil && len(cfgs) != 1:
		return nil, nil, fmt.Errorf("astream: a guarded replay takes exactly one configuration, got %d", len(cfgs))
	case opts.Guard != nil && opts.SampleShift != 0:
		return nil, nil, errors.New("astream: a guarded replay cannot sample (a sampled partial cost is no lower bound)")
	case opts.Guard != nil && opts.Profile:
		return nil, nil, errors.New("astream: a guarded replay cannot profile (an aborted pass has no complete profile)")
	case opts.SampleShift > memsim.MaxSampleShift:
		return nil, nil, fmt.Errorf("astream: sample shift %d exceeds max %d", opts.SampleShift, memsim.MaxSampleShift)
	}
	sc := getScratch()
	defer putScratch(sc)
	if err := sc.open(src); err != nil {
		return nil, nil, err
	}
	plan := sc.planFor(cfgs, opts.Profile, opts.SampleShift)
	if sc.composed && opts.SampleShift != 0 && len(plan.sims) == 0 {
		// Sampled GeomSims alone: probe the lanes' kept lines only.
		plan.views = sc.cw.views(plan.geoms, opts.SampleShift)
	}
	var (
		inv     memsim.Counts
		peak    uint64
		walked  uint64
		since   int
		r       run
		bound   completion
		bounded bool
	)
	if opts.Guard != nil && sc.composed {
		bound, bounded = sc.cw.completion(cfgs[0])
	}
	for {
		ok, err := sc.next(&r)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			break
		}
		inv.ReadWords += r.readW
		inv.WriteWords += r.writeW
		inv.OpCycles += r.ops
		peak = r.peak
		walked += uint64(len(r.addr))
		plan.probe(&r)
		if opts.Guard == nil {
			continue
		}
		if since += len(r.addr); since < batchEvents {
			continue
		}
		since = 0
		// A guarded plan is one configuration on a dedicated LineSim.
		ls := plan.sims[0]
		snap := costOf(cfgs[0], ls, inv, peak)
		if bounded {
			// The completion bound: exact final invariants, the probe
			// outcomes so far, and every lane's suffix from its next
			// checkpoint priced by its isolated outcomes — misses at L2
			// hits, first touches at DRAM fills. The remaining probes
			// (isolated hits, and the gap between a cursor and its
			// checkpoint) are priced as L1 hits.
			misses, cold := sc.cw.suffix()
			cnt := bound.inv
			cnt.L1Hits = ls.L1Hits + (bound.probes - ls.Probes() - misses)
			cnt.L2Hits = ls.L2Hits + misses - cold
			cnt.DRAMFills = ls.DRAMFills + cold
			snap = Cost{Counts: cnt, Cycles: cfgs[0].CyclesFor(cnt, bound.pipelined), Peak: peak}
		}
		if opts.Guard(snap) {
			snap.Aborted, snap.Walked = true, walked
			return []Cost{snap}, nil, nil
		}
	}
	out := plan.costs(inv, peak)
	for i := range out {
		out[i].Walked = walked
	}
	if !opts.Profile {
		return out, nil, nil
	}
	return out, plan.profiles(inv, peak), nil
}

// run is one probe run a source hands the walk: the accesses in probe
// order with their platform-invariant deltas and the footprint peak as
// of the run's end. lane and [s0, s1) locate a composed run in its lane
// for the sampled views.
type run struct {
	addr, size         []uint32
	readW, writeW, ops uint64
	peak               uint64
	lane, s0, s1       int
}

// completion is a composition's completion-bound ingredients: the
// exact final word and op counts, line probes and pipelined words, all
// known before the walk starts.
type completion struct {
	inv               memsim.Counts
	probes, pipelined uint64
}

// open validates src and positions its walker at the start: the
// source-specific half of Replay, which yields the probe runs (next)
// and, for a Composition, the completion-bound tables (compWalker).
func (sc *scratch) open(src Source) error {
	switch s := src.(type) {
	case *Stream:
		if s == nil {
			return errors.New("astream: nil stream")
		}
		if s.Partial {
			return ErrPartial
		}
		b := &sc.b
		sc.sw = streamWalker{d: decoder{chunks: s.Chunks, addr: b.addr[:], size: b.size[:], write: b.write[:]}}
		sc.composed = false
		return nil
	case Composition:
		if err := s.check(); err != nil {
			return err
		}
		sc.cw.toks, sc.cw.lanes, sc.composed = s.Sched.Tokens, s.Lanes, true
		for range s.Lanes {
			sc.cw.cursor = append(sc.cw.cursor, 0)
		}
		return nil
	}
	return errors.New("astream: nil or unknown replay source")
}

// next fills r with the open source's next probe run; false once the
// source is exhausted.
func (sc *scratch) next(r *run) (bool, error) {
	if sc.composed {
		return sc.cw.next(r)
	}
	return sc.sw.next(r)
}

// batch is the struct-of-arrays a stream replay decodes into: only the
// access sequence needs order (cache state depends on it); the
// platform-invariant quantities — word counts, op cycles, footprint
// peak — are order-free between accesses and arrive as the decode's
// aggregates.
type batch struct {
	addr, size [batchEvents]uint32
	write      [batchEvents / 64]uint64
}

// errStreamSeg reports a segment terminator in a whole-run stream: only
// a lane's serialized form carries segments.
var errStreamSeg = errors.New("astream: segment terminator in a whole-run stream")

// streamWalker decodes a stream's delta chunks into the scratch batch
// batchEvents accesses at a time, across chunk boundaries.
type streamWalker struct {
	d    decoder
	done bool
}

func (w *streamWalker) next(r *run) (bool, error) {
	if w.done {
		return false, nil
	}
	d := &w.d
	d.n = 0
	if err := d.decode(); err != nil {
		return false, err
	}
	if d.seg {
		return false, errStreamSeg
	}
	w.done = d.n < batchEvents
	r.addr, r.size = d.addr[:d.n], d.size[:d.n]
	r.readW, r.writeW, r.ops, r.peak = d.readW, d.writeW, d.ops, d.peak
	return true, nil
}
