package astream

import (
	"errors"
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
}

// GuardFunc is polled during a guarded replay with a lower bound on
// the replay's final cost; returning true stops the replay (the Cost
// comes back Aborted). Flat replays poll the bare partial cost. The
// unpacked composed replay polls the tighter completion bound on a
// memsim.BoundEligible platform (see ReplayComposedUnpacked), and the
// bare partial cost elsewhere. Either way no objective a snapshot
// implies — cycles, energy, words, footprint — exceeds the exact final
// one, so a front member dominating a snapshot dominates the final
// vector, as in live early abort. The snapshot's
// Peak is the running footprint peak; a guard that needs the exact
// final peak computes it with ComposedPeak. The poll cadence is one
// check per batch of about batchEvents accesses — the same order of
// magnitude as the live simulation's probe-count cadence.
type GuardFunc func(Cost) bool

// costOf merges the platform-invariant counters with one LineSim's probe
// outcomes into the exact cost vector ingredients.
func costOf(cfg memsim.Config, ls *memsim.LineSim, inv memsim.Counts, peak uint64) Cost {
	inv.L1Hits = ls.L1Hits
	inv.L2Hits = ls.L2Hits
	inv.DRAMFills = ls.DRAMFills
	return Cost{Counts: inv, Cycles: cfg.CyclesFor(inv, ls.Pipelined()), Peak: peak}
}

// scratch is the reusable per-replay working set: the decode batch (the
// two 8 KiB struct-of-array halves), the probe simulators — per-config
// LineSims and all-geometry GeomSims — and the lane decoders of
// composed replays. Replays run steadily inside the exploration
// engine's worker pool — thousands per exploration — so this state is
// pooled rather than reallocated per call; a recycled kernel whose
// geometry (or geometry family) matches the request is Reset instead of
// rebuilt. The astream benchmarks assert the resulting steady-state
// allocation count.
type scratch struct {
	b       batch
	sims    []*memsim.LineSim
	geos    []*memsim.GeomSim
	ds      []decoder
	cursors []int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch  { return scratchPool.Get().(*scratch) }
func putScratch(s *scratch) { scratchPool.Put(s) }

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
// only requests eligible same-line-size families, so construction
// cannot fail.
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

// decodersFor returns a lane-decoder slice of length n, reusing capacity.
func (s *scratch) decodersFor(n int) []decoder {
	if cap(s.ds) < n {
		s.ds = make([]decoder, n)
	}
	s.ds = s.ds[:n]
	return s.ds
}

// cursorsFor returns a zeroed per-lane segment-cursor slice of length n.
func (s *scratch) cursorsFor(n int) []int {
	if cap(s.cursors) < n {
		s.cursors = make([]int, n)
	}
	s.cursors = s.cursors[:n]
	for i := range s.cursors {
		s.cursors[i] = 0
	}
	return s.cursors
}

// Replay evaluates the stream under cfg without re-running the
// application: one decode pass drives the configuration's cache model
// with the recorded access sequence while the platform-invariant
// counters (word counts, ALU cycles, footprint) are reconstructed
// arithmetically. guard, when non-nil, is polled once per batch; a true
// result stops the replay and returns the partial Cost with Aborted set.
func Replay(s *Stream, cfg memsim.Config, guard GuardFunc) (Cost, error) {
	if s.Partial {
		return Cost{}, ErrPartial
	}
	sc := getScratch()
	defer putScratch(sc)
	var (
		ls  = sc.simFor(0, cfg)
		inv memsim.Counts
		d   = decoder{chunks: s.Chunks}
		b   = &sc.b
	)
	for {
		more, err := d.next(b)
		if err != nil {
			return Cost{}, err
		}
		inv.ReadWords += b.readWords
		inv.WriteWords += b.writeWords
		inv.OpCycles += b.opCycles
		ls.ProbeAccesses(b.addr[:b.nAcc], b.size[:b.nAcc])
		if !more {
			break
		}
		if guard != nil {
			if snap := costOf(cfg, ls, inv, b.peak); guard(snap) {
				snap.Aborted = true
				return snap, nil
			}
		}
	}
	return costOf(cfg, ls, inv, b.peak), nil
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

// multiPlan is how a multi-configuration replay partitions its targets:
// same-line-size geometry families collapse into one GeomSim pass each,
// and the leftovers (singleton families, non-power-of-two geometries)
// keep a dedicated LineSim. Every probe batch is walked once per geom
// plus once per leftover sim — not once per configuration.
type multiPlan struct {
	cfgs    []memsim.Config
	geoms   []*memsim.GeomSim
	geomIdx [][]int // geoms[k] serves cfgs[geomIdx[k][...]]
	sims    []*memsim.LineSim
	simIdx  []int // sims[j] serves cfgs[simIdx[j]]
}

// forceLineSim disables all-geometry routing (benchmark baseline only;
// see export_test.go).
var forceLineSim = false

// planFor partitions cfgs into the plan, recycling pooled kernels. The
// line-size grouping is the shared memsim.LineFamiliesOf, so the plan
// can never partition differently from the exploration layers. A family
// of one only takes the GeomSim path when the caller wants its reuse
// profile or a sampled pass (LineSim has no sampling mode); otherwise a
// plain LineSim is cheaper. Ineligible configurations always fall back
// to an exact LineSim, even under sampling — their costs simply come
// back exact, which only tightens the caller's interval.
func (sc *scratch) planFor(cfgs []memsim.Config, profiled bool, sampleShift uint32) multiPlan {
	p := multiPlan{cfgs: cfgs}
	for _, fam := range memsim.LineFamiliesOf(cfgs) {
		var idx []int
		for _, i := range fam.Indexes {
			if forceLineSim || !memsim.GeomEligible(cfgs[i]) {
				p.simIdx = append(p.simIdx, i)
			} else {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			continue
		}
		if len(idx) < 2 && !profiled && sampleShift == 0 {
			p.simIdx = append(p.simIdx, idx...)
			continue
		}
		fcfgs := make([]memsim.Config, len(idx))
		for k, i := range idx {
			fcfgs[k] = cfgs[i]
		}
		p.geoms = append(p.geoms, sc.geoFor(len(p.geoms), fcfgs, sampleShift))
		p.geomIdx = append(p.geomIdx, idx)
	}
	for j, i := range p.simIdx {
		p.sims = append(p.sims, sc.simFor(j, cfgs[i]))
	}
	return p
}

// probe walks one access batch through every kernel of the plan.
func (p *multiPlan) probe(addrs, sizes []uint32) {
	for _, gs := range p.geoms {
		gs.ProbeAccesses(addrs, sizes)
	}
	for _, ls := range p.sims {
		ls.ProbeAccesses(addrs, sizes)
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
// with the stream's platform-invariant aggregates so a profile-served
// cost later needs no stream at all.
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

// ReplayMulti evaluates K configurations in a single pass over the
// stream: one decode, and one all-geometry probe kernel per family of
// configurations sharing an L1 line size (see memsim.GeomSim) — so a
// same-line-size geometry sweep pays roughly one probe pass total
// instead of one per configuration. Configurations that cannot join a
// family fall back to a dedicated per-config LineSim over the same
// decoded batches (the decode is still paid exactly once).
func ReplayMulti(s *Stream, cfgs []memsim.Config) ([]Cost, error) {
	costs, _, err := replayMulti(s, cfgs, false, 0)
	return costs, err
}

// ReplayMultiProfiled is ReplayMulti plus the reuse profiles of the
// pass: one memsim.ReuseProfile per geometry family (identified by its
// LineBytes), each answering any configuration in its covered cross
// product by pure arithmetic afterwards. The exploration cache persists
// them so warm platform sweeps need zero probe passes.
func ReplayMultiProfiled(s *Stream, cfgs []memsim.Config) ([]Cost, []*memsim.ReuseProfile, error) {
	return replayMulti(s, cfgs, true, 0)
}

// ReplayMultiProfiledSampled is ReplayMultiProfiled at spatial sample
// rate 2^-sampleShift: the decode still walks every event (the
// platform-invariant aggregates stay exact) but only the hash-kept line
// subset descends the recency stacks, so the probe cost — the dominant
// term on long streams — drops by ~2^sampleShift. Costs and profiles
// come back as scaled estimates with confidence intervals
// (ReuseProfile.RelCI); shift 0 is exactly ReplayMultiProfiled.
func ReplayMultiProfiledSampled(s *Stream, cfgs []memsim.Config, sampleShift uint32) ([]Cost, []*memsim.ReuseProfile, error) {
	return replayMulti(s, cfgs, true, sampleShift)
}

func replayMulti(s *Stream, cfgs []memsim.Config, profiled bool, sampleShift uint32) ([]Cost, []*memsim.ReuseProfile, error) {
	if s.Partial {
		return nil, nil, ErrPartial
	}
	sc := getScratch()
	defer putScratch(sc)
	plan := sc.planFor(cfgs, profiled, sampleShift)
	var (
		inv  memsim.Counts
		peak uint64
		d    = decoder{chunks: s.Chunks}
		b    = &sc.b
	)
	for {
		more, err := d.next(b)
		if err != nil {
			return nil, nil, err
		}
		inv.ReadWords += b.readWords
		inv.WriteWords += b.writeWords
		inv.OpCycles += b.opCycles
		peak = b.peak
		plan.probe(b.addr[:b.nAcc], b.size[:b.nAcc])
		if !more {
			break
		}
	}
	out := plan.costs(inv, peak)
	if !profiled {
		return out, nil, nil
	}
	return out, plan.profiles(inv, peak), nil
}
