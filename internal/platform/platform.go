// Package platform bundles the three simulation substrates — virtual heap,
// memory hierarchy and energy model — into the Platform that every DDT
// simulation runs on, and snapshots them into the paper's 4-metric cost
// vector.
//
// One simulation (one execution of a network application over one trace
// with one DDT assignment, §3.1 of the paper) uses exactly one Platform;
// creating a fresh Platform resets all architectural and accounting state,
// which keeps simulations independent and deterministic.
package platform

import (
	"repro/internal/astream"
	"repro/internal/energy"
	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/vheap"
)

// Platform is the simulated embedded platform a network application
// executes on.
type Platform struct {
	Heap  *vheap.Heap
	Mem   *memsim.Hierarchy
	Model energy.Model

	// Arena mode (UseArenas): per-role address arenas and their 1-based
	// lanes, keyed by role name. Empty outside arena mode.
	roleOrder  []string
	roleArenas map[string]*vheap.Arena
	roleLanes  map[string]int
}

// New builds a platform from the memory-subsystem configuration, deriving
// the energy model from the cache geometries.
func New(cfg memsim.Config) *Platform {
	return &Platform{
		Heap:  vheap.New(),
		Mem:   memsim.New(cfg),
		Model: energy.CACTILike(cfg),
	}
}

// Default builds a platform with the default configuration (8 KiB L1,
// 128 KiB L2, 1.6 GHz clock — see memsim.DefaultConfig).
func Default() *Platform {
	return New(memsim.DefaultConfig())
}

// UseArenas switches the platform to the per-role arena address model:
// each named role gets a private 256 MiB region of the virtual address
// space (in the given order, which assigns lanes 1..len(roles)), so one
// role's heap addresses can never depend on another role's allocation
// behaviour. Call it once, before the application runs. Footprint
// accounting is unchanged — the heap's peak is the high-water mark of
// the summed arena live bytes — but cache behaviour differs from the
// shared-heap model (blocks land at different addresses), so results
// from the two address models must never be compared point-for-point.
func (p *Platform) UseArenas(roles []string) {
	if p.roleArenas != nil {
		panic("platform: UseArenas called twice")
	}
	p.roleOrder = append([]string(nil), roles...)
	p.roleArenas = make(map[string]*vheap.Arena, len(roles))
	p.roleLanes = make(map[string]int, len(roles))
	for i, r := range p.roleOrder {
		p.roleArenas[r] = p.Heap.NewArena(r)
		p.roleLanes[r] = i + 1
	}
}

// ArenaFor returns the arena and lane of a role in arena mode; ok is
// false outside arena mode or for an unknown role.
func (p *Platform) ArenaFor(role string) (a *vheap.Arena, lane int, ok bool) {
	a, ok = p.roleArenas[role]
	if !ok {
		return nil, 0, false
	}
	return a, p.roleLanes[role], true
}

// CaptureComposed attaches a compositional capture to an arena-mode
// platform and returns the recorder: the event stream is segmented at
// the operation boundaries the DDT layer announces, each segment routed
// to its owning lane, with per-arena footprint deltas recorded at every
// segment end. One run therefore captures the (role, kind) lane of
// every role at once, plus the kind-invariant ambient lane and
// operation schedule; record, when non-nil, selects the lanes to
// capture (astream.NewComposedRecorder). Detach with EndCapture before
// ComposedRecorder.Finish, as with Capture.
func (p *Platform) CaptureComposed(record []bool) *astream.ComposedRecorder {
	if p.roleArenas == nil {
		panic("platform: CaptureComposed requires UseArenas")
	}
	meters := make([]astream.LaneMeter, 0, len(p.roleOrder)+1)
	meters = append(meters, p.Heap.DefaultArena())
	for _, r := range p.roleOrder {
		meters = append(meters, p.roleArenas[r])
	}
	cr := astream.NewComposedRecorder(p.roleOrder, meters, record)
	p.Mem.SetEventSink(cr)
	return cr
}

// Capture tees the platform's activity into rec: every memory event goes
// through the hierarchy's event sink, a batch at a time, and every
// footprint high-water-mark growth through the heap's peak hook, which
// first flushes the hierarchy's queued accesses to rec so the stream
// keeps its event order. The recorded stream is the platform-invariant
// behavior of the run — replaying it (internal/astream) against any
// other memory-subsystem configuration reproduces that configuration's
// live metrics exactly, without re-executing the application. Attach
// before the application runs; the capture overhead is a few
// nanoseconds per event on the live simulation.
func (p *Platform) Capture(rec *astream.Recorder) {
	p.Mem.SetEventSink(rec)
	p.Heap.SetPeakHook(func(peak uint64) {
		p.Mem.Flush()
		rec.RecordPeak(peak)
	})
}

// EndCapture detaches a recorder attached by Capture, flushing any
// accesses and ALU ops the hierarchy has not yet reported. Call it after
// the application run (normal or aborted), before Recorder.Finish.
func (p *Platform) EndCapture() {
	p.Mem.SetEventSink(nil)
	p.Heap.SetPeakHook(nil)
}

// AbortWhen arms the platform's early-abort hook: after every full
// batch of memsim.BatchAccesses accesses the hierarchy probes, the
// running 4-metric cost vector is offered to check, and a true result
// stops the simulation by panicking with *memsim.Aborted (which the
// exploration Engine recovers and records as an aborted run). All four
// metrics only grow as a simulation proceeds, so a check that proves
// the partial vector already hopeless — e.g. dominated by a finished
// Pareto-front member — is sound: the finished run could only have
// been worse.
func (p *Platform) AbortWhen(check func(metrics.Vector) bool) {
	p.Mem.SetAbortCheck(func() bool {
		return check(p.Metrics())
	})
}

// LineFamily is one geometry family of a platform sweep: the indexes of
// the configurations sharing an address-mapping (L1) line size. Within
// a family the all-geometry replay kernel (memsim.GeomSim) evaluates
// every member in a single probe pass; across families only the stream
// decode is shared.
type LineFamily = memsim.LineFamily

// LineFamilies partitions platform configurations into line-size
// families, in first-appearance order — the same grouping the replay
// planner uses (memsim.LineFamiliesOf), so sweep-side and replay-side
// partitioning can never diverge. Sweeps and the exploration engine
// group their platform points through this before replaying, so a
// K-platform sweep costs one probe pass per distinct line size rather
// than one per platform.
func LineFamilies(cfgs []memsim.Config) []LineFamily {
	return memsim.LineFamiliesOf(cfgs)
}

// Metrics snapshots the platform into the 4-metric cost vector: dissipated
// energy, execution time, memory accesses and peak memory footprint.
func (p *Platform) Metrics() metrics.Vector {
	counts := p.Mem.Counts()
	seconds := p.Mem.Seconds()
	return metrics.Vector{
		Energy:    p.Model.Energy(counts, seconds),
		Time:      seconds,
		Accesses:  float64(counts.Accesses()),
		Footprint: float64(p.Heap.PeakLiveBytes()),
	}
}
