// Command campaignbench times the two-step DDT exploration campaign on
// three workloads, one per Step1 strategy (shared-heap exhaustive,
// arena branch-and-bound, arena screened), and checks every operation's
// fronts against digests pinned from the reference implementation.
//
// Run it from the repository root through its build script:
//
//	bash campaignbench/run.sh --workload paper-live --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones (campaign_cpu_rel, peak_rss_mb, setup_s), the
// first being the campaign's CPU time in units of a reference kernel's
// timed around it (refkernel.go); with
// --trace 1 they are the per-layer ones, from spans the benchmark
// records around the program's public calls, the engine's counters and
// a sampled CPU profile charged to the repository's modules. See
// README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/explore"
	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// bench is one benchmark process: a workload at a trace length.
type bench struct {
	w       *workload
	packets int
	workdir string
	// cacheFileMB is the size of the lane store prepare wrote, if any.
	cacheFileMB float64
}

// roundStats is what one round measured.
type roundStats struct {
	traced    bool
	setupS    float64
	campaignS float64
	cpuS      float64
	rssMB     float64
	stealS    float64             // hypervisor steal over the campaign, summed over CPUs
	refCPUS   float64             // reference kernel CPU, mean of the two timings
	work      explore.EngineStats // summed over the round's operations
	layers    map[string]float64  // traced rounds only
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// A round repeats its set-up up to setupReps times while less than
// setupWindow has passed; setup_s is the median of the repetitions.
const (
	setupReps   = 32
	setupWindow = 20 * time.Millisecond
)

// minRounds is how many rounds of each kind a run makes at least,
// --seconds notwithstanding.
const minRounds = 3

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campaignbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "workload seed (recorded: the built-in traces have fixed seeds)")
	seconds := fs.Float64("seconds", 10, "how long to keep starting measured rounds")
	traced := fs.Int("trace", 0, "1 runs the traced rounds and reports per-layer metrics")
	packets := fs.Int("packets", 0, "trace length override (0 keeps the workload's)")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "campaignbench"), "directory for the lane store and the span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "campaignbench: --trace must be 0 or 1")
		return 2
	}
	b := &bench{w: w, packets: w.packets, workdir: *workdir}
	if *packets > 0 {
		b.packets = *packets
	}
	stamp := newEnv(w.name, *seed, *traced == 1, b.packets, ".")
	res, err := b.measure(time.Duration(*seconds*float64(time.Second)), *traced == 1, *seed, &stamp, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 1
	}
	stamp.LoadavgAfter = loadavg()
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]env{"env": stamp}); err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 1
	}
	return 0
}

// measure prepares the workload, then runs rounds until the time is up.
// In traced mode the rounds alternate between untraced and traced, so
// the tracing overhead is the difference of their medians. Round 0 is
// measured like the others: the only work it does beyond them is the
// engine's first generation of each trace, a few milliseconds a
// workload (trace.generate_s).
func (b *bench) measure(d time.Duration, traced bool, seed int64, stamp *env, stderr io.Writer) (*result, error) {
	if err := os.MkdirAll(b.workdir, 0o755); err != nil {
		return nil, err
	}
	if b.w.prepare != nil {
		if err := b.w.prepare(b); err != nil {
			return nil, err
		}
	}
	var sp *spans
	if traced {
		sp = newSpans()
	}
	res := &result{Correct: true}
	var rounds []roundStats
	deadline := time.Now().Add(d)
	for i := 0; ; i++ {
		var rsp *spans
		if traced && i%2 == 1 {
			rsp = sp
		}
		rs, attempted, errs, err := b.round(i, rsp)
		if err != nil {
			return nil, err
		}
		res.Attempted += attempted
		res.Failed += len(errs)
		for _, e := range errs {
			fmt.Fprintf(stderr, "campaignbench: round %d: %v\n", i, e)
		}
		fmt.Fprintf(stderr, "campaignbench: round %d traced=%v setup %.6fs campaign %.4fs cpu %.4fs steal %.2fs refcpu %.4fs peak %.1fMB work %+v\n",
			i, rs.traced, rs.setupS, rs.campaignS, rs.cpuS, rs.stealS, rs.refCPUS, rs.rssMB, rs.work)
		rounds = append(rounds, rs)
		if time.Now().After(deadline) && enough(rounds, traced) {
			break
		}
	}
	stamp.Rounds = len(rounds)
	res.Correct = res.Failed == 0
	if traced {
		if err := sp.write(filepath.Join(b.workdir, fmt.Sprintf("spans-%s-seed%d.json", b.w.name, seed))); err != nil {
			return nil, err
		}
		res.Metrics = layerMetrics(rounds)
	} else {
		res.Metrics = endToEndMetrics(rounds)
	}
	return res, nil
}

// enough reports whether the rounds cover the minimum of each kind the
// run reports on.
func enough(rounds []roundStats, traced bool) bool {
	plain, tr := 0, 0
	for _, r := range rounds {
		if r.traced {
			tr++
		} else {
			plain++
		}
	}
	return plain >= minRounds && (!traced || tr >= minRounds)
}

// round sets up and runs the workload's campaign once. sp is nil for
// an untraced round. Operations that fail are returned as errs and the
// round goes on; err is for a round that could not run at all.
func (b *bench) round(i int, sp *spans) (rs roundStats, attempted int, errs []error, err error) {
	// Time the reference kernel before anything else, and again after
	// the campaign and its profile are done, so it shows in neither.
	ref0 := refKernel(b.w.workers())

	// Start from a collected heap and a fresh peak-RSS window, so no
	// round pays for the garbage or inherits the peak of the one before.
	runtime.GC()
	debug.FreeOSMemory()
	resettable := resetPeakRSS()

	var prof bytes.Buffer
	if sp != nil {
		sp.run = i
		// The engine generates (and memoizes) its own copy of every
		// trace during round 0; this times the same generation apart.
		id := sp.begin("trace.generate", -1)
		for _, name := range b.w.traces() {
			if _, err := trace.Builtin(name, b.packets); err != nil {
				return rs, 0, nil, err
			}
		}
		sp.end(id)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return rs, 0, nil, err
		}
		defer pprof.StopCPUProfile()
	}

	// Set up repeatedly, up to setupReps times within setupWindow, and
	// keep the last set-up: a cold workload's set-up takes microseconds,
	// and one sample that short is mostly noise.
	id := sp.begin("setup", -1)
	var c *campaign
	var setups []float64
	for start := time.Now(); len(setups) == 0 || len(setups) < setupReps && time.Since(start) < setupWindow; {
		t0 := time.Now()
		if c, err = b.w.setup(b, sp, id); err != nil {
			return rs, 0, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	sp.end(id)
	rs.setupS = median(setups)

	ctx := context.Background()
	cpu0, steal0, t1 := cpuSeconds(), stealSeconds(), time.Now()
	campaignID := sp.begin("campaign", -1)
	outs := make([]outcome, len(c.ops))
	opErrs := make([]error, len(c.ops))
	for k, o := range c.ops {
		opID := sp.begin("op:"+o.name, campaignID)
		outs[k], opErrs[k] = o.run(ctx, sp, opID)
		sp.end(opID)
	}
	sp.end(campaignID)
	rs.campaignS = time.Since(t1).Seconds()
	rs.cpuS = cpuSeconds() - cpu0
	rs.stealS = stealSeconds() - steal0
	rs.rssMB = peakRSSMB(resettable)

	// Gate outside the timed interval.
	for k := range c.ops {
		addStats(&rs.work, outs[k].stats)
		if opErrs[k] == nil {
			opErrs[k] = b.check(k, outs[k])
		}
		if opErrs[k] != nil {
			errs = append(errs, opErrs[k])
		}
	}
	if sp != nil {
		pprof.StopCPUProfile()
		rs.traced = true
		if rs.layers, err = b.layers(sp, i, rs.work, outs, prof.Bytes()); err != nil {
			return rs, 0, nil, err
		}
	}
	rs.refCPUS = (ref0 + refKernel(b.w.workers())) / 2
	return rs, len(c.ops), errs, nil
}

// Span names that time a layer inside an operation; the campaign's own
// time outside them is the core layer's.
var opLayerSpans = []string{"explore.profile", "explore.step1", "explore.step2", "pareto.step3", "explore.original"}

// layers computes one traced round's per-layer metrics; work is the
// engine counters summed over the round's operations.
func (b *bench) layers(sp *spans, run int, work explore.EngineStats, outs []outcome, prof []byte) (map[string]float64, error) {
	m, err := layerCPU(prof)
	if err != nil {
		return nil, err
	}
	m["trace.generate_s"] = sp.total(run, "trace.generate")
	m["cache.load_s"] = sp.total(run, "cache.load")
	m["cache.file_mb"] = b.cacheFileMB
	self := sp.total(run, "campaign")
	for _, name := range opLayerSpans {
		t := sp.total(run, name)
		m[name+"_s"] = t
		self -= t
	}
	m["core.self_s"] = self

	m["explore.simulated"] = float64(work.Simulated)
	m["explore.composed"] = float64(work.Composed)
	m["explore.cache_hits"] = float64(work.CacheHits)
	m["explore.aborted"] = float64(work.Aborted)
	m["explore.pruned"] = float64(work.Pruned)
	m["explore.lane_profiles"] = float64(work.LaneProfiles)
	m["explore.expanded"] = float64(work.Expanded)
	m["explore.subtree_cuts"] = float64(work.SubtreeCuts)
	m["explore.sampled"] = float64(work.Sampled)

	var space, screened, survivors, verified, s1Pruned, s1Aborted, step2Jobs float64
	for _, o := range outs {
		if o.s1 == nil {
			continue // the operation failed before Step1 finished
		}
		if o.s2 != nil {
			step2Jobs += float64(o.s2.Simulations)
		}
		space += float64(o.s1.Simulations)
		screened += float64(o.s1.Screened)
		survivors += float64(len(o.s1.Survivors))
		verified += float64(o.s1.Verified)
		s1Pruned += float64(o.s1.Pruned)
		s1Aborted += float64(o.s1.Aborted)
	}
	m["explore.screened"] = screened
	m["explore.verified"] = verified
	m["explore.step2_jobs"] = step2Jobs
	m["explore.prune_ratio"] = ratio(s1Pruned, space)
	m["explore.survivor_frac"] = ratio(survivors, space)
	m["explore.verify_yield"] = ratio(verified, space-screened)
	m["explore.abort_ratio"] = ratio(s1Aborted, space)
	return m, nil
}

func addStats(sum *explore.EngineStats, s explore.EngineStats) {
	sum.Simulated += s.Simulated
	sum.Replayed += s.Replayed
	sum.Composed += s.Composed
	sum.Profiled += s.Profiled
	sum.CacheHits += s.CacheHits
	sum.Aborted += s.Aborted
	sum.Pruned += s.Pruned
	sum.LaneProfiles += s.LaneProfiles
	sum.Expanded += s.Expanded
	sum.SubtreeCuts += s.SubtreeCuts
	sum.Sampled += s.Sampled
}

func ratio(n, d float64) float64 {
	if d <= 0 {
		return 0
	}
	return n / d
}

// endToEndMetrics reports one figure per metric over the rounds.
// campaign_cpu_rel is the median of the rounds' campaign CPU time over
// the reference kernel's CPU time around it (see refkernel.go).
// peak_rss_mb is the least of the rounds' peaks. A round's peak is what
// a process running that one campaign would report as its maxrss, but a
// GC cycle that starts late lifts it: during the warm load about one
// round in four, and on the two-worker live workload whenever the
// collector falls behind the workers. The least peak is the campaign's
// own footprint, and across runs it spread a third as much as the
// median did. setup_s is the median.
func endToEndMetrics(rounds []roundStats) map[string]metric {
	var cpu, rss, setup []float64
	for _, r := range rounds {
		cpu = append(cpu, r.cpuS/r.refCPUS)
		rss = append(rss, r.rssMB)
		setup = append(setup, r.setupS)
	}
	return map[string]metric{
		"campaign_cpu_rel": {median(cpu), "ratio"},
		"peak_rss_mb":      {slices.Min(rss), "MB"},
		"setup_s":          {median(setup), "s"},
	}
}

// layerMetrics reports the median of each per-layer metric over the
// traced rounds; over the untraced rounds, the median campaign wall,
// CPU and steal seconds, unscaled; the reference kernel's median CPU
// seconds over all rounds; and the tracing overhead: the traced rounds'
// median campaign wall time minus the untraced rounds'.
func layerMetrics(rounds []roundStats) map[string]metric {
	var plain, plainCPU, plainSteal, traced, ref []float64
	byName := make(map[string][]float64)
	for _, r := range rounds {
		ref = append(ref, r.refCPUS)
		if !r.traced {
			plain = append(plain, r.campaignS)
			plainCPU = append(plainCPU, r.cpuS)
			plainSteal = append(plainSteal, r.stealS)
			continue
		}
		traced = append(traced, r.campaignS)
		for k, v := range r.layers {
			byName[k] = append(byName[k], v)
		}
	}
	out := map[string]metric{
		"bench.trace_overhead_s": {median(traced) - median(plain), "s"},
		"bench.campaign_s":       {median(plain), "s"},
		"bench.campaign_cpu_s":   {median(plainCPU), "s"},
		"bench.steal_s":          {median(plainSteal), "s"},
		"bench.ref_cpu_s":        {median(ref), "s"},
	}
	for k, vs := range byName {
		out[k] = metric{median(vs), unitOf(k)}
	}
	return out
}

func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, "_yield"):
		return "ratio"
	}
	return "count"
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(vs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
