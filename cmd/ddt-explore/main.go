// Command ddt-explore runs the 3-step DDT refinement methodology for one
// network application — the reproduction of the paper's automated
// exploration driver. It drives the streaming exploration Engine: bounded
// worker pool, incremental Pareto pruning, simulation cache, optional
// early abort and access-stream capture/replay. It prints the
// step-by-step summary and can write the per-simulation log that
// ddt-pareto post-processes.
//
// Usage:
//
//	ddt-explore -app Route [-packets 8000] [-log route.log] [-charts]
//	ddt-explore -app Route -workers 4 -early-abort -progress
//	ddt-explore -app URL -cache url.simcache         # warm across runs
//	ddt-explore -app URL -replay-cache url.replay    # + access streams and
//	                                                 # reuse profiles
//	ddt-explore -app DRR -compose                    # compositional capture:
//	                                                 # 10*K executions serve
//	                                                 # the 10^K combinations,
//	                                                 # and bound-guided search
//	                                                 # prunes dominated ones
//	                                                 # with zero replays
//	                                                 # (-noprune disables)
//	ddt-explore -app DRR -packets 100000 \
//	            -sample-rate 0.015625                # long-trace screening:
//	                                                 # estimate the space with
//	                                                 # 1/64-sampled replays,
//	                                                 # then re-run the few
//	                                                 # near-front survivors
//	                                                 # exactly — the front is
//	                                                 # identical in membership
//	                                                 # to an exact run
//	ddt-explore -app URL -platforms all              # co-design sweep of the
//	                                                 # recommendation: one
//	                                                 # geometry-collapsed probe
//	                                                 # pass per line size (or
//	                                                 # zero, from cached reuse
//	                                                 # profiles)
//	ddt-explore -app Route -cpuprofile cpu.pprof     # profile the run
package main

import (
	"context"
	"crypto/tls"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/apps"
	"repro/internal/apps/netapps"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/explore"
	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/sweep"
)

// cliConfig carries every flag of the command.
type cliConfig struct {
	app             string
	packets         int
	logPath         string
	csvPath         string
	charts          bool
	workers         int
	earlyAbort      bool
	cachePath       string  // results-only persistent cache
	replayCache     string  // results + access streams persistent cache
	compose         bool    // compositional capture: per-role sub-streams
	noprune         bool    // disable bound-guided combination pruning
	sampleRate      float64 // two-phase screening: sampled estimates, exact re-check
	platforms       string  // platform names to evaluate the recommendation on
	checkpointEvery int     // persist a campaign checkpoint every N settled jobs
	serve           string  // coordinate a distributed campaign on this address
	join            string  // join a coordinator as a worker
	workerID        string  // worker name in coordinator stats
	shardSize       int     // jobs per distributed lease
	leaseTTL        time.Duration
	verifyRate      float64       // fraction of remote results re-executed locally
	token           string        // shared worker-authentication secret
	tlsCert         string        // coordinator certificate (serve) / pinned certificate (join)
	tlsKey          string        // coordinator private key (serve)
	tlsGen          bool          // generate a self-signed pair at -tls-cert/-tls-key and exit
	maxBackoff      time.Duration // cap on the worker reconnect backoff
	hedgeAfter      time.Duration // straggler threshold for speculative re-leases
	chaosLie        bool          // test hook: corrupt every exact result this worker reports
	cpuProfile      string
	memProfile      string
	progress        bool
}

// parseFlags parses args into a cliConfig on a private FlagSet, so the
// command can be driven in-process by tests and re-exec harnesses.
func parseFlags(args []string) (cliConfig, error) {
	var c cliConfig
	appNames := netapps.Names()
	for _, a := range netapps.Extensions() {
		appNames = append(appNames, a.Name())
	}
	fs := flag.NewFlagSet("ddt-explore", flag.ContinueOnError)
	fs.StringVar(&c.app, "app", "", "application to explore: "+strings.Join(appNames, ", "))
	fs.IntVar(&c.packets, "packets", 8000, "packets per simulation trace")
	fs.StringVar(&c.logPath, "log", "", "write the exploration log (for ddt-pareto)")
	fs.StringVar(&c.csvPath, "csv", "", "write the exploration results as CSV")
	fs.BoolVar(&c.charts, "charts", false, "print per-configuration Pareto charts")
	fs.IntVar(&c.workers, "workers", 0, "simulation worker goroutines (0 = all CPUs)")
	fs.BoolVar(&c.earlyAbort, "early-abort", false, "stop simulations already dominated by the running front (fronts stay exact; full-space charts thin out)")
	fs.StringVar(&c.cachePath, "cache", "", "simulation cache file: loaded before the run, saved after")
	fs.StringVar(&c.replayCache, "replay-cache", "", "like -cache, but also persists the captured access streams, role lanes and the reuse profiles of platform evaluations, so later runs evaluate new platform configurations by replay — or by profile arithmetic with zero probe passes — instead of re-execution")
	fs.BoolVar(&c.compose, "compose", false, "compositional capture: record one access sub-stream per container role (per-role heap arenas) and evaluate DDT combinations by interleaving cached sub-streams instead of re-executing — the 10^K cross-product costs ~10*K executions")
	fs.BoolVar(&c.noprune, "noprune", false, "with -compose, disable bound-guided pruning: by default, combinations whose admissible per-lane lower bound (sum of isolated lane reuse-profile bounds) is already dominated by the running Pareto front are discarded with zero replays, and composed replays stop once their completion bound is dominated — fronts stay bit-identical either way")
	fs.Float64Var(&c.sampleRate, "sample-rate", 0, "screen the combination space with SHARDS-sampled replays at this spatial rate (e.g. 0.015625 = 1/64) before re-running the surviving near-front combinations exactly — the reported front is identical in membership to an exact run; implies -compose and conflicts with -noprune (0 disables; must be below 1; rates round down to a power of two)")
	fs.StringVar(&c.platforms, "platforms", "", "comma-separated platform points (or 'all') to evaluate the best-energy recommendation on: points sharing a cache line size are costed by one all-geometry replay pass (a cached reuse profile makes the sweep pure arithmetic); names from the default sweep set")
	fs.IntVar(&c.checkpointEvery, "checkpoint-every", 0, "with -cache or -replay-cache, persist a resumable campaign checkpoint every N settled jobs (0 disables periodic checkpoints; an interrupt always writes a final one)")
	fs.StringVar(&c.serve, "serve", "", "coordinate a distributed campaign on this TCP address (e.g. :9777): lease shards of the combination space to joining workers, merge their results and cache entries, and print the usual report from the merged cache; implies -compose")
	fs.StringVar(&c.join, "join", "", "join the coordinator at this TCP address as a worker: resolve leased shards through the local engine and cache and stream results back; retries with backoff across coordinator restarts; implies -compose")
	fs.StringVar(&c.workerID, "worker-id", "", "worker name reported to the coordinator (default host-pid)")
	fs.IntVar(&c.shardSize, "shard-size", 0, "with -serve, jobs per leased shard (0 = default)")
	fs.DurationVar(&c.leaseTTL, "lease-ttl", 0, "with -serve, how long a worker holds a shard before it is reassigned (0 = default 30s)")
	fs.Float64Var(&c.verifyRate, "verify-rate", 0, "with -serve, re-execute this seeded deterministic fraction of accepted remote results locally and cross-check exact equality; any result that would join a survivor front is always verified; a mismatch quarantines the worker and invalidates its unverified results (0 = trusted fleet)")
	fs.StringVar(&c.token, "token", "", "shared secret authenticating workers to the coordinator: required from every worker when set on -serve, presented in the hello when set on -join")
	fs.StringVar(&c.tlsCert, "tls-cert", "", "with -serve, the PEM certificate to serve TLS with (needs -tls-key); with -join, the coordinator certificate to pin — the connection is refused unless the coordinator presents exactly this certificate")
	fs.StringVar(&c.tlsKey, "tls-key", "", "with -serve, the PEM private key matching -tls-cert")
	fs.BoolVar(&c.tlsGen, "tls-gen", false, "generate a self-signed certificate/key pair at -tls-cert/-tls-key and exit: run once on the coordinator host, copy the certificate (never the key) to each worker")
	fs.DurationVar(&c.maxBackoff, "max-backoff", 0, "with -join, cap the jittered exponential reconnect backoff (0 = default 5s)")
	fs.DurationVar(&c.hedgeAfter, "hedge-after", 0, "with -serve, speculatively re-lease a shard outstanding longer than this to a second worker (first settled wins; 0 = adapt to twice the p95 of observed shard latencies; negative disables hedging)")
	fs.BoolVar(&c.chaosLie, "chaos-lie", false, "with -join, corrupt the objective vector of every exact result before reporting it — a lying-worker chaos hook for exercising -verify-rate quarantine end to end; never use on a campaign whose results you care about")
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile of the exploration to this file")
	fs.StringVar(&c.memProfile, "memprofile", "", "write a heap profile (taken after the exploration) to this file")
	fs.BoolVar(&c.progress, "progress", false, "report streaming progress per step")
	err := fs.Parse(args)
	return c, err
}

// cliMain is the whole command behind a testable seam: parse, arm
// SIGINT/SIGTERM cancellation, run, map the outcome to an exit code. A
// clean interrupt — campaign checkpointed and persisted for resumption
// — exits 0.
func cliMain(args []string) int {
	c, err := parseFlags(args)
	if err != nil {
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, c); err != nil {
		fmt.Fprintln(os.Stderr, "ddt-explore:", err)
		return 1
	}
	return 0
}

func main() {
	os.Exit(cliMain(os.Args[1:]))
}

func run(ctx context.Context, c cliConfig) error {
	if c.tlsGen {
		if c.tlsCert == "" || c.tlsKey == "" {
			return fmt.Errorf("-tls-gen needs -tls-cert and -tls-key paths to write")
		}
		if err := distrib.GenerateCert(c.tlsCert, c.tlsKey, nil); err != nil {
			return err
		}
		fmt.Printf("self-signed pair written: certificate %s (copy to workers), key %s (keep on the coordinator)\n", c.tlsCert, c.tlsKey)
		return nil
	}
	a, err := netapps.ByName(c.app)
	if err != nil {
		return err
	}
	if c.cachePath != "" && c.replayCache != "" {
		return fmt.Errorf("-cache and -replay-cache are mutually exclusive")
	}
	if c.noprune && c.sampleRate > 0 {
		return fmt.Errorf("-noprune conflicts with -sample-rate: screening verifies its candidates under bound pruning")
	}
	if c.serve != "" && c.join != "" {
		return fmt.Errorf("-serve and -join are mutually exclusive")
	}
	if (c.serve != "" || c.join != "") && c.sampleRate > 0 {
		return fmt.Errorf("-sample-rate screening is not supported in distributed mode")
	}
	if c.serve == "" && c.join == "" && (c.tlsCert != "" || c.tlsKey != "" || c.token != "" || c.chaosLie) {
		return fmt.Errorf("-tls-cert, -tls-key, -token and -chaos-lie apply only to -serve or -join campaigns")
	}
	if c.serve != "" && (c.tlsCert == "") != (c.tlsKey == "") {
		return fmt.Errorf("-serve needs -tls-cert and -tls-key together")
	}
	if c.join != "" && c.tlsKey != "" {
		return fmt.Errorf("-tls-key is the coordinator's secret; workers pin the coordinator with -tls-cert alone")
	}
	if c.chaosLie && c.join == "" {
		return fmt.Errorf("-chaos-lie is a worker-side chaos hook; it needs -join")
	}
	if c.verifyRate < 0 || c.verifyRate > 1 {
		return fmt.Errorf("-verify-rate must be in [0, 1], got %v", c.verifyRate)
	}
	if c.serve != "" || c.join != "" {
		// Distributed campaigns lease the compositional job space: both
		// sides must resolve jobs under identical semantics, and the
		// content-addressed lanes/schedules are what workers stream back.
		c.compose = true
	}
	if c.noprune && !c.compose {
		return fmt.Errorf("-noprune applies only to -compose runs")
	}
	if c.cpuProfile != "" {
		f, err := os.Create(c.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	cachePath := c.cachePath
	if c.replayCache != "" {
		cachePath = c.replayCache
	}
	cache := loadCache(cachePath)
	eng, opts, err := newEngine(c, a, cache, cachePath)
	if err != nil {
		return err
	}
	if boundPruneOff(opts, eng) {
		fmt.Fprintln(os.Stderr, "ddt-explore: bound pruning is off: the platform's level latencies are not monotone, so the arena run is exhaustive")
	}
	if cache != nil {
		if ck, ok := cache.Checkpoint(); ok && ck.App == a.Name() && ck.Ctx == eng.ExploreContext() {
			if ck.Done {
				fmt.Fprintf(os.Stderr, "cache holds this campaign complete (%d jobs settled); rerunning warm\n", ck.Settled)
			} else {
				fmt.Fprintf(os.Stderr, "resuming: %d jobs settled before the last interruption\n", ck.Settled)
			}
		}
	}
	if c.join != "" {
		return runWorker(ctx, c, eng, cache, cachePath)
	}
	var dist *explore.DistState
	if c.serve != "" {
		d, err := runCoordinator(ctx, c, a, eng, cache, cachePath)
		if err != nil || d == nil {
			// nil DistState with a nil error: clean interrupt, state saved.
			return err
		}
		dist = d
		// Fall through: the campaign is settled in the cache, so the
		// ordinary methodology run below is a warm rerun that assembles
		// the standard report entirely from cache hits.
	}
	m := core.Methodology{App: a, Opts: opts, Engine: eng}

	start := time.Now()
	r, err := m.RunContext(ctx)
	if err != nil {
		if ctx.Err() != nil && errors.Is(err, context.Canceled) {
			// Interrupted: the engine already recorded a final mid-flight
			// checkpoint into the cache on its cancellation path; persist
			// it and exit cleanly so the next identical invocation
			// resumes from the watermark.
			if serr := saveCache(cachePath, cache, c.replayCache != ""); serr != nil {
				return serr
			}
			if cachePath != "" {
				fmt.Fprintf(os.Stderr, "interrupted: campaign state saved to %s after %d settled jobs; rerun the same command to resume\n",
					cachePath, eng.Settled())
			} else {
				fmt.Fprintln(os.Stderr, "interrupted: no -cache/-replay-cache configured, campaign state not persisted")
			}
			return nil
		}
		return err
	}
	elapsed := time.Since(start)
	eng.FinishCampaign() // terminal checkpoint: marks the persisted campaign complete

	fmt.Printf("=== %s: 3-step DDT refinement ===\n\n", r.App)
	fmt.Printf("step 1 - application-level exploration (reference: %s)\n", r.Reference)
	fmt.Printf("profiling ranked the candidate containers:\n%s\n", r.Profile)
	fmt.Printf("dominant structures: %s\n", strings.Join(r.DominantRoles, ", "))
	fmt.Printf("simulated %d combinations; %d survive the 4-metric filter (%.0f%%)\n\n",
		r.Step1.Simulations, len(r.Step1.Survivors), 100*r.Step1.SurvivorFraction())

	fmt.Printf("step 2 - network-level exploration over %d configurations\n", len(r.Configs))
	fmt.Printf("ran %d further simulations; total %d instead of %d exhaustive (%s reduction)\n\n",
		r.Step2.Simulations, r.Reduced, r.Exhaustive, report.Percent(r.ReductionFraction()))

	fmt.Printf("step 3 - Pareto-level exploration\n")
	fmt.Printf("cross-configuration Pareto-optimal set (%d combinations):\n", r.ParetoOptimal)
	var rows [][]string
	for _, p := range r.ParetoSet {
		rows = append(rows, []string{
			p.Label,
			metrics.FormatEnergy(p.Vec.Energy),
			metrics.FormatTime(p.Vec.Time),
			fmt.Sprintf("%.0f", p.Vec.Accesses),
			fmt.Sprintf("%.0fB", p.Vec.Footprint),
		})
	}
	fmt.Println(report.Table([]string{"combination", "energy", "time", "accesses", "footprint"}, rows))

	fmt.Println("trade-offs among Pareto-optimal points (largest across configurations):")
	for _, met := range metrics.AllMetrics() {
		fmt.Printf("  %-9s %s\n", met, report.Percent(r.Tradeoffs[met]))
	}
	fmt.Printf("\nvs original (all-SLL) implementation on %s:\n", r.Reference)
	fmt.Printf("  original     %v\n", r.Original.Vec)
	fmt.Printf("  best energy  %v  (%s)\n", r.BestEnergy.Vec, r.BestEnergy.Label)
	fmt.Printf("  best time    %v  (%s)\n", r.BestTime.Vec, r.BestTime.Label)
	fmt.Printf("  savings: %s energy, %s execution time\n",
		report.Percent(r.EnergySaving), report.Percent(r.TimeSaving))

	st := eng.Stats()
	fmt.Printf("\nexploration wall time: %.1fs (budget %d; engine simulated %d, replayed %d, composed %d, profile-served %d, cache hits %d, early aborts %d, bound-pruned %d via %d lane bounds)\n",
		elapsed.Seconds(), r.Reduced, st.Simulated, st.Replayed, st.Composed, st.Profiled, st.CacheHits, st.Aborted, st.Pruned, st.LaneProfiles)
	if st.Expanded > 0 {
		fmt.Printf("branch-and-bound: expanded %d tree nodes, cut %d dominated subtrees in bulk\n",
			st.Expanded, st.SubtreeCuts)
	}
	if dist != nil {
		printWorkerStats(dist)
	}
	if s1 := r.Step1; s1.SampleRate > 0 {
		fmt.Printf("screening: %d sampled estimates at achieved rate 1/%.0f; %d screened on intervals, %d bound-pruned, %d abort-stopped, %d verified exactly -> %d survivors (front identical to an exact run)\n",
			st.Sampled, 1/s1.SampleRate, s1.Screened, s1.Pruned, s1.Aborted, s1.Verified, len(s1.Survivors))
	}

	if c.platforms != "" {
		if err := evaluatePlatforms(eng, r, c.platforms); err != nil {
			return err
		}
	}

	if c.charts {
		for _, cr := range r.Configs {
			fmt.Println()
			fmt.Print(report.Scatter(
				fmt.Sprintf("%s - execution time vs energy (%s)", r.App, cr.Config),
				metrics.Time, metrics.Energy,
				[]report.Series{
					{Name: "explored", Glyph: '.', Points: cr.Points()},
					{Name: "Pareto curve", Glyph: 'O', Points: cr.FrontTE},
				}, 64, 16))
		}
	}

	if c.logPath != "" {
		f, err := os.Create(c.logPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := report.WriteResults(f, r.Step1.Results); err != nil {
			return err
		}
		if err := report.WriteResults(f, r.Step2.Results); err != nil {
			return err
		}
		// Count what WriteResults actually wrote: aborted results carry
		// partial vectors and are skipped.
		written := len(explore.Live(r.Step1.Results)) + len(explore.Live(r.Step2.Results))
		fmt.Printf("\nexploration log written to %s (%d records)\n", c.logPath, written)
	}
	if c.csvPath != "" {
		f, err := os.Create(c.csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		all := append(append([]explore.Result{}, r.Step1.Results...), r.Step2.Results...)
		if err := report.WriteCSV(f, all); err != nil {
			return err
		}
		fmt.Printf("CSV written to %s (%d records)\n", c.csvPath, len(all))
	}
	if c.memProfile != "" {
		f, err := os.Create(c.memProfile)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return saveCache(cachePath, cache, c.replayCache != "")
}

// newEngine resolves the command's flags into the exploration engine
// over cache, the persistent cache loaded from cachePath (nil without
// -cache or -replay-cache), and returns it with the options it was
// built from.
func newEngine(c cliConfig, a apps.App, cache *explore.Cache, cachePath string) (*explore.Engine, explore.Options, error) {
	opts := explore.Options{
		TracePackets: c.packets,
		Workers:      c.workers,
		EarlyAbort:   c.earlyAbort,
		SampleRate:   c.sampleRate,
		Cache:        cache,
		Arenas:       c.compose,
		BoundPrune:   c.compose && !c.noprune,
	}
	if c.progress {
		var lastPct int = -1
		opts.Progress = func(done, total int) {
			if pct := 100 * done / total; pct != lastPct {
				lastPct = pct
				fmt.Fprintf(os.Stderr, "\rstreaming %d/%d simulations (%d%%)", done, total, pct)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
	}
	if c.checkpointEvery > 0 {
		opts.CheckpointEvery = c.checkpointEvery
		withStreams := c.replayCache != ""
		opts.Checkpoint = func(ck explore.Checkpoint) {
			if cachePath != "" {
				if err := cache.SaveFile(cachePath, withStreams); err != nil {
					fmt.Fprintln(os.Stderr, "ddt-explore: checkpoint save failed:", err)
					return
				}
			}
			fmt.Fprintf(os.Stderr, "checkpoint: %d jobs settled (step %d)\n", ck.Settled, ck.Step)
		}
	}
	eng := explore.NewEngine(a, opts)
	if err := eng.Err(); err != nil {
		return nil, opts, err
	}
	if c.cachePath != "" && !eng.Options().Arenas {
		// A results-only file persists no streams and a shared-heap run
		// replays none of its own, so capturing them would only cost
		// memory. Arena runs keep the budget: it also holds their lanes.
		cache.SetStreamBudget(0)
	}
	return eng, opts, nil
}

// boundPruneOff reports whether the engine's platform, being outside
// memsim.BoundEligible, turned the requested bound pruning off.
func boundPruneOff(requested explore.Options, eng *explore.Engine) bool {
	return (requested.BoundPrune || requested.SampleRate > 0) && !eng.Options().BoundPrune
}

// runWorker joins a coordinator as a distributed worker: resolve
// leased shards until the campaign completes, then persist the local
// cache so the next join starts warm. An interrupt exits cleanly, like
// an interrupted single-process campaign.
func runWorker(ctx context.Context, c cliConfig, eng *explore.Engine, cache *explore.Cache, cachePath string) error {
	id := c.workerID
	if id == "" {
		host, _ := os.Hostname()
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	fmt.Fprintf(os.Stderr, "worker %s joining %s (campaign %s)\n", id, c.join, eng.CampaignID())
	dial := func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", c.join)
	}
	if c.tlsCert != "" {
		cfg, err := distrib.ClientTLS(c.tlsCert)
		if err != nil {
			return err
		}
		plain := dial
		dial = func(ctx context.Context) (net.Conn, error) {
			conn, err := plain(ctx)
			if err != nil {
				return nil, err
			}
			tc := tls.Client(conn, cfg)
			if err := tc.HandshakeContext(ctx); err != nil {
				conn.Close()
				return nil, err
			}
			return tc, nil
		}
	}
	wopts := distrib.WorkerOptions{
		ID:         id,
		Dial:       dial,
		Token:      c.token,
		BackoffMax: c.maxBackoff,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	if c.chaosLie {
		fmt.Fprintf(os.Stderr, "worker %s: -chaos-lie armed: every exact result will be reported wrong\n", id)
		wopts.MutateOutcome = func(o *explore.JobOutcome) {
			if o.Err != "" || o.Result.Aborted {
				return
			}
			// A dominating near-zero vector: the strongest possible lie,
			// guaranteed to be a front candidate and so always verified by
			// the coordinator at any -verify-rate > 0.
			o.Result.Vec = metrics.Vector{Energy: 1e-9, Time: 1e-9, Accesses: 1, Footprint: 1}
		}
	}
	err := distrib.RunWorker(ctx, eng, wopts)
	interrupted := err != nil && ctx.Err() != nil && errors.Is(err, context.Canceled)
	if err == nil || interrupted {
		if serr := saveCache(cachePath, cache, c.replayCache != ""); serr != nil {
			return serr
		}
	}
	if interrupted {
		fmt.Fprintln(os.Stderr, "interrupted: worker stopped; rerun the same command to rejoin")
		return nil
	}
	if err != nil {
		return err
	}
	st := eng.Stats()
	fmt.Printf("worker %s finished: simulated %d, replayed %d, composed %d, cache hits %d, bound-pruned %d\n",
		id, st.Simulated, st.Replayed, st.Composed, st.CacheHits, st.Pruned)
	return nil
}

// runCoordinator serves a distributed campaign until every job of both
// exploration steps is settled in the engine's cache. On success it
// returns the per-worker stats and leaves the listener serving "done"
// until the process exits, so stragglers drain cleanly; a clean
// interrupt saves the campaign state for resumption and returns
// (nil, nil), mirroring the single-process interrupt path.
func runCoordinator(ctx context.Context, c cliConfig, a apps.App, eng *explore.Engine, cache *explore.Cache, cachePath string) (*explore.DistState, error) {
	ln, err := net.Listen("tcp", c.serve)
	if err != nil {
		return nil, err
	}
	if c.tlsCert != "" {
		cfg, terr := distrib.ServerTLS(c.tlsCert, c.tlsKey)
		if terr != nil {
			ln.Close()
			return nil, terr
		}
		ln = tls.NewListener(ln, cfg)
	}
	coord := distrib.NewCoordinator(a, eng, distrib.Options{
		ShardSize:  c.shardSize,
		LeaseTTL:   c.leaseTTL,
		VerifyRate: c.verifyRate,
		Token:      c.token,
		HedgeAfter: c.hedgeAfter,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	fmt.Fprintf(os.Stderr, "coordinating campaign %s on %s\n", eng.CampaignID(), ln.Addr())
	var guards []string
	if c.tlsCert != "" {
		guards = append(guards, "TLS")
	}
	if c.token != "" {
		guards = append(guards, "token auth")
	}
	if c.verifyRate > 0 {
		guards = append(guards, fmt.Sprintf("spot-check verification of %.3g of results", c.verifyRate))
	}
	if len(guards) > 0 {
		fmt.Fprintf(os.Stderr, "campaign guards: %s\n", strings.Join(guards, ", "))
	}
	if err := coord.Run(ctx, ln); err != nil {
		if ctx.Err() != nil && errors.Is(err, context.Canceled) {
			if serr := saveCache(cachePath, cache, c.replayCache != ""); serr != nil {
				return nil, serr
			}
			if cachePath != "" {
				fmt.Fprintf(os.Stderr, "interrupted: campaign state saved to %s after %d settled jobs; rerun the same command to resume\n",
					cachePath, eng.Settled())
			} else {
				fmt.Fprintln(os.Stderr, "interrupted: no -cache/-replay-cache configured, campaign state not persisted")
			}
			return nil, nil
		}
		ln.Close()
		return nil, err
	}
	// Let polling workers pick up their "done" and leave before this
	// process (and its listener) goes away — a worker that only sees
	// the coordinator vanish cannot tell a finished campaign from a
	// crashed one and would keep redialing.
	drain := 5 * time.Second
	if c.leaseTTL > drain {
		drain = c.leaseTTL
	}
	coord.Drain(drain)
	return coord.DistState(), nil
}

// printWorkerStats renders the per-worker lease, trust and cache-entry
// tallies of a distributed campaign, plus the quarantine repair totals
// when the campaign caught a liar.
func printWorkerStats(dist *explore.DistState) {
	ids := make([]string, 0, len(dist.Workers))
	for id := range dist.Workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	fmt.Println("\ndistributed campaign: per-worker stats:")
	var rows [][]string
	for _, id := range ids {
		w := dist.Workers[id]
		name := id
		if w.Quarantined {
			name += " (QUARANTINED)"
		}
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%d", w.Leased),
			fmt.Sprintf("%d", w.Completed),
			fmt.Sprintf("%d", w.Expired),
			fmt.Sprintf("%d", w.Reassigned),
			fmt.Sprintf("%d", w.JobsSettled),
			fmt.Sprintf("%d", w.JobsRequeued),
			fmt.Sprintf("%d", w.Verified),
			fmt.Sprintf("%d", w.Mismatched),
			fmt.Sprintf("%d/%d", w.HedgesFired, w.HedgesWon),
			fmt.Sprintf("%d", w.EntriesReceived),
			fmt.Sprintf("%d", w.EntriesDeduped),
		})
	}
	fmt.Println(report.Table([]string{"worker", "leased", "completed", "expired", "reassigned", "jobs", "requeued", "verified", "mismatch", "hedges f/w", "entries", "deduped"}, rows))
	if dist.Invalidated > 0 || dist.Recovered > 0 {
		fmt.Printf("quarantine repairs: %d unverified results invalidated and re-queued, %d jobs settled from the coordinator's own verification runs\n",
			dist.Invalidated, dist.Recovered)
	}
	if n := len(dist.Unverified); n > 0 {
		fmt.Printf("%d settled results remain spot-check-unverified; their provenance rides in the campaign checkpoint\n", n)
	}
}

// evaluatePlatforms answers the co-design question for the run's
// recommendation: the best-energy combination evaluated across the named
// platform points by replaying its captured access stream — exact
// results, no re-execution.
func evaluatePlatforms(eng *explore.Engine, r *core.Report, names string) error {
	points, err := platformPoints(names)
	if err != nil {
		return err
	}
	assign := bestAssignment(r)
	if assign == nil {
		return fmt.Errorf("no finished best-energy combination to evaluate")
	}
	cfgs := make([]memsim.Config, len(points))
	for i, p := range points {
		cfgs[i] = p.Config
	}
	start := time.Now()
	vecs, err := eng.EvaluatePlatforms(context.Background(), r.Reference, assign, cfgs)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Printf("\nco-design: best-energy combination (%s) across %d platform designs (%.1fms, all-geometry replay):\n",
		r.BestEnergy.Label, len(points), float64(elapsed.Microseconds())/1000)
	var rows [][]string
	for i, p := range points {
		rows = append(rows, []string{
			p.Name,
			metrics.FormatEnergy(vecs[i].Energy),
			metrics.FormatTime(vecs[i].Time),
			fmt.Sprintf("%.0f", vecs[i].Accesses),
			fmt.Sprintf("%.0fB", vecs[i].Footprint),
		})
	}
	fmt.Println(report.Table([]string{"platform", "energy", "time", "accesses", "footprint"}, rows))
	return nil
}

// platformPoints resolves a comma-separated list of platform names (or
// "all") against the default sweep set.
func platformPoints(names string) ([]sweep.PlatformPoint, error) {
	all := sweep.DefaultPlatforms()
	if names == "all" {
		return all, nil
	}
	byName := make(map[string]sweep.PlatformPoint, len(all))
	known := make([]string, 0, len(all))
	for _, p := range all {
		byName[p.Name] = p
		known = append(known, p.Name)
	}
	var out []sweep.PlatformPoint
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		p, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown platform %q (known: %s)", n, strings.Join(known, ", "))
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no platforms selected")
	}
	return out, nil
}

// bestAssignment recovers the full assignment of the report's
// best-energy combination from the step-1 survivors.
func bestAssignment(r *core.Report) apps.Assignment {
	for _, sv := range r.Step1.Survivors {
		if sv.Label() == r.BestEnergy.Label {
			return sv.Assign
		}
	}
	return nil
}

// loadCache opens the persistent simulation cache. A run must never die
// to cache damage — the cache is an accelerator, not an input — so every
// failure degrades gracefully to a cold start: a missing file is the
// first run, an unusable file is warned about and moved aside to
// <path>.corrupt (preserving the evidence while letting the end-of-run
// save recreate the path), and a partially damaged file loads whatever
// its intact sections hold.
func loadCache(path string) *explore.Cache {
	if path == "" {
		return nil
	}
	cache := explore.NewCache()
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return cache
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ddt-explore: cannot read cache %s (%v); continuing cold\n", path, err)
		return cache
	}
	rep, lerr := cache.LoadReported(f)
	f.Close()
	if lerr != nil {
		aside := corruptAside(path)
		fmt.Fprintf(os.Stderr, "ddt-explore: cache %s is unusable (%v); moving it aside and continuing cold\n", path, lerr)
		if rerr := os.Rename(path, aside); rerr != nil {
			fmt.Fprintf(os.Stderr, "ddt-explore: could not move the unusable cache aside: %v\n", rerr)
		} else {
			fmt.Fprintf(os.Stderr, "ddt-explore: unusable cache preserved at %s\n", aside)
		}
		return explore.NewCache()
	}
	for _, s := range rep.Dropped {
		fmt.Fprintf(os.Stderr, "ddt-explore: cache section %q failed its checksum and was dropped; its work will be recomputed\n", s)
	}
	if rep.Truncated {
		fmt.Fprintf(os.Stderr, "ddt-explore: cache %s ends mid-write (interrupted save?); loaded everything before the tear\n", path)
	}
	stats := cache.Stats()
	fmt.Fprintf(os.Stderr, "loaded %d cached simulations (%d access streams, %d role lanes, %d schedules, %d reuse profiles) from %s\n",
		stats.Entries, stats.Streams, stats.Lanes, stats.Schedules, stats.ReuseProfiles, path)
	return cache
}

// corruptAside picks the path an unusable cache is preserved at:
// <path>.corrupt, or the first free numbered suffix (.corrupt.1, …)
// when earlier corruption evidence already occupies it — a second
// event must never overwrite the first's evidence.
func corruptAside(path string) string {
	aside := path + ".corrupt"
	for n := 1; ; n++ {
		if _, err := os.Lstat(aside); os.IsNotExist(err) {
			return aside
		}
		aside = fmt.Sprintf("%s.corrupt.%d", path, n)
	}
}

// saveCache persists the cache for the next run; withStreams additionally
// persists the captured access streams and per-role sub-streams
// (-replay-cache). The write is atomic and durable (temp file in the
// destination directory, fsync, rename, directory fsync, bounded
// retries), so an interrupt or crash mid-save can never destroy the
// previous cache.
func saveCache(path string, cache *explore.Cache, withStreams bool) error {
	if path == "" || cache == nil {
		return nil
	}
	if err := cache.SaveFile(path, withStreams); err != nil {
		return err
	}
	stats := cache.Stats()
	if withStreams {
		// The file's own size: StreamBytes counts what the tiers hold
		// resident, decoded lanes included, not what was written.
		info, err := os.Stat(path)
		if err != nil {
			return err
		}
		fmt.Printf("simulation cache saved to %s (%d entries, %d access streams, %d role lanes, %d schedules, %d reuse profiles, %dKB file)\n",
			path, stats.Entries, stats.Streams, stats.Lanes, stats.Schedules, stats.ReuseProfiles, info.Size()>>10)
	} else {
		fmt.Printf("simulation cache saved to %s (%d entries)\n", path, stats.Entries)
	}
	return nil
}
