package distrib

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/apps/netapps"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/faultio"
)

// hangOnResults hangs a worker connection at the header of its first
// results frame, until the harness releases its hangs. Unlike a hang
// on the nth read, it always strikes while a lease is held: the worker
// may first be told to wait while the coordinator has no jobs queued.
type hangOnResults struct {
	*faultio.Conn
	writes int
	armed  bool
}

func (c *hangOnResults) Write(p []byte) (int, error) {
	c.writes++
	if !c.armed && len(p) == frameHeaderLen && p[0] == msgResults {
		c.armed = true
		c.HangN(faultio.ConnWrite, c.writes)
	}
	return c.Conn.Write(p)
}

func app(t *testing.T, name string) apps.App {
	t.Helper()
	a, err := netapps.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// survivorLabels renders a step-1 survivor set as its sorted label set
// — the membership the distributed path must reproduce bit-identically.
func survivorLabels(rs []explore.Result) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Label()
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// faultScript wraps a worker's nth (1-based) connection with injected
// faults; connections it returns unchanged behave normally.
type faultScript func(c *faultio.Conn, attempt int) net.Conn

// campaignHarness runs a coordinator plus N in-process workers over
// real localhost TCP, with optional per-worker fault scripts and
// kill-after durations, and returns once the campaign completes.
type campaignHarness struct {
	app       apps.App
	opts      explore.Options
	copts     Options
	workers   int
	scripts   map[int]faultScript
	killTime  map[int]time.Duration // cancel the worker's context after this
	jobDelay  time.Duration
	jobDelays map[int]time.Duration             // per-worker override of jobDelay
	tokens    map[int]string                    // per-worker hello token
	mutate    map[int]func(*explore.JobOutcome) // per-worker result corruption (lying worker)
	connWrap  map[int]func(net.Conn) net.Conn   // applied to dialed conns after scripts (TLS, chaos plans)
	lnWrap    func(net.Listener) net.Listener   // wraps the coordinator listener (TLS)
	onExit    func(worker int, err error)       // observes each worker's RunWorker result
}

func (h campaignHarness) run(t *testing.T) (*Coordinator, *explore.Engine) {
	t.Helper()
	ceng := explore.NewEngine(h.app, h.opts)
	coord := NewCoordinator(h.app, ceng, h.copts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	serveLn := net.Listener(ln)
	if h.lnWrap != nil {
		serveLn = h.lnWrap(serveLn)
	}

	runErr := make(chan error, 1)
	go func() { runErr <- coord.Run(context.Background(), serveLn) }()

	var wg sync.WaitGroup
	var releases []func()
	var relMu sync.Mutex
	for i := 0; i < h.workers; i++ {
		weng := explore.NewEngine(h.app, h.opts)
		wctx := context.Background()
		if d, ok := h.killTime[i]; ok {
			var cancel context.CancelFunc
			wctx, cancel = context.WithTimeout(wctx, d)
			defer cancel()
		}
		var attempts atomic.Int64
		i := i
		dial := func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			c, err := d.DialContext(ctx, "tcp", addr)
			if err != nil {
				return nil, err
			}
			n := int(attempts.Add(1))
			if s := h.scripts[i]; s != nil {
				fc := faultio.NewConn(c)
				out := s(fc, n)
				relMu.Lock()
				releases = append(releases, fc.ReleaseHang)
				relMu.Unlock()
				c = out
			}
			if w := h.connWrap[i]; w != nil {
				c = w(c)
			}
			return c, nil
		}
		delay := h.jobDelay
		if d, ok := h.jobDelays[i]; ok {
			delay = d
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := RunWorker(wctx, weng, WorkerOptions{
				ID:            fmt.Sprintf("w%d", i),
				Dial:          dial,
				BackoffMin:    10 * time.Millisecond,
				BackoffMax:    200 * time.Millisecond,
				ReadTimeout:   5 * time.Second,
				JobDelay:      delay,
				Token:         h.tokens[i],
				MutateOutcome: h.mutate[i],
			})
			if h.onExit != nil {
				h.onExit(i, err)
			}
		}()
	}

	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("coordinator: %v", err)
		}
	case <-time.After(3 * time.Minute):
		t.Fatal("distributed campaign never completed")
	}
	// Unblock any scripted hang, let polling workers receive done, then
	// close the listener and collect every worker goroutine.
	relMu.Lock()
	for _, r := range releases {
		r()
	}
	relMu.Unlock()
	coord.Drain(20 * time.Second)
	ln.Close()
	wg.Wait()
	return coord, ceng
}

// TestDistributedFrontMatchesSingleProcess is the tentpole pin:
// coordinator plus N workers over injectable localhost connections —
// including workers killed mid-shard, frames torn mid-message, and
// leases expiring into reassignment — always settle a cache whose warm
// rerun yields a survivor front bit-identical in membership to a
// single-process run, on DRR (K=3) and FlowMon at K=5 (the 10^5
// combination space).
func TestDistributedFrontMatchesSingleProcess(t *testing.T) {
	cases := []struct {
		name     string
		app      string
		opts     explore.Options
		copts    Options
		workers  int
		scripts  map[int]faultScript
		killTime map[int]time.Duration
		jobDelay time.Duration
		expired  bool // assert at least one lease expired
	}{
		{
			name:    "DRR-K3/clean",
			app:     "DRR",
			opts:    explore.Options{TracePackets: 200, DominantK: 3, BoundPrune: true},
			copts:   Options{ShardSize: 16, LeaseTTL: time.Second},
			workers: 2,
		},
		{
			name:    "DRR-K3/worker-killed-mid-shard",
			app:     "DRR",
			opts:    explore.Options{TracePackets: 200, DominantK: 3, BoundPrune: true},
			copts:   Options{ShardSize: 16, LeaseTTL: 300 * time.Millisecond},
			workers: 3,
			scripts: map[int]faultScript{
				2: func(c *faultio.Conn, attempt int) net.Conn {
					if attempt == 1 {
						// The connection dies mid-frame somewhere in the
						// first shard report; the worker's context dies
						// shortly after — a crash, not a goodbye.
						return c.TearWriteAfter(1500, nil)
					}
					return c
				},
			},
			killTime: map[int]time.Duration{2: 600 * time.Millisecond},
			jobDelay: time.Millisecond,
		},
		{
			name:    "DRR-K3/frames-torn-both-directions",
			app:     "DRR",
			opts:    explore.Options{TracePackets: 200, DominantK: 3, BoundPrune: true},
			copts:   Options{ShardSize: 16, LeaseTTL: 500 * time.Millisecond},
			workers: 2,
			scripts: map[int]faultScript{
				0: func(c *faultio.Conn, attempt int) net.Conn {
					if attempt == 1 {
						return c.TearWriteAfter(1800, nil)
					}
					return c
				},
				1: func(c *faultio.Conn, attempt int) net.Conn {
					if attempt == 1 {
						// Torn mid-lease on the read side: the worker
						// sees a corrupt or short frame and reconnects.
						return c.TearReadAfter(900, nil)
					}
					return c
				},
			},
			jobDelay: time.Millisecond,
		},
		{
			name: "DRR-K3/lease-expires-and-reassigns",
			app:  "DRR",
			opts: explore.Options{TracePackets: 200, DominantK: 3, BoundPrune: true},
			// Hedging off: an adaptive hedge (twice the p95 shard
			// latency) can re-lease the hung shard before its TTL
			// expires it, and this case tests expiry.
			// TestHedgeExpiryNoDoubleRequeue covers hedging.
			copts:   Options{ShardSize: 16, LeaseTTL: 200 * time.Millisecond, HedgeAfter: -1},
			workers: 2,
			scripts: map[int]faultScript{
				0: func(c *faultio.Conn, attempt int) net.Conn {
					if attempt == 1 {
						// Hang sending the first shard's results: the
						// lease is granted but never reported — a
						// partitioned peer.
						return &hangOnResults{Conn: c}
					}
					return c
				},
			},
			jobDelay: time.Millisecond,
			expired:  true,
		},
		{
			name:    "FlowMon-K5/clean",
			app:     "FlowMon",
			opts:    explore.Options{TracePackets: 50, DominantK: 5, BoundPrune: true},
			copts:   Options{ShardSize: 1024, LeaseTTL: 10 * time.Second},
			workers: 3,
		},
		{
			name:    "FlowMon-K5/torn-worker",
			app:     "FlowMon",
			opts:    explore.Options{TracePackets: 50, DominantK: 5, BoundPrune: true},
			copts:   Options{ShardSize: 1024, LeaseTTL: 2 * time.Second},
			workers: 3,
			scripts: map[int]faultScript{
				0: func(c *faultio.Conn, attempt int) net.Conn {
					if attempt == 1 {
						return c.TearWriteAfter(4000, nil)
					}
					return c
				},
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			a := app(t, tc.app)

			// Single-process reference on a fresh engine.
			refEng := explore.NewEngine(a, tc.opts)
			s1ref, _, err := refEng.Explore(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			want := survivorLabels(s1ref.Survivors)

			h := campaignHarness{
				app: a, opts: tc.opts, copts: tc.copts,
				workers: tc.workers, scripts: tc.scripts,
				killTime: tc.killTime, jobDelay: tc.jobDelay,
			}
			coord, ceng := h.run(t)

			// The distributed campaign's live front already matches.
			gotLive := make([]string, 0)
			for _, p := range coord.frontSnapshot() {
				gotLive = append(gotLive, p.Label)
			}
			sort.Strings(gotLive)
			if !equalStrings(gotLive, want) {
				t.Errorf("distributed live front %v, want %v", gotLive, want)
			}

			// And the warm rerun over the merged cache — what the CLI
			// reports from — reproduces the survivor set too.
			s1d, _, err := ceng.Explore(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got := survivorLabels(s1d.Survivors); !equalStrings(got, want) {
				t.Errorf("warm-rerun survivors %v, want %v", got, want)
			}

			dist := coord.DistState()
			if tc.expired {
				expired := int64(0)
				for _, w := range dist.Workers {
					expired += w.Expired
				}
				if expired == 0 {
					t.Error("expected at least one expired lease")
				}
			}
			if len(dist.Workers) == 0 {
				t.Error("no workers recorded in DistState")
			}
		})
	}
}

// TestDistributedReportMatchesSingleProcess compares the full
// methodology report — cross-configuration Pareto set included —
// between a distributed campaign's warm rerun and an ordinary
// single-process run.
func TestDistributedReportMatchesSingleProcess(t *testing.T) {
	a := app(t, "DRR")
	opts := explore.Options{TracePackets: 200, DominantK: 3, BoundPrune: true}

	refEng := explore.NewEngine(a, opts)
	ref, err := core.Methodology{App: a, Opts: opts, Engine: refEng}.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	h := campaignHarness{
		app: a, opts: opts,
		copts:   Options{ShardSize: 16, LeaseTTL: time.Second},
		workers: 2,
	}
	_, ceng := h.run(t)
	got, err := core.Methodology{App: a, Opts: opts, Engine: ceng}.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if len(got.ParetoSet) != len(ref.ParetoSet) {
		t.Fatalf("distributed Pareto set has %d points, single-process %d", len(got.ParetoSet), len(ref.ParetoSet))
	}
	for i := range ref.ParetoSet {
		if got.ParetoSet[i].Label != ref.ParetoSet[i].Label || got.ParetoSet[i].Vec != ref.ParetoSet[i].Vec {
			t.Errorf("Pareto point %d: distributed %v %v, single-process %v %v",
				i, got.ParetoSet[i].Label, got.ParetoSet[i].Vec, ref.ParetoSet[i].Label, ref.ParetoSet[i].Vec)
		}
	}
	if got.EnergySaving != ref.EnergySaving || got.TimeSaving != ref.TimeSaving {
		t.Errorf("headline savings differ: distributed (%v, %v), single-process (%v, %v)",
			got.EnergySaving, got.TimeSaving, ref.EnergySaving, ref.TimeSaving)
	}
}

// TestDuplicateResultMergeIdempotent drives the wire protocol by hand
// and reports the same shard twice: the second merge must settle
// nothing, leave the front untouched, and still ack — the first-
// settled-wins contract expiry-reassignment correctness rests on.
func TestDuplicateResultMergeIdempotent(t *testing.T) {
	a := app(t, "DRR")
	opts := explore.Options{TracePackets: 200, DominantK: 2, BoundPrune: true}
	ceng := explore.NewEngine(a, opts)
	coord := NewCoordinator(a, ceng, Options{ShardSize: 8, LeaseTTL: 5 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	runErr := make(chan error, 1)
	go func() { runErr <- coord.Run(context.Background(), ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	expect := func(want byte) []byte {
		t.Helper()
		id, payload, err := readFrame(br)
		if err != nil {
			t.Fatalf("reading %s: %v", msgName(want), err)
		}
		if id != want {
			t.Fatalf("got %s, want %s", msgName(id), msgName(want))
		}
		return payload
	}

	if err := writeMsg(conn, msgHello, hello{Worker: "raw", Proto: ProtoVersion, Campaign: ceng.CampaignID()}); err != nil {
		t.Fatal(err)
	}
	expect(msgWelcome)

	weng := explore.NewEngine(a, opts)
	cursor := explore.NewDeltaCursor()
	checked := false
	for done := false; !done; {
		if err := writeMsg(conn, msgLeaseReq, leaseReq{Worker: "raw"}); err != nil {
			t.Fatal(err)
		}
		id, payload, err := readFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		switch id {
		case msgDone:
			done = true
		case msgWait:
			time.Sleep(10 * time.Millisecond)
		case msgLease:
			var l lease
			if err := decodeMsg(id, payload, &l); err != nil {
				t.Fatal(err)
			}
			rg := weng.NewRemoteGuard(l.Front)
			rm := resultsMsg{Worker: "raw", LeaseID: l.ID}
			for _, spec := range l.Jobs {
				rm.Outcomes = append(rm.Outcomes, weng.ResolveJob(spec, rg))
			}
			rm.Delta = weng.Cache().ExportDelta(cursor)
			if err := writeMsg(conn, msgResults, rm); err != nil {
				t.Fatal(err)
			}
			expect(msgAck)
			if !checked {
				checked = true
				settled := ceng.Settled()
				front := coord.frontSnapshot()
				// Report the identical shard again (late duplicate from
				// a reassigned lease): merged as a pure no-op.
				if err := writeMsg(conn, msgResults, rm); err != nil {
					t.Fatal(err)
				}
				expect(msgAck)
				if got := ceng.Settled(); got != settled {
					t.Fatalf("duplicate merge advanced the watermark: %d -> %d", settled, got)
				}
				refront := coord.frontSnapshot()
				if len(refront) != len(front) {
					t.Fatalf("duplicate merge changed the front: %d -> %d points", len(front), len(refront))
				}
			}
		default:
			t.Fatalf("unexpected %s", msgName(id))
		}
	}
	if err := <-runErr; err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if !checked {
		t.Fatal("campaign completed without ever granting a lease")
	}

	// The end state is still the single-process front.
	s1ref, _, err := explore.NewEngine(a, opts).Explore(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s1d, _, err := ceng.Explore(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := survivorLabels(s1d.Survivors), survivorLabels(s1ref.Survivors); !equalStrings(got, want) {
		t.Fatalf("front after duplicate merges %v, want %v", got, want)
	}
}

// TestCoordinatorResumesFromCheckpoint kills a coordinator mid-campaign
// (context cancellation after the first persisted checkpoint), persists
// its cache, and restarts a fresh coordinator from the loaded file: the
// warm pre-pass must settle everything the dead campaign proved, the
// workers redial through their backoff into the new incarnation, and
// the final front must still match single-process.
func TestCoordinatorResumesFromCheckpoint(t *testing.T) {
	a := app(t, "DRR")
	path := filepath.Join(t.TempDir(), "coord.replay")

	mkOpts := func(cache *explore.Cache) explore.Options {
		return explore.Options{
			TracePackets: 200, DominantK: 3, BoundPrune: true,
			Cache: cache, CheckpointEvery: 50,
		}
	}

	// First incarnation: cancel as soon as a checkpoint fires.
	cache1 := explore.NewCache()
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	opts1 := mkOpts(cache1)
	opts1.Checkpoint = func(explore.Checkpoint) { cancel1() }
	ceng1 := explore.NewEngine(a, opts1)
	coord1 := NewCoordinator(a, ceng1, Options{ShardSize: 8, LeaseTTL: time.Second})
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// Workers dial whatever address the current coordinator listens on,
	// so they ride the restart on their ordinary retry path.
	var addr atomic.Value
	addr.Store(ln1.Addr().String())
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	var wg sync.WaitGroup
	workerOpts := explore.Options{TracePackets: 200, DominantK: 3, BoundPrune: true}
	for i := 0; i < 2; i++ {
		weng := explore.NewEngine(a, workerOpts)
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			RunWorker(wctx, weng, WorkerOptions{
				ID: fmt.Sprintf("w%d", i),
				Dial: func(ctx context.Context) (net.Conn, error) {
					var d net.Dialer
					return d.DialContext(ctx, "tcp", addr.Load().(string))
				},
				BackoffMin:  10 * time.Millisecond,
				BackoffMax:  250 * time.Millisecond,
				ReadTimeout: 5 * time.Second,
				JobDelay:    time.Millisecond,
			})
		}()
	}

	err = coord1.Run(ctx1, ln1)
	if err == nil {
		t.Fatal("first coordinator completed before the kill; raise the job space or lower CheckpointEvery")
	}
	if ctx1.Err() == nil {
		t.Fatalf("first coordinator died of something other than the kill: %v", err)
	}
	ln1.Close()
	if err := cache1.SaveFile(path, true); err != nil {
		t.Fatal(err)
	}
	ck, ok := cache1.Checkpoint()
	if !ok || ck.Settled == 0 {
		t.Fatalf("no usable checkpoint after the kill (ok=%v settled=%d)", ok, ck.Settled)
	}

	// Second incarnation: fresh cache loaded from the file.
	cache2 := explore.NewCache()
	if _, err := cache2.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	ceng2 := explore.NewEngine(a, mkOpts(cache2))
	coord2 := NewCoordinator(a, ceng2, Options{ShardSize: 8, LeaseTTL: time.Second})
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr.Store(ln2.Addr().String())
	runErr := make(chan error, 1)
	go func() { runErr <- coord2.Run(context.Background(), ln2) }()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("restarted coordinator: %v", err)
		}
	case <-time.After(3 * time.Minute):
		t.Fatal("restarted campaign never completed")
	}
	// The warm pre-pass, not the workers, must have answered at least
	// the checkpointed watermark's worth of jobs.
	if got := ceng2.Settled(); got < ck.Settled {
		t.Errorf("restart settled %d jobs, checkpoint had proven %d", got, ck.Settled)
	}
	coord2.Drain(20 * time.Second)
	ln2.Close()
	wcancel()
	wg.Wait()

	s1ref, _, err := explore.NewEngine(a, workerOpts).Explore(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s1d, _, err := ceng2.Explore(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := survivorLabels(s1d.Survivors), survivorLabels(s1ref.Survivors); !equalStrings(got, want) {
		t.Fatalf("front after coordinator restart %v, want %v", got, want)
	}
}

// TestFrameCorruptionDetected pins the framing: flipping any byte of a
// written frame must fail the read, never decode garbage.
func TestFrameCorruptionDetected(t *testing.T) {
	var buf []byte
	w := writerFunc(func(p []byte) (int, error) { buf = append(buf, p...); return len(p), nil })
	if err := writeMsg(w, msgHello, hello{Worker: "w", Proto: 1, Campaign: "c"}); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0x40
		id, payload, err := readFrame(bufio.NewReader(readerOf(mut)))
		if err != nil {
			continue // detected at the frame layer
		}
		var h hello
		if decodeMsg(id, payload, &h) == nil && id == msgHello && h.Worker == "w" && h.Proto == 1 && h.Campaign == "c" {
			t.Fatalf("flipping byte %d went entirely undetected", i)
		}
	}
	// And the pristine frame still round-trips.
	id, payload, err := readFrame(bufio.NewReader(readerOf(buf)))
	if err != nil {
		t.Fatal(err)
	}
	var h hello
	if err := decodeMsg(id, payload, &h); err != nil {
		t.Fatal(err)
	}
	if h.Worker != "w" || h.Campaign != "c" {
		t.Fatalf("round-trip mangled the message: %+v", h)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

type byteReader struct {
	data []byte
	off  int
}

func readerOf(b []byte) *byteReader { return &byteReader{data: b} }

func (r *byteReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, fmt.Errorf("EOF")
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// TestCampaignMismatchRejected pins admission: a worker exploring a
// different job space must be refused permanently, not fed shards.
func TestCampaignMismatchRejected(t *testing.T) {
	a := app(t, "DRR")
	opts := explore.Options{TracePackets: 200, DominantK: 2, BoundPrune: true}
	ceng := explore.NewEngine(a, opts)
	coord := NewCoordinator(a, ceng, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- coord.Run(ctx, ln) }()
	t.Cleanup(func() { cancel(); <-runErr })

	// Same app, different trace length: a different campaign.
	weng := explore.NewEngine(a, explore.Options{TracePackets: 100, DominantK: 2, BoundPrune: true})
	err = RunWorker(context.Background(), weng, WorkerOptions{
		ID: "misfit",
		Dial: func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", ln.Addr().String())
		},
	})
	if err == nil {
		t.Fatal("mismatched worker was admitted")
	}
}
