package explore_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/netapps"
	"repro/internal/explore"
	"repro/internal/faultio"
)

// resumeModes are the three step-1 strategies a campaign can be
// interrupted under — the guarded flat scan, the branch-and-bound
// search and two-phase screening; resumption must be front-identical
// for each.
func resumeModes() []struct {
	name string
	opts explore.Options
} {
	return []struct {
		name string
		opts explore.Options
	}{
		{"flat-early-abort", explore.Options{TracePackets: 200, EarlyAbort: true}},
		{"branch-and-bound", explore.Options{TracePackets: 200, BoundPrune: true}},
		{"sampled-screening", explore.Options{TracePackets: 200, SampleRate: explore.DefaultSampleRate}},
	}
}

// TestResumedFrontMatchesUninterrupted is the acceptance pin of
// checkpoint/resume: for every case study and every exploration
// strategy, a campaign killed at a mid-flight checkpoint and resumed
// from the persisted snapshot produces the identical survivor front
// and cross-configuration Pareto front as an uninterrupted run, with
// the resumed run's accounting still covering the whole space.
func TestResumedFrontMatchesUninterrupted(t *testing.T) {
	for _, a := range boundApps(t) {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			t.Parallel()
			for _, m := range resumeModes() {
				m := m
				t.Run(m.name, func(t *testing.T) {
					testResumedFront(t, a, m.opts, 5, 2)
				})
			}
		})
	}
}

// TestResumedBranchBoundK5Front pins resumption at the tentpole scale:
// FlowMon's full 5-role, 10^5-combination branch-and-bound campaign,
// killed mid-search (with bulk subtree cuts advancing the watermark by
// thousands of jobs at a time), resumes to the identical front.
func TestResumedBranchBoundK5Front(t *testing.T) {
	if testing.Short() {
		t.Skip("the 10^5-combination space is not short")
	}
	a, err := netapps.ByName("FlowMon")
	if err != nil {
		t.Fatal(err)
	}
	testResumedFront(t, a, explore.Options{TracePackets: 50, DominantK: 5, BoundPrune: true}, 2000, 2)
}

// testResumedFront runs the uninterrupted reference campaign, a killed
// campaign (cancelled from its killAfter'th checkpoint, after
// snapshotting the cache exactly as the CLI's checkpoint persistence
// does), and a resumed campaign warm-started from the snapshot — then
// compares the fronts and checks the resumed accounting.
func testResumedFront(t *testing.T, a apps.App, opts explore.Options, every, killAfter int) {
	ctx := context.Background()

	refEng := explore.NewEngine(a, opts)
	refS1, refS2, err := refEng.Explore(ctx)
	if err != nil {
		t.Fatal(err)
	}

	kctx, cancel := context.WithCancel(ctx)
	defer cancel()
	cache := explore.NewCache()
	var (
		snap  []byte
		fired int
	)
	kopts := opts
	kopts.Cache = cache
	kopts.CheckpointEvery = every
	kopts.Checkpoint = func(ck explore.Checkpoint) {
		fired++
		if fired != killAfter {
			return
		}
		var buf bytes.Buffer
		if err := cache.SaveWithStreams(&buf); err != nil {
			t.Errorf("checkpoint snapshot: %v", err)
		}
		snap = buf.Bytes()
		cancel()
	}
	kEng := explore.NewEngine(a, kopts)
	_, _, kerr := kEng.Explore(kctx)
	if snap == nil {
		t.Fatalf("campaign completed after %d checkpoints without reaching the kill point", fired)
	}
	if kerr != nil && !errors.Is(kerr, context.Canceled) {
		t.Fatalf("killed campaign failed with %v, want context cancellation", kerr)
	}

	loaded := explore.NewCache()
	if err := loaded.Load(bytes.NewReader(snap)); err != nil {
		t.Fatalf("loading checkpoint snapshot: %v", err)
	}
	ck, ok := loaded.Checkpoint()
	if !ok {
		t.Fatal("checkpoint snapshot carries no campaign checkpoint")
	}
	if ck.App != a.Name() {
		t.Fatalf("checkpoint names campaign %q, want %q", ck.App, a.Name())
	}
	if ck.Done {
		t.Fatal("mid-flight checkpoint marked Done")
	}
	if ck.Settled <= 0 {
		t.Fatalf("mid-flight checkpoint settled watermark %d", ck.Settled)
	}

	ropts := opts
	ropts.Cache = loaded
	rEng := explore.NewEngine(a, ropts)
	if got := rEng.ExploreContext(); got != ck.Ctx {
		t.Fatalf("resumed engine context %q, checkpoint pinned %q", got, ck.Ctx)
	}
	rS1, rS2, err := rEng.Explore(ctx)
	if err != nil {
		t.Fatal(err)
	}

	sameResults(t, "resumed survivors", rS1.Survivors, refS1.Survivors)
	samePoints(t, "resumed cross-config front", liveFront(rS2.Results), liveFront(refS2.Results))

	// The resumed run still accounts for the complete combination
	// space: nothing the crashed run settled goes missing, nothing is
	// counted twice.
	if opts.SampleRate > 0 {
		if rS1.Verified+rS1.Screened+rS1.Pruned+rS1.Aborted != rS1.Simulations {
			t.Fatalf("resumed screening accounts for %d+%d+%d+%d of %d combinations",
				rS1.Verified, rS1.Screened, rS1.Pruned, rS1.Aborted, rS1.Simulations)
		}
	} else {
		bulk := rS1.Pruned - matPruned(rS1.Results)
		if bulk < 0 {
			t.Fatalf("resumed step 1 reports %d pruned but %d pruned results", rS1.Pruned, matPruned(rS1.Results))
		}
		if len(rS1.Results)+bulk != rS1.Simulations {
			t.Fatalf("resumed step 1 accounts for %d materialized + %d bulk-cut of %d combinations",
				len(rS1.Results), bulk, rS1.Simulations)
		}
		st := rEng.Stats()
		jobs := rS1.Simulations + rS2.Simulations
		accounted := st.Simulated + st.Replayed + st.Composed + st.Profiled +
			st.CacheHits + st.Aborted + st.Pruned
		if accounted != jobs {
			t.Fatalf("resumed stats account for %d of %d jobs: %+v", accounted, jobs, st)
		}
	}

	rEng.FinishCampaign()
	final, ok := rEng.LastCheckpoint()
	if !ok || !final.Done {
		t.Fatalf("finished campaign's terminal checkpoint: %+v (ok=%v)", final, ok)
	}
	if got, _ := loaded.Checkpoint(); !got.Done {
		t.Fatal("terminal checkpoint not recorded in the cache")
	}
	t.Logf("killed at %d settled jobs (checkpoint %d); resumed with %d cache hits to a %d-point front",
		ck.Settled, killAfter, rEng.Stats().CacheHits, len(refS1.Survivors))
}

// cacheFrame is one parsed frame of the sectioned cache format, as the
// crash tests see it from outside the package: header at start,
// payload at payloadOff, trailing CRC ending at end.
type cacheFrame struct {
	id         byte
	start      int
	payloadOff int
	payloadLen int
	end        int
}

const endFrameID = 0xFF

// frameSectionNames mirrors the on-disk section ids; values are part
// of the format and pinned here against accidental renumbering. Id 6
// is retired.
var frameSectionNames = map[byte]string{
	1: "results",
	2: "streams",
	3: "lanes",
	4: "schedules",
	5: "reuse-profiles",
	7: "checkpoint",
}

// parseCacheFrames walks a sectioned cache image frame by frame.
func parseCacheFrames(t *testing.T, data []byte) []cacheFrame {
	t.Helper()
	const magicLen = 8 + 4
	const hdrLen = 1 + 8 + 4
	if len(data) < magicLen || string(data[:8]) != "DDTCACHE" {
		t.Fatalf("not a sectioned cache image (%d bytes)", len(data))
	}
	off := magicLen
	var frames []cacheFrame
	for {
		if off+hdrLen > len(data) {
			t.Fatalf("image ends mid-header at offset %d", off)
		}
		ln := int(binary.LittleEndian.Uint64(data[off+1 : off+9]))
		f := cacheFrame{
			id:         data[off],
			start:      off,
			payloadOff: off + hdrLen,
			payloadLen: ln,
			end:        off + hdrLen + ln + 4,
		}
		if f.end > len(data) {
			t.Fatalf("frame %d at offset %d overruns the image", f.id, f.start)
		}
		frames = append(frames, f)
		off = f.end
		if f.id == endFrameID {
			if off != len(data) {
				t.Fatalf("%d trailing bytes after the end marker", len(data)-off)
			}
			return frames
		}
	}
}

// crashTestCache builds a cache with real campaign content in every
// store the bound-guided path uses — results, lanes, schedules, lane
// profiles — plus a terminal checkpoint.
func crashTestCache(t *testing.T) *explore.Cache {
	t.Helper()
	a, err := netapps.ByName("IPchains")
	if err != nil {
		t.Fatal(err)
	}
	cache := explore.NewCache()
	eng := explore.NewEngine(a, explore.Options{TracePackets: 100, BoundPrune: true, Cache: cache})
	if _, err := eng.Step1(context.Background(), explore.Configs(a)[0]); err != nil {
		t.Fatal(err)
	}
	eng.FinishCampaign()
	return cache
}

// TestSaveFileCrashPointSweep kills the atomic cache save at every
// framing boundary and at fuzzed offsets in between. Two guarantees
// are under test: a torn SaveFile leaves the destination holding the
// previous complete file (and no temp litter), and loading the torn
// image a crash would have left behind never panics — every section
// whose frame completed before the tear loads, the tail is reported as
// truncation, and a tear inside the 12-byte preamble is a clean error.
func TestSaveFileCrashPointSweep(t *testing.T) {
	cache := crashTestCache(t)
	var buf bytes.Buffer
	if err := cache.SaveWithStreams(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	frames := parseCacheFrames(t, good)

	points := map[int]bool{0: true, 4: true, 8: true, 11: true}
	for _, f := range frames {
		points[f.start] = true
		points[f.payloadOff] = true
		points[f.end-2] = true // mid payload-CRC
		points[f.end] = true
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 120; i++ {
		points[rng.Intn(len(good))] = true
	}

	for n := range points {
		prefix := good[:n]
		fresh := explore.NewCache()
		rep, err := fresh.LoadReported(bytes.NewReader(prefix))
		if n < 12 {
			// Preamble torn off: the image is not recognizably a cache
			// at all, which must be a clean error, never a panic.
			if err == nil {
				t.Fatalf("prefix of %d bytes loaded without error", n)
			}
			continue
		}
		if err != nil {
			t.Fatalf("prefix of %d of %d bytes: unexpected load error %v", n, len(good), err)
		}
		complete := 0
		for _, f := range frames {
			if f.id != endFrameID && f.end <= n {
				complete++
			}
		}
		if len(rep.Sections) != complete {
			t.Fatalf("prefix of %d bytes loaded %d sections %v, want the %d complete frames",
				n, len(rep.Sections), rep.Sections, complete)
		}
		if wantTrunc := n < len(good); rep.Truncated != wantTrunc {
			t.Fatalf("prefix of %d of %d bytes: Truncated=%v, want %v", n, len(good), rep.Truncated, wantTrunc)
		}
		if len(rep.Dropped) != 0 {
			t.Fatalf("prefix of %d bytes dropped sections %v: a tear is truncation, not corruption", n, rep.Dropped)
		}
	}

	// Atomicity: at every framing boundary, a save torn mid-write must
	// fail (after exhausting its retries), keep the previous complete
	// file byte-identical, and leave no temp files behind.
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.bin")
	boundaries := []int{0, 6}
	for _, f := range frames {
		boundaries = append(boundaries, f.start, f.end-2)
	}
	for _, n := range boundaries {
		if err := os.WriteFile(path, good, 0o644); err != nil {
			t.Fatal(err)
		}
		fs := faultio.NewInjectFS(faultio.OS{}).TearAfter(int64(n), errors.New("injected ENOSPC"))
		if err := cache.SaveFileFS(fs, path, true); err == nil {
			t.Fatalf("save torn at byte %d reported success", n)
		}
		onDisk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(onDisk, good) {
			t.Fatalf("save torn at byte %d disturbed the destination (%d bytes, want %d)", n, len(onDisk), len(good))
		}
		if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(left) != 0 {
			t.Fatalf("save torn at byte %d left temp files %v", n, left)
		}
		if fs.Injected() == 0 {
			t.Fatalf("tear at byte %d never fired", n)
		}
	}
}

// TestLoadSalvagesAroundCorruptSection flips bytes in a saved cache
// image: payload corruption drops exactly the damaged section (every
// other section still loads, so a damaged streams store can never take
// the results store down with it), and header corruption truncates the
// scan at the damaged frame with everything before it loaded.
func TestLoadSalvagesAroundCorruptSection(t *testing.T) {
	cache := crashTestCache(t)
	var buf bytes.Buffer
	if err := cache.SaveWithStreams(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	frames := parseCacheFrames(t, good)
	fullStats := func() explore.CacheStats {
		c := explore.NewCache()
		if err := c.Load(bytes.NewReader(good)); err != nil {
			t.Fatal(err)
		}
		return c.Stats()
	}()
	if fullStats.Entries == 0 || fullStats.Lanes == 0 || fullStats.Schedules == 0 {
		t.Fatalf("crash-test cache too empty to be probative: %+v", fullStats)
	}
	// The sweep below corrupts every saved frame; pin that those are
	// exactly the sections a save still writes.
	var saved []string
	for _, f := range frames {
		if f.id != endFrameID {
			saved = append(saved, frameSectionNames[f.id])
		}
	}
	if want := []string{"results", "streams", "lanes", "schedules", "reuse-profiles", "checkpoint"}; !slices.Equal(saved, want) {
		t.Fatalf("saved sections %v, want %v", saved, want)
	}

	for _, f := range frames {
		if f.id == endFrameID {
			continue
		}
		name := frameSectionNames[f.id]
		if name == "" {
			t.Fatalf("unknown section id %d in saved image", f.id)
		}
		data := append([]byte(nil), good...)
		data[f.payloadOff+f.payloadLen/2] ^= 0xA5
		fresh := explore.NewCache()
		rep, err := fresh.LoadReported(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("corrupt %s payload: load error %v, want salvage", name, err)
		}
		if rep.Truncated {
			t.Fatalf("corrupt %s payload reported as truncation", name)
		}
		if len(rep.Dropped) != 1 || rep.Dropped[0] != name {
			t.Fatalf("corrupt %s payload dropped %v, want exactly [%s]", name, rep.Dropped, name)
		}
		if len(rep.Sections) != len(frames)-2 { // all but the corrupt one and the end marker
			t.Fatalf("corrupt %s payload loaded %d sections %v, want %d",
				name, len(rep.Sections), rep.Sections, len(frames)-2)
		}
		st := fresh.Stats()
		switch name {
		case "results":
			if st.Entries != 0 || st.Lanes != fullStats.Lanes || st.Schedules != fullStats.Schedules {
				t.Fatalf("corrupt results: salvage stats %+v, full %+v", st, fullStats)
			}
		case "lanes":
			if st.Lanes != 0 || st.Entries != fullStats.Entries {
				t.Fatalf("corrupt lanes: salvage stats %+v, full %+v", st, fullStats)
			}
		default:
			if st.Entries != fullStats.Entries {
				t.Fatalf("corrupt %s lost %d of %d results", name, fullStats.Entries-st.Entries, fullStats.Entries)
			}
		}
		if name == "checkpoint" {
			if _, ok := fresh.Checkpoint(); ok {
				t.Fatal("corrupt checkpoint section still produced a checkpoint")
			}
		} else if _, ok := fresh.Checkpoint(); !ok {
			t.Fatalf("corrupt %s lost the checkpoint section", name)
		}
	}

	// Header corruption: the length can no longer be trusted, so the
	// scan must stop at the damaged frame — sections before it load.
	for k, f := range frames {
		data := append([]byte(nil), good...)
		data[f.start+3] ^= 0xFF // a length byte; the header CRC catches it
		fresh := explore.NewCache()
		rep, err := fresh.LoadReported(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("corrupt header of frame %d: load error %v, want truncation", k, err)
		}
		if !rep.Truncated {
			t.Fatalf("corrupt header of frame %d not reported as truncation", k)
		}
		if len(rep.Sections) != k {
			t.Fatalf("corrupt header of frame %d loaded %d sections %v, want the %d before it",
				k, len(rep.Sections), rep.Sections, k)
		}
	}
}

// TestSaveFileRetriesTransientFaults pins the bounded-retry contract:
// a single transient fault in any filesystem operation of the atomic
// save is absorbed by a retry, while a tear (which persists across
// attempts) exhausts the retries into a wrapped error.
func TestSaveFileRetriesTransientFaults(t *testing.T) {
	cache := explore.NewCache()
	eio := errors.New("injected transient EIO")
	for _, op := range []faultio.Op{faultio.OpCreateTemp, faultio.OpWrite, faultio.OpSync, faultio.OpClose, faultio.OpRename} {
		t.Run(op.String(), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "cache.bin")
			fs := faultio.NewInjectFS(faultio.OS{}).FailN(op, 1, eio)
			if err := cache.SaveFileFS(fs, path, true); err != nil {
				t.Fatalf("transient %s fault not retried: %v", op, err)
			}
			if fs.Injected() != 1 {
				t.Fatalf("armed %s fault fired %d times", op, fs.Injected())
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			parseCacheFrames(t, data)
			if err := explore.NewCache().Load(bytes.NewReader(data)); err != nil {
				t.Fatalf("file saved through retry does not load: %v", err)
			}
			if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(left) != 0 {
				t.Fatalf("retried save left temp files %v", left)
			}
		})
	}

	t.Run("persistent-fault-exhausts-retries", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "cache.bin")
		fs := faultio.NewInjectFS(faultio.OS{}).TearAfter(0, eio)
		err := cache.SaveFileFS(fs, path, true)
		if !errors.Is(err, eio) {
			t.Fatalf("persistent fault returned %v, want the injected error", err)
		}
		if _, serr := os.Stat(path); !os.IsNotExist(serr) {
			t.Fatalf("failed save materialized the destination: %v", serr)
		}
	})
}
