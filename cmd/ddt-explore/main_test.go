package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps/netapps"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/memsim"
	"repro/internal/report"
)

// TestMain doubles the test binary as the ddt-explore command when
// re-exec'd by the interruption tests, so signal handling is exercised
// against the real cliMain path in a real child process.
func TestMain(m *testing.M) {
	if os.Getenv("BE_DDT_EXPLORE") == "1" {
		os.Exit(cliMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// runStdout runs the CLI on c and returns what it printed to standard
// output.
func runStdout(t *testing.T, c cliConfig) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	err = run(context.Background(), c)
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// base returns the minimal CLI config the tests start from.
func base(app string) cliConfig {
	return cliConfig{app: app, packets: 300}
}

func TestRunWritesLog(t *testing.T) {
	c := base("URL")
	c.logPath = filepath.Join(t.TempDir(), "url.log")
	if err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(c.logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	results, err := report.ReadResults(f)
	if err != nil {
		t.Fatal(err)
	}
	// 100 step-1 results plus survivors x 5 configurations from step 2.
	if len(results) < 100 {
		t.Fatalf("log holds %d results, want >= 100", len(results))
	}
	for _, r := range results {
		if r.App != "URL" || r.Vec.Energy <= 0 {
			t.Fatalf("bad log record: %+v", r)
		}
	}
}

func TestRunWithCharts(t *testing.T) {
	c := base("DRR")
	c.charts = true
	c.workers = 2
	c.earlyAbort = true
	if err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownApp(t *testing.T) {
	if err := run(context.Background(), base("Quake")); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestRunBadLogPath(t *testing.T) {
	c := base("URL")
	c.logPath = "/nonexistent-dir/x.log"
	if err := run(context.Background(), c); err == nil {
		t.Fatal("unwritable log path accepted")
	}
}

func TestRunWritesCSV(t *testing.T) {
	c := base("URL")
	c.csvPath = filepath.Join(t.TempDir(), "url.csv")
	if err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(c.csvPath)
	if err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) < 101 {
		t.Fatalf("%d CSV records, want header + >=100 rows", len(records))
	}
}

func TestRunPersistsSimulationCache(t *testing.T) {
	c := base("URL")
	c.cachePath = filepath.Join(t.TempDir(), "url.simcache")
	if err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(c.cachePath); err != nil {
		t.Fatalf("cache file not written: %v", err)
	}
	// A second run must reload the cache and produce the same artifacts.
	c.logPath = filepath.Join(t.TempDir(), "url.log")
	if err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(c.logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	results, err := report.ReadResults(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) < 100 {
		t.Fatalf("warm run logged %d results, want >= 100", len(results))
	}
}

func TestRunReplayCachePersistsStreams(t *testing.T) {
	c := base("URL")
	c.replayCache = filepath.Join(t.TempDir(), "url.replay")
	out := runStdout(t, c)
	replayInfo, err := os.Stat(c.replayCache)
	if err != nil {
		t.Fatalf("replay cache not written: %v", err)
	}
	// The save line reports the file written, not the bytes the cache
	// holds resident (decoded lanes are never saved).
	if want := fmt.Sprintf("%dKB file)", replayInfo.Size()>>10); !strings.Contains(out, want) {
		t.Fatalf("save line does not report the %dB file as %q:\n%s", replayInfo.Size(), want, out)
	}
	// A results-only cache of the same run must be much smaller than the
	// stream-bearing one.
	lean := base("URL")
	lean.cachePath = filepath.Join(t.TempDir(), "url.simcache")
	if err := run(context.Background(), lean); err != nil {
		t.Fatal(err)
	}
	leanInfo, err := os.Stat(lean.cachePath)
	if err != nil {
		t.Fatal(err)
	}
	if replayInfo.Size() <= leanInfo.Size() {
		t.Fatalf("replay cache (%dB) not larger than results-only cache (%dB); streams missing",
			replayInfo.Size(), leanInfo.Size())
	}
	// Reloading the replay cache must work.
	if err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
}

// TestRunCacheCapturesNoStreams pins which cache runs keep access
// streams: a shared-heap -cache run persists none and replays none of
// its own, so it captures none; a -replay-cache run keeps them; and a
// -compose -cache run keeps the stream budget its lanes live in, so it
// still composes.
func TestRunCacheCapturesNoStreams(t *testing.T) {
	a, err := netapps.ByName("URL")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name        string
		replay      bool
		compose     bool
		wantStreams bool
	}{
		{"cache", false, false, false},
		{"replay-cache", true, false, true},
		{"compose cache", false, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := base("URL")
			path := filepath.Join(t.TempDir(), "url.cache")
			if tc.replay {
				c.replayCache = path
			} else {
				c.cachePath = path
			}
			c.compose = tc.compose
			cache := explore.NewCache()
			eng, opts, err := newEngine(c, a, cache, path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := (core.Methodology{App: a, Opts: opts, Engine: eng}).RunContext(context.Background()); err != nil {
				t.Fatal(err)
			}
			if got := cache.Stats().Streams; (got > 0) != tc.wantStreams {
				t.Errorf("%d streams retained, want streams: %v", got, tc.wantStreams)
			}
			if tc.compose && eng.Stats().Composed == 0 {
				t.Error("-compose -cache run composed nothing")
			}
		})
	}
}

func TestRunCacheFlagsExclusive(t *testing.T) {
	c := base("URL")
	c.cachePath = filepath.Join(t.TempDir(), "a")
	c.replayCache = filepath.Join(t.TempDir(), "b")
	if err := run(context.Background(), c); err == nil {
		t.Fatal("-cache together with -replay-cache accepted")
	}
}

func TestRunEvaluatesPlatforms(t *testing.T) {
	c := base("URL")
	c.platforms = "all"
	if err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	c.platforms = "tiny-4K-64K, midrange-32K-512K"
	if err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	c.platforms = "no-such-platform"
	if err := run(context.Background(), c); err == nil {
		t.Fatal("unknown platform name accepted")
	}
}

func TestRunWritesProfiles(t *testing.T) {
	c := base("URL")
	c.cpuProfile = filepath.Join(t.TempDir(), "cpu.pprof")
	c.memProfile = filepath.Join(t.TempDir(), "mem.pprof")
	if err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	// CPU profile is finalized by StopCPUProfile when run returns; the
	// file must exist and the heap profile must be non-empty.
	if _, err := os.Stat(c.cpuProfile); err != nil {
		t.Fatalf("cpu profile missing: %v", err)
	}
	info, err := os.Stat(c.memProfile)
	if err != nil {
		t.Fatalf("heap profile missing: %v", err)
	}
	if info.Size() == 0 {
		t.Fatal("heap profile empty")
	}
}

// TestRunRejectsIgnoredFlags pins that flag combinations the engine
// would ignore or override are refused up front instead.
func TestRunRejectsIgnoredFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*cliConfig)
	}{
		{"noprune without compose", func(c *cliConfig) { c.noprune = true }},
		{"noprune with sample-rate", func(c *cliConfig) { c.noprune = true; c.compose = true; c.sampleRate = 0.5 }},
		{"sample-rate 1", func(c *cliConfig) { c.sampleRate = 1 }},
	} {
		c := base("URL")
		tc.set(&c)
		if err := run(context.Background(), c); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestBoundPruneOff pins when the CLI tells a user that bound pruning
// is off because the platform is outside memsim.BoundEligible.
func TestBoundPruneOff(t *testing.T) {
	a, err := netapps.ByName("DRR")
	if err != nil {
		t.Fatal(err)
	}
	inverted := memsim.DefaultConfig()
	inverted.L1HitCycles = inverted.L2HitCycles + 1
	for _, tc := range []struct {
		name string
		opts explore.Options
		want bool
	}{
		{"eligible", explore.Options{BoundPrune: true}, false},
		{"ineligible", explore.Options{BoundPrune: true, Platform: &inverted}, true},
		{"ineligible screened", explore.Options{SampleRate: 0.5, Platform: &inverted}, true},
		{"ineligible exhaustive", explore.Options{Arenas: true, Platform: &inverted}, false},
	} {
		if got := boundPruneOff(tc.opts, explore.NewEngine(a, tc.opts)); got != tc.want {
			t.Errorf("%s: boundPruneOff %v, want %v", tc.name, got, tc.want)
		}
	}
}
