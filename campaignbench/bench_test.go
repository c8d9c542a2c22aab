package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// shortPackets are the trace lengths the smoke tests run at; every one
// has pinned digests in gate.go.
var shortPackets = map[string]int{
	paperLive:    300,
	flowmonCold:  300,
	screenedWarm: 1000,
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestWorkloadsMatchSpec(t *testing.T) {
	var want, got []string
	for _, w := range loadSpec(t).Workloads {
		want = append(want, w.Name)
	}
	for _, w := range workloads() {
		got = append(got, w.name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("workloads %v, BENCHMARK.json lists %v", got, want)
	}
}

// TestSmoke runs every workload at a short trace length through the same
// path the benchmark command takes, untraced and traced, and checks the
// gates pass and every metric BENCHMARK.json names is emitted with its
// unit.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	want := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range spec.EndToEnd {
		want["0"][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want["1"][m.Name] = m.Unit
	}
	for _, w := range workloads() {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.name, "--seed", "7", "--seconds", "0", "--trace", trace,
					"--packets", strconv.Itoa(shortPackets[w.name]), "--workdir", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct %v attempted %d failed %d: %s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				for name, unit := range want[trace] {
					m, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
					} else if m.Unit != unit {
						t.Errorf("metric %s unit %q, want %q", name, m.Unit, unit)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[trace][name]; !ok {
						t.Errorf("metric %s is not in BENCHMARK.json", name)
					}
				}
				if trace == "1" {
					checkSplit(t, w.name, res.Metrics)
				}
			})
		}
	}
}

// checkSplit pins the shape of each workload's traced split.
func checkSplit(t *testing.T, name string, m map[string]metric) {
	t.Helper()
	v := func(k string) float64 { return m[k].Value }
	switch name {
	case paperLive:
		if v("astream.capture_cpu_s")+v("astream.replay_cpu_s") != 0 || v("explore.composed") != 0 {
			t.Errorf("the live oracle replayed: astream %v s, composed %v", v("astream.capture_cpu_s")+v("astream.replay_cpu_s"), v("explore.composed"))
		}
	case flowmonCold:
		if v("explore.expanded") == 0 || v("explore.composed") == 0 {
			t.Errorf("no tree search: expanded %v, composed %v", v("explore.expanded"), v("explore.composed"))
		}
	case screenedWarm:
		if v("explore.simulated") != 0 || v("explore.sampled") == 0 || v("cache.file_mb") == 0 {
			t.Errorf("simulated %v, sampled %v, cache file %v MB", v("explore.simulated"), v("explore.sampled"), v("cache.file_mb"))
		}
	}
}

// TestGateRejects checks the gate catches a changed front and a broken
// premise on a real operation.
func TestGateRejects(t *testing.T) {
	w, err := workloadByName(flowmonCold)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{w: w, packets: shortPackets[flowmonCold], workdir: t.TempDir()}
	c, err := w.setup(b, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	o, err := c.ops[0].run(context.Background(), nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.check(0, o); err != nil {
		t.Fatalf("unchanged operation rejected: %v", err)
	}

	changed := o
	changed.fronts = slices.Clone(o.fronts)
	changed.fronts[1].labels = changed.fronts[1].labels[1:]
	if err := b.check(0, changed); err == nil {
		t.Error("a front missing a member passed the gate")
	}

	s1 := *o.s1
	s1.Pruned--
	broken := o
	broken.s1 = &s1
	if err := b.check(0, broken); err == nil {
		t.Error("a space that does not add up passed the gate")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/memsim.(*Hierarchy).access":                     "memsim.hierarchy_cpu_s",
		"repro/internal/memsim.(*LineSim).probeAccessesL1x2":            "memsim.linesim_cpu_s",
		"repro/internal/memsim.(*GeomSim).probeLine":                    "memsim.geomsim_cpu_s",
		"repro/internal/memsim.probeGeomL2":                             "memsim.geomsim_cpu_s",
		"repro/internal/memsim.(*cache).access":                         "",
		"repro/internal/memsim.BoundFromProfile":                        "",
		"repro/internal/astream.(*Recorder).RecordAccess":               "astream.capture_cpu_s",
		"repro/internal/astream.(*ComposedRecorder).RecordAccess":       "astream.capture_cpu_s",
		"repro/internal/astream.replayComposedUnpacked":                 "astream.replay_cpu_s",
		"repro/internal/astream.(*SubStream).Unpack":                    "astream.replay_cpu_s",
		"repro/internal/explore.(*bbSearcher).footFloor":                "explore.search_cpu_s",
		"repro/internal/explore.(*Engine).step1BranchBound.func2":       "explore.search_cpu_s",
		"repro/internal/explore.(*Engine).jobBound":                     "explore.search_cpu_s",
		"repro/internal/explore.(*Cache).loadSectioned":                 "explore.cache_io_cpu_s",
		"repro/internal/explore.safeDecode":                             "explore.cache_io_cpu_s",
		"repro/internal/explore.(*Cache).lookup":                        "explore.engine_cpu_s",
		"repro/internal/explore.(*Engine).runJobExact":                  "explore.engine_cpu_s",
		"repro/internal/pareto.Front":                                   "pareto.cpu_s",
		"repro/internal/pareto.(*OnlineFront).Add":                      "pareto.cpu_s",
		"repro/internal/ddt.(*SLL).Insert":                              "apps.cpu_s",
		"repro/internal/apps/route.App.Run":                             "apps.cpu_s",
		"repro/internal/vheap.(*Heap).Alloc":                            "apps.cpu_s",
		"runtime.mallocgc":                                              "",
		"slices.SortFunc[go.shape.[]repro/internal/pareto.Point,go.sh]": "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
	if got := chargeStack([]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}); got != "runtime.gc_cpu_s" {
		t.Errorf("GC worker charged to %s", got)
	}
	if got := chargeStack([]string{"runtime.mallocgc", "repro/internal/ddt.(*SLL).Insert", "main.main"}); got != "apps.cpu_s" {
		t.Errorf("allocation in ddt charged to %s", got)
	}
}

var sink uint64

// TestLayerCPUDecodesProfile round-trips a real CPU profile through the
// decoder.
func TestLayerCPUDecodesProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := uint64(1)
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	sink = x
	pprof.StopCPUProfile()
	m, err := layerCPU(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, l := range cpuLayers {
		total += m[l]
	}
	if total < 0.1 || m["other.cpu_s"] < 0.1 {
		t.Errorf("decoded %.3f s in total, %.3f s in other; want most of 0.3 s of spinning", total, m["other.cpu_s"])
	}
}
