// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, the same set the ddt-paper command regenerates (README,
// Commands).
//
// The headline experiment benches share one methodology suite at
// paper.BenchPackets scale, built once outside the timed regions; each
// bench then measures its own analysis step and reports the reproduced
// numbers through b.ReportMetric, and prints the paper-vs-measured tables
// once so `go test -bench=.` regenerates the evaluation verbatim.
//
// BenchmarkDDT and BenchmarkSimulation measure real wall-clock costs of
// the library and of single simulations (the paper's "0.8 up to 64
// seconds per simulation" figure).
package repro_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro"
	"repro/internal/apps"
	"repro/internal/apps/netapps"
	"repro/internal/explore"
	"repro/internal/metrics"
	"repro/internal/paper"
)

var (
	suiteOnce sync.Once
	suite     *paper.Suite
	suiteErr  error
)

// getSuite builds the shared full-scale suite once.
func getSuite(b *testing.B) *paper.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suite, suiteErr = paper.Run(paper.BenchPackets)
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suite
}

var printOnce sync.Map

// printSection emits a rendered section once per process so the bench log
// carries the regenerated tables and figures.
func printSection(key, text string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n%s\n", text)
	}
}

// BenchmarkDDT measures the real (host) cost of the library primitives on
// every kind: sequential growth, indexed probes, full scans, and
// front-of-list churn at a 512-record population.
func BenchmarkDDT(b *testing.B) {
	type op struct {
		name string
		run  func(l repro.List[int64], n int)
	}
	ops := []op{
		{"Append", func(l repro.List[int64], n int) {
			for i := 0; i < n; i++ {
				l.Append(int64(i))
			}
			l.Clear()
		}},
		{"GetIndexed", func(l repro.List[int64], n int) {
			for i := 0; i < n; i++ {
				l.Get((i * 61) % l.Len())
			}
		}},
		{"Iterate", func(l repro.List[int64], n int) {
			for i := 0; i < n/64; i++ {
				l.Iterate(func(int, int64) bool { return true })
			}
		}},
		{"FrontChurn", func(l repro.List[int64], n int) {
			for i := 0; i < n; i++ {
				l.RemoveAt(0)
				l.Append(int64(i))
			}
		}},
	}
	for _, kind := range repro.Kinds() {
		for _, o := range ops {
			b.Run(fmt.Sprintf("%s/%s", kind, o.name), func(b *testing.B) {
				p := repro.NewPlatform()
				l := repro.NewList[int64](kind, p, 16)
				if o.name != "Append" {
					for i := 0; i < 512; i++ {
						l.Append(int64(i))
					}
				}
				b.ResetTimer()
				o.run(l, b.N)
			})
		}
	}
}

// BenchmarkSimulation measures one full simulation per iteration for each
// case study with the original assignment — the unit of design-time cost
// the paper quotes as 0.8-64 s on its tooling. The engine's cache
// is disabled so every iteration pays the real simulation.
func BenchmarkSimulation(b *testing.B) {
	ctx := context.Background()
	for _, a := range netapps.All() {
		b.Run(a.Name(), func(b *testing.B) {
			cfg := explore.Configs(a)[0]
			eng := explore.NewEngine(a, explore.Options{TracePackets: paper.BenchPackets, DisableCache: true})
			// Warm the trace cache outside the timing.
			if _, err := eng.Simulate(ctx, cfg, apps.Original(a)); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var vec metrics.Vector
			for i := 0; i < b.N; i++ {
				res, err := eng.Simulate(ctx, cfg, apps.Original(a))
				if err != nil {
					b.Fatal(err)
				}
				vec = res.Vec
			}
			b.ReportMetric(vec.Accesses, "sim-accesses")
			b.ReportMetric(vec.Energy*1e6, "sim-energy-uJ")
			b.ReportMetric(vec.Time*1e3, "sim-time-ms")
		})
	}
}

// BenchmarkSimulationCached measures the same unit with the simulation
// cache on — the steady-state cost the Engine gives repeated
// explorations of identical points.
func BenchmarkSimulationCached(b *testing.B) {
	ctx := context.Background()
	for _, a := range netapps.All() {
		b.Run(a.Name(), func(b *testing.B) {
			cfg := explore.Configs(a)[0]
			eng := explore.NewEngine(a, explore.Options{TracePackets: paper.BenchPackets})
			if _, err := eng.Simulate(ctx, cfg, apps.Original(a)); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Simulate(ctx, cfg, apps.Original(a)); err != nil {
					b.Fatal(err)
				}
			}
			st := eng.Stats()
			b.ReportMetric(float64(st.CacheHits)/float64(b.N+1), "hit-rate")
		})
	}
}

// BenchmarkMethodology measures the wall-clock cost of the complete
// 3-step flow per application at a reduced scale — the design-time the
// methodology is built to minimize.
func BenchmarkMethodology(b *testing.B) {
	for _, name := range netapps.Names() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := paper.RunApp(name, 1000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable1SimulationReduction regenerates Table 1: the
// simulation budget of the staged flow vs exhaustive exploration, and the
// size of the final Pareto-optimal set.
func BenchmarkTable1SimulationReduction(b *testing.B) {
	s := getSuite(b)
	b.ResetTimer()
	var rows []paper.Table1Row
	for i := 0; i < b.N; i++ {
		rows = s.Table1()
	}
	b.StopTimer()
	for _, row := range rows {
		rep := s.Reports[row.App]
		b.ReportMetric(float64(row.Reduced), row.App+"-reduced")
		b.ReportMetric(float64(row.Exhaustive), row.App+"-exhaustive")
		b.ReportMetric(float64(row.ParetoOptimal), row.App+"-pareto")
		b.ReportMetric(100*rep.ReductionFraction(), row.App+"-cut-pct")
	}
	printSection("table1", s.RenderTable1())
}

// BenchmarkTable2ParetoTradeoffs regenerates Table 2 (E-T2): the largest
// trade-off spans among Pareto-optimal points per application and metric.
func BenchmarkTable2ParetoTradeoffs(b *testing.B) {
	s := getSuite(b)
	b.ResetTimer()
	var rows []paper.Table2Row
	for i := 0; i < b.N; i++ {
		rows = s.Table2()
	}
	b.StopTimer()
	for _, row := range rows {
		b.ReportMetric(100*row.Energy, row.App+"-energy-pct")
		b.ReportMetric(100*row.Time, row.App+"-time-pct")
		b.ReportMetric(100*row.Accesses, row.App+"-accesses-pct")
		b.ReportMetric(100*row.Footprint, row.App+"-footprint-pct")
	}
	printSection("table2", s.RenderTable2())
}

// BenchmarkFigure3URLParetoSpace regenerates Figure 3 (E-F3): the URL
// performance-energy Pareto space and its optimal points.
func BenchmarkFigure3URLParetoSpace(b *testing.B) {
	s := getSuite(b)
	b.ResetTimer()
	var fig string
	for i := 0; i < b.N; i++ {
		fig = s.Figure3()
	}
	b.StopTimer()
	rep := s.Reports["URL"]
	ref := rep.Configs[0]
	b.ReportMetric(float64(len(ref.Results)), "space-points")
	b.ReportMetric(float64(len(ref.FrontTE)), "pareto-points")
	printSection("fig3", fig)
}

// BenchmarkFigure4RouteCharts regenerates Figure 4 (E-F4a/b/c): the Route
// Pareto charts across networks and radix-table sizes.
func BenchmarkFigure4RouteCharts(b *testing.B) {
	s := getSuite(b)
	b.ResetTimer()
	var fig string
	for i := 0; i < b.N; i++ {
		fig = s.Figure4()
	}
	b.StopTimer()
	rep := s.Reports["Route"]
	curves128 := 0
	for _, cr := range rep.Configs {
		if cr.Config.Knobs["table"] == 128 {
			curves128++
		}
	}
	b.ReportMetric(float64(curves128), "networks-at-128")
	if berry, err := rep.ConfigByName("Berry table=256"); err == nil {
		b.ReportMetric(float64(len(berry.FrontTE)), "berry256-front")
	}
	printSection("fig4", fig)
}

// BenchmarkHeadlineVsOriginal regenerates the §4 headline (E-H1): refined
// vs original all-SLL implementations.
func BenchmarkHeadlineVsOriginal(b *testing.B) {
	s := getSuite(b)
	b.ResetTimer()
	var avgE, avgT float64
	var rows []paper.HeadlineRow
	for i := 0; i < b.N; i++ {
		rows, avgE, avgT = s.Headline()
	}
	b.StopTimer()
	for _, row := range rows {
		b.ReportMetric(100*row.EnergySaving, row.App+"-energy-saving-pct")
		b.ReportMetric(100*row.TimeSaving, row.App+"-time-saving-pct")
	}
	b.ReportMetric(100*avgE, "avg-energy-saving-pct")
	b.ReportMetric(100*avgT, "avg-time-saving-pct")
	printSection("headline", s.RenderHeadline())
}

// BenchmarkRouteFactorSpans regenerates the §4 Route narrative (E-H2):
// worst non-optimal vs best Pareto-optimal factors per metric.
func BenchmarkRouteFactorSpans(b *testing.B) {
	s := getSuite(b)
	b.ResetTimer()
	var factors map[metrics.Metric]float64
	for i := 0; i < b.N; i++ {
		factors = s.Reports["Route"].Factors
	}
	b.StopTimer()
	for _, m := range metrics.AllMetrics() {
		b.ReportMetric(factors[m], m.String()+"-factor")
	}
	printSection("factors", s.RenderFactors())
}
