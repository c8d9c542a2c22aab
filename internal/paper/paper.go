// Package paper regenerates every table and figure of the paper's
// evaluation section (§4) from the reproduction, and renders
// paper-vs-measured comparisons:
//
//	Table 1   reduction of total simulations needed to explore the space
//	Table 2   trade-offs achieved among Pareto-optimal points
//	Figure 3  URL performance-energy Pareto space and Pareto-optimal points
//	Figure 4  Route Pareto charts (time-energy at table sizes 128/256,
//	          accesses-footprint for BWY-I)
//	Headline  refined vs original implementation (§4 narrative: URL -20%
//	          time / -80% energy; method-wide 80% energy / 22% time)
//	Factors   Route worst-vs-Pareto factors (§4: accesses 8x, footprint
//	          12x, energy 11x, time 2x)
//
// Absolute values come from the simulated platform, not the authors'
// Pentium4 testbed; the comparisons target the shape — who wins and by
// roughly what factor. The ddt-paper command prints both sides.
package paper

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/apps/netapps"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/metrics"
	"repro/internal/pareto"
	"repro/internal/report"
)

// BenchPackets is the per-simulation trace length at which the
// experiments run by default: large enough for routing tables to
// overflow, session tables to fill and scheduler queues to back up —
// the regime the paper's numbers live in.
const BenchPackets = 8000

// Table1Row is one row of Table 1.
type Table1Row struct {
	App           string
	Exhaustive    int
	Reduced       int
	ParetoOptimal int
}

// PaperTable1 is Table 1 as printed in the paper.
var PaperTable1 = []Table1Row{
	{App: "Route", Exhaustive: 1400, Reduced: 271, ParetoOptimal: 7},
	{App: "URL", Exhaustive: 500, Reduced: 110, ParetoOptimal: 4},
	{App: "IPchains", Exhaustive: 2100, Reduced: 546, ParetoOptimal: 6},
	{App: "DRR", Exhaustive: 500, Reduced: 60, ParetoOptimal: 3},
}

// Table2Row is one row of Table 2: the trade-off spans among
// Pareto-optimal points, as fractions of the worst front value.
type Table2Row struct {
	App       string
	Energy    float64
	Time      float64
	Accesses  float64
	Footprint float64
}

// PaperTable2 is Table 2 as printed in the paper.
var PaperTable2 = []Table2Row{
	{App: "Route", Energy: 0.90, Time: 0.20, Accesses: 0.88, Footprint: 0.30},
	{App: "URL", Energy: 0.52, Time: 0.13, Accesses: 0.70, Footprint: 0.82},
	{App: "IPchains", Energy: 0.38, Time: 0.03, Accesses: 0.87, Footprint: 0.63},
	{App: "DRR", Energy: 0.93, Time: 0.48, Accesses: 0.53, Footprint: 0.80},
}

// PaperRouteFactors is the §4 Route narrative: reductions of non-optimal
// vs Pareto-optimal solutions "up to a factor of" per metric.
var PaperRouteFactors = map[metrics.Metric]float64{
	metrics.Accesses:  8,
	metrics.Footprint: 12,
	metrics.Energy:    11,
	metrics.Time:      2,
}

// PaperHeadline is the §4 URL comparison against the original NetBench
// implementation, plus the paper-wide averages from the conclusions.
var PaperHeadline = struct {
	URLTimeSaving, URLEnergySaving float64
	AvgEnergySaving, AvgTimeGain   float64
}{
	URLTimeSaving:   0.20,
	URLEnergySaving: 0.80,
	AvgEnergySaving: 0.80,
	AvgTimeGain:     0.22,
}

// Suite holds one methodology report per case study.
type Suite struct {
	Packets int
	Reports map[string]*core.Report
}

// Run executes the methodology for all four case studies at the given
// trace scale (0 selects BenchPackets).
func Run(packets int) (*Suite, error) {
	if packets <= 0 {
		packets = BenchPackets
	}
	s := &Suite{Packets: packets, Reports: make(map[string]*core.Report)}
	for _, a := range netapps.All() {
		m := core.Methodology{App: a, Opts: explore.Options{TracePackets: packets}}
		rep, err := m.Run()
		if err != nil {
			return nil, fmt.Errorf("paper: %s: %w", a.Name(), err)
		}
		s.Reports[a.Name()] = rep
	}
	return s, nil
}

// RunApp executes the methodology for a single case study (used by
// benches that need one app only).
func RunApp(name string, packets int) (*core.Report, error) {
	if packets <= 0 {
		packets = BenchPackets
	}
	a, err := netapps.ByName(name)
	if err != nil {
		return nil, err
	}
	m := core.Methodology{App: a, Opts: explore.Options{TracePackets: packets}}
	return m.Run()
}

// Table1 computes the measured Table 1 rows.
func (s *Suite) Table1() []Table1Row {
	var rows []Table1Row
	for _, name := range netapps.Names() {
		r := s.Reports[name]
		rows = append(rows, Table1Row{
			App:           name,
			Exhaustive:    r.Exhaustive,
			Reduced:       r.Reduced,
			ParetoOptimal: r.ParetoOptimal,
		})
	}
	return rows
}

// RenderTable1 renders measured rows against the paper's.
func (s *Suite) RenderTable1() string {
	measured := s.Table1()
	var rows [][]string
	for i, m := range measured {
		p := PaperTable1[i]
		rows = append(rows, []string{
			m.App,
			fmt.Sprint(p.Exhaustive), fmt.Sprint(m.Exhaustive),
			fmt.Sprint(p.Reduced), fmt.Sprint(m.Reduced),
			report.Percent(1 - float64(p.Reduced)/float64(p.Exhaustive)),
			report.Percent(s.Reports[m.App].ReductionFraction()),
			fmt.Sprint(p.ParetoOptimal), fmt.Sprint(m.ParetoOptimal),
		})
	}
	return "Table 1 - reduction of total simulations (paper vs measured)\n" +
		report.Table([]string{
			"application",
			"exh(paper)", "exh(ours)",
			"red(paper)", "red(ours)",
			"cut%(paper)", "cut%(ours)",
			"pareto(paper)", "pareto(ours)",
		}, rows)
}

// Table2 computes the measured Table 2 rows.
func (s *Suite) Table2() []Table2Row {
	var rows []Table2Row
	for _, name := range netapps.Names() {
		r := s.Reports[name]
		rows = append(rows, Table2Row{
			App:       name,
			Energy:    r.Tradeoffs[metrics.Energy],
			Time:      r.Tradeoffs[metrics.Time],
			Accesses:  r.Tradeoffs[metrics.Accesses],
			Footprint: r.Tradeoffs[metrics.Footprint],
		})
	}
	return rows
}

// RenderTable2 renders measured trade-off spans against the paper's.
func (s *Suite) RenderTable2() string {
	measured := s.Table2()
	var rows [][]string
	for i, m := range measured {
		p := PaperTable2[i]
		rows = append(rows, []string{
			m.App,
			report.Percent(p.Energy), report.Percent(m.Energy),
			report.Percent(p.Time), report.Percent(m.Time),
			report.Percent(p.Accesses), report.Percent(m.Accesses),
			report.Percent(p.Footprint), report.Percent(m.Footprint),
		})
	}
	return "Table 2 - trade-offs among Pareto-optimal points (paper vs measured)\n" +
		report.Table([]string{
			"application",
			"E(paper)", "E(ours)",
			"t(paper)", "t(ours)",
			"acc(paper)", "acc(ours)",
			"fp(paper)", "fp(ours)",
		}, rows)
}

// Figure3 renders the URL Pareto space (a) and its Pareto-optimal points
// (b) on the reference configuration, like the paper's Figure 3.
func (s *Suite) Figure3() string {
	r := s.Reports["URL"]
	ref := r.Configs[0]
	all := ref.Points()
	series := []report.Series{
		{Name: "all DDT combinations", Glyph: '.', Points: all},
		{Name: "4-metric Pareto-optimal", Glyph: 'O', Points: ref.Front4D},
		{Name: "time-energy Pareto curve", Glyph: '*', Points: ref.FrontTE},
	}
	var b strings.Builder
	b.WriteString(report.Scatter(
		fmt.Sprintf("Figure 3a - URL performance vs energy Pareto space (%s)", ref.Config),
		metrics.Time, metrics.Energy, series, 64, 18))
	b.WriteString("\nFigure 3b - Pareto-optimal points (non-dominated in all 4 metrics)\n")
	var rows [][]string
	for _, p := range ref.Front4D {
		rows = append(rows, []string{
			p.Label,
			metrics.FormatTime(p.Vec.Time),
			metrics.FormatEnergy(p.Vec.Energy),
			fmt.Sprintf("%.0f", p.Vec.Accesses),
			fmt.Sprintf("%.0fB", p.Vec.Footprint),
		})
	}
	b.WriteString(report.Table([]string{"combination", "time", "energy", "accesses", "footprint"}, rows))
	return b.String()
}

// Figure4 renders the Route Pareto charts: (a) time-energy fronts for the
// seven networks at table size 128, (b) the table-size-256 Berry front
// with its optimal point called out, (c) the accesses-footprint front on
// BWY-I.
func (s *Suite) Figure4() string {
	r := s.Reports["Route"]
	var b strings.Builder

	// (a) one series per network, table=128.
	var series []report.Series
	glyphs := []byte{'1', '2', '3', '4', '5', '6', '7'}
	i := 0
	for _, cr := range r.Configs {
		if cr.Config.Knobs["table"] != 128 {
			continue
		}
		series = append(series, report.Series{
			Name:   cr.Config.TraceName,
			Glyph:  glyphs[i%len(glyphs)],
			Points: cr.FrontTE,
		})
		i++
	}
	b.WriteString(report.Scatter(
		"Figure 4a - Route execution time vs energy Pareto curves, table size 128, 7 networks",
		metrics.Time, metrics.Energy, series, 64, 18))
	b.WriteByte('\n')

	// (b) Berry at table=256 with the optimal point.
	berry, err := r.ConfigByName("Berry table=256")
	if err == nil {
		best := pareto.Best(berry.FrontTE, metrics.Energy)
		b.WriteString(report.Scatter(
			"Figure 4b - Route time vs energy, table size 256, Berry trace ('*' = chosen optimum)",
			metrics.Time, metrics.Energy,
			[]report.Series{
				{Name: "explored combinations", Glyph: '.', Points: berry.Points()},
				{Name: "Pareto curve", Glyph: 'O', Points: berry.FrontTE},
				{Name: "optimal: " + best.Label, Glyph: '*', Points: []pareto.Point{best}},
			}, 64, 18))
		b.WriteString(fmt.Sprintf("  chosen point: %s  %v\n\n", best.Label, best.Vec))
	}

	// (c) accesses vs footprint on BWY-I (table=128, as in the paper's
	// "BWY I" chart).
	bwy, err := r.ConfigByName("BWY-I table=128")
	if err == nil {
		b.WriteString(report.Scatter(
			"Figure 4c - Route memory accesses vs footprint, BWY-I",
			metrics.Accesses, metrics.Footprint,
			[]report.Series{
				{Name: "explored combinations", Glyph: '.', Points: bwy.Points()},
				{Name: "Pareto curve", Glyph: 'O', Points: bwy.FrontAF},
			}, 64, 18))
	}
	return b.String()
}

// HeadlineRow is the refined-vs-original comparison for one application.
type HeadlineRow struct {
	App          string
	EnergySaving float64
	TimeSaving   float64
}

// Headline computes refined-vs-original savings for every app plus the
// averages the paper's conclusions quote.
func (s *Suite) Headline() (rows []HeadlineRow, avgEnergy, avgTime float64) {
	for _, name := range netapps.Names() {
		r := s.Reports[name]
		rows = append(rows, HeadlineRow{
			App:          name,
			EnergySaving: r.EnergySaving,
			TimeSaving:   r.TimeSaving,
		})
		avgEnergy += r.EnergySaving
		avgTime += r.TimeSaving
	}
	avgEnergy /= float64(len(rows))
	avgTime /= float64(len(rows))
	return rows, avgEnergy, avgTime
}

// RenderHeadline renders the refined-vs-original comparison.
func (s *Suite) RenderHeadline() string {
	rows, avgE, avgT := s.Headline()
	var tbl [][]string
	for _, row := range rows {
		tbl = append(tbl, []string{
			row.App,
			report.Percent(row.EnergySaving),
			report.Percent(row.TimeSaving),
		})
	}
	tbl = append(tbl, []string{"average", report.Percent(avgE), report.Percent(avgT)})
	return fmt.Sprintf(
		"Headline - refined vs original (all-SLL) implementation\n"+
			"paper: URL -%.0f%% energy / -%.0f%% time; method-wide averages %.0f%% energy, %.0f%% time\n",
		100*PaperHeadline.URLEnergySaving, 100*PaperHeadline.URLTimeSaving,
		100*PaperHeadline.AvgEnergySaving, 100*PaperHeadline.AvgTimeGain) +
		report.Table([]string{"application", "energy saving", "time saving"}, tbl)
}

// RenderFactors renders the Route worst-vs-Pareto factor comparison.
func (s *Suite) RenderFactors() string {
	r := s.Reports["Route"]
	mets := metrics.AllMetrics()
	sort.Slice(mets, func(i, j int) bool { return mets[i] < mets[j] })
	var rows [][]string
	for _, m := range mets {
		rows = append(rows, []string{
			m.String(),
			fmt.Sprintf("%.0fx", PaperRouteFactors[m]),
			fmt.Sprintf("%.1fx", r.Factors[m]),
		})
	}
	return "Route - non-optimal vs Pareto-optimal reduction factors (paper vs measured)\n" +
		report.Table([]string{"metric", "paper", "ours"}, rows)
}

// RenderAll renders every experiment.
func (s *Suite) RenderAll() string {
	sections := []string{
		s.RenderTable1(),
		s.RenderTable2(),
		s.Figure3(),
		s.Figure4(),
		s.RenderHeadline(),
		s.RenderFactors(),
	}
	return strings.Join(sections, "\n")
}
