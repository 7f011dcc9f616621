package bronze

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// Configuration names an optimization combination the way the paper does.
type Configuration struct {
	Name string
	Opts core.Options
}

// Configurations returns the six configurations of Table 1, in the
// paper's order.
func Configurations() []Configuration {
	return []Configuration{
		{"NOP", core.Options{}},
		{"JG", core.Options{JobGrouping: true}},
		{"SP", core.Options{ServiceParallelism: true}},
		{"DP", core.Options{DataParallelism: true}},
		{"SP+DP", core.Options{ServiceParallelism: true, DataParallelism: true}},
		{"SP+DP+JG", core.Options{ServiceParallelism: true, DataParallelism: true, JobGrouping: true}},
	}
}

// PaperSizes are the input set sizes of the paper's experiment: 12, 66 and
// 126 image pairs (1, 7 and 25 patients).
//
//moteur:keep the paper's Table 1 input sizes, swept by the paper benchmarks
var PaperSizes = []int{12, 66, 126}

// PaperTable1 is the paper's Table 1 (execution times in seconds) for
// comparison in reports.
var PaperTable1 = map[string][3]int{
	"NOP":      {32855, 76354, 133493},
	"JG":       {22990, 68427, 125503},
	"SP":       {18302, 63360, 120407},
	"DP":       {17690, 26437, 34027},
	"SP+DP":    {7825, 12143, 17823},
	"SP+DP+JG": {5524, 9053, 14547},
}

// PaperTable2 is the paper's Table 2: y-intercept (s) and slope
// (s/data set) per configuration.
var PaperTable2 = map[string][2]float64{
	"NOP":      {20784, 884},
	"JG":       {11093, 900},
	"SP":       {6382, 897},
	"DP":       {16328, 143},
	"SP+DP":    {6625, 88},
	"SP+DP+JG": {4310, 79},
}

// Row is one measured configuration across input sizes.
type Row struct {
	Config string
	Sizes  []int
	Times  []time.Duration
	Jobs   []int // grid job submissions (incl. resubmissions) per size
}

// Repeats is the number of independent runs per (configuration, size)
// cell; the reported time is the median, which stabilizes the table
// against individual unlucky failures the way the paper's multi-run
// protocol does.
const Repeats = 5

// Table1 runs every configuration on every input size and returns the
// measured execution times — the reproduction of the paper's Table 1.
// Each (size, repetition) uses the same grid seed across configurations,
// mirroring the paper's protocol of submitting each data set once per
// configuration.
func Table1(sizes []int, p Params) ([]Row, error) {
	rows := make([]Row, 0, 6)
	for _, cfg := range Configurations() {
		row := Row{Config: cfg.Name, Sizes: sizes}
		for _, n := range sizes {
			times := make([]time.Duration, 0, Repeats)
			jobs := 0
			for rep := 0; rep < Repeats; rep++ {
				pp := p
				pp.Seed = p.Seed + uint64(n) + uint64(rep)*7919
				pp.Grid.Seed = 0 // let Build derive it from Seed
				res, app, err := Run(n, cfg.Opts, pp)
				if err != nil {
					return nil, fmt.Errorf("bronze: %s on %d pairs: %w", cfg.Name, n, err)
				}
				times = append(times, res.Makespan)
				if rep == 0 {
					for _, rec := range app.Grid.Records() {
						jobs += rec.Attempts
					}
				}
			}
			sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
			row.Times = append(row.Times, times[len(times)/2])
			row.Jobs = append(row.Jobs, jobs)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RegressionRow is one configuration's fitted line — the reproduction of
// the paper's Table 2.
type RegressionRow struct {
	Config string
	Line   metrics.Line
}

// Table2 fits the time-versus-size regression per configuration.
func Table2(rows []Row) ([]RegressionRow, error) {
	out := make([]RegressionRow, 0, len(rows))
	for _, r := range rows {
		l, err := metrics.Fit(r.Sizes, r.Times)
		if err != nil {
			return nil, fmt.Errorf("bronze: regression for %s: %w", r.Config, err)
		}
		out = append(out, RegressionRow{Config: r.Config, Line: l})
	}
	return out, nil
}

// Ratios reproduces the comparisons of Sec. 5.2–5.3.
type Ratios struct {
	// Speed-ups per size: DP vs NOP, SP+DP vs DP, JG vs NOP,
	// SP+DP+JG vs SP+DP, and the headline SP+DP+JG vs NOP.
	DPvsNOP, SPDPvsDP, JGvsNOP, FullvsSPDP, FullvsNOP []float64
	// Regression ratios (y-intercept, slope).
	DPvsNOPIntercept, DPvsNOPSlope       float64
	SPDPvsDPIntercept, SPDPvsDPSlope     float64
	JGvsNOPIntercept, JGvsNOPSlope       float64
	FullvsSPDPIntercept, FullvsSPDPSlope float64
}

// ComputeRatios derives the paper's analysis ratios from measured rows.
func ComputeRatios(rows []Row) (Ratios, error) {
	byName := make(map[string]Row, len(rows))
	for _, r := range rows {
		byName[r.Config] = r
	}
	regs, err := Table2(rows)
	if err != nil {
		return Ratios{}, err
	}
	lines := make(map[string]metrics.Line, len(regs))
	for _, r := range regs {
		lines[r.Config] = r.Line
	}
	speedups := func(ref, opt string) []float64 {
		a, b := byName[ref], byName[opt]
		out := make([]float64, len(a.Times))
		for i := range a.Times {
			out[i] = metrics.SpeedUp(a.Times[i], b.Times[i])
		}
		return out
	}
	return Ratios{
		DPvsNOP:    speedups("NOP", "DP"),
		SPDPvsDP:   speedups("DP", "SP+DP"),
		JGvsNOP:    speedups("NOP", "JG"),
		FullvsSPDP: speedups("SP+DP", "SP+DP+JG"),
		FullvsNOP:  speedups("NOP", "SP+DP+JG"),

		DPvsNOPIntercept: metrics.YInterceptRatio(lines["NOP"], lines["DP"]),
		DPvsNOPSlope:     metrics.SlopeRatio(lines["NOP"], lines["DP"]),

		SPDPvsDPIntercept: metrics.YInterceptRatio(lines["DP"], lines["SP+DP"]),
		SPDPvsDPSlope:     metrics.SlopeRatio(lines["DP"], lines["SP+DP"]),

		JGvsNOPIntercept: metrics.YInterceptRatio(lines["NOP"], lines["JG"]),
		JGvsNOPSlope:     metrics.SlopeRatio(lines["NOP"], lines["JG"]),

		FullvsSPDPIntercept: metrics.YInterceptRatio(lines["SP+DP"], lines["SP+DP+JG"]),
		FullvsSPDPSlope:     metrics.SlopeRatio(lines["SP+DP"], lines["SP+DP+JG"]),
	}, nil
}

// FormatTable1 renders measured rows next to the paper's values.
func FormatTable1(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s", "Config")
	if len(rows) > 0 {
		for _, n := range rows[0].Sizes {
			fmt.Fprintf(&b, " %14s", fmt.Sprintf("%d pairs (s)", n))
		}
	}
	fmt.Fprintf(&b, "   %s\n", "paper (12/66/126)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s", r.Config)
		for _, d := range r.Times {
			fmt.Fprintf(&b, " %14.0f", d.Seconds())
		}
		if p, ok := PaperTable1[r.Config]; ok {
			fmt.Fprintf(&b, "   %d / %d / %d", p[0], p[1], p[2])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatTable2 renders fitted lines next to the paper's values.
func FormatTable2(rows []RegressionRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %14s %16s %8s   %s\n",
		"Config", "y-intercept (s)", "slope (s/pair)", "R²", "paper (y-int, slope)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %14.0f %16.1f %8.3f", r.Config, r.Line.Intercept, r.Line.Slope, r.Line.R2)
		if p, ok := PaperTable2[r.Config]; ok {
			fmt.Fprintf(&b, "   %.0f, %.0f", p[0], p[1])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Figure10 produces the execution-time series (per configuration) over
// arbitrary sizes, for plotting time-versus-size curves.
//
//moteur:keep the paper's Figure 10 series, produced by the paper benchmarks and tests
func Figure10(sizes []int, p Params) ([]Row, error) {
	return Table1(sizes, p)
}

// FormatFigure10 renders the series as a gnuplot-friendly table of hours
// versus input size.
func FormatFigure10(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# pairs")
	for _, r := range rows {
		fmt.Fprintf(&b, " %10s", r.Config)
	}
	b.WriteString("   (hours)\n")
	if len(rows) == 0 {
		return b.String()
	}
	for i, n := range rows[0].Sizes {
		fmt.Fprintf(&b, "%7d", n)
		for _, r := range rows {
			fmt.Fprintf(&b, " %10.2f", r.Times[i].Hours())
		}
		b.WriteByte('\n')
	}
	return b.String()
}
