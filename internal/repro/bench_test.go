// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation sections, plus ablations for the design choices DESIGN.md
// calls out. Each benchmark iteration regenerates the corresponding
// artifact end to end at a bench-sized configuration; cmd/repro runs
// the same harnesses at full scale.
//
//	go test -bench=. -benchmem ./internal/repro
package repro_test

import (
	"testing"
	"time"

	"contexp/internal/fenrir"
	"contexp/internal/repro/ch2"
	"contexp/internal/repro/ch3"
	"contexp/internal/repro/ch4"
	"contexp/internal/repro/ch5"
	"contexp/internal/traffic"
)

// --- Chapter 3: Fenrir (planning) ---

func benchEvalConfig() ch3.EvalConfig {
	return ch3.EvalConfig{Budget: 600, Runs: 2, Days: 14, Seed: 1}
}

func BenchmarkTable3_1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ch3.Table3_1(benchEvalConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3_3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ch3.EvalFigure3_3(benchEvalConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3_4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ch3.EvalFigure3_4(benchEvalConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3_5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ch3.EvalFigure3_5(benchEvalConfig(), []int{10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3_6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ch3.EvalFigure3_6(benchEvalConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Chapter 3 ablations ---

func benchProblem(b *testing.B, n int, class fenrir.SampleSizeClass) *fenrir.Problem {
	b.Helper()
	profile, err := traffic.Generate(time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC), 14,
		traffic.DefaultGeneratorConfig())
	if err != nil {
		b.Fatal(err)
	}
	exps, err := fenrir.GenerateExperiments(fenrir.GeneratorConfig{
		N: n, Class: class, Seed: 42, Horizon: profile.NumSlots(),
	})
	if err != nil {
		b.Fatal(err)
	}
	p := &fenrir.Problem{Experiments: exps, Profile: profile, Capacity: 0.8}
	if err := p.Validate(); err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkGAPopulationSize ablates the GA's population size (DESIGN.md
// decision 1): same evaluation budget, different exploration/
// exploitation balance.
func BenchmarkGAPopulationSize(b *testing.B) {
	p := benchProblem(b, 15, fenrir.SamplesMedium)
	for _, pop := range []int{20, 60, 120} {
		pop := pop
		b.Run(itoa(pop), func(b *testing.B) {
			ga := &fenrir.GeneticAlgorithm{PopulationSize: pop}
			var fitness float64
			for i := 0; i < b.N; i++ {
				_, stats := ga.Optimize(p, 1500, int64(i+1), nil)
				fitness += stats.BestFitness
			}
			b.ReportMetric(fitness/float64(b.N)/p.MaxFitness(), "fitness-frac")
		})
	}
}

// BenchmarkGARepairCrossover ablates the repairing crossover (DESIGN.md
// decision 2) against the paper's simple crossover.
func BenchmarkGARepairCrossover(b *testing.B) {
	p := benchProblem(b, 20, fenrir.SamplesMedium)
	for _, repair := range []bool{false, true} {
		repair := repair
		name := "simple"
		if repair {
			name = "repair"
		}
		b.Run(name, func(b *testing.B) {
			ga := &fenrir.GeneticAlgorithm{Repair: repair}
			var fitness float64
			for i := 0; i < b.N; i++ {
				_, stats := ga.Optimize(p, 1500, int64(i+1), nil)
				fitness += stats.BestFitness
			}
			b.ReportMetric(fitness/float64(b.N)/p.MaxFitness(), "fitness-frac")
		})
	}
}

// --- Chapter 4: Bifrost (execution) ---

func BenchmarkFigure4_6(b *testing.B) {
	cfg := ch4.OverheadConfig{
		Requests:      200,
		ServiceTimeMs: 2,
		PhaseDuration: 300 * time.Millisecond,
		Seed:          1,
	}
	for i := 0; i < b.N; i++ {
		fig, err := ch4.EvalFigure4_6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.OverheadMs(), "overhead-ms")
	}
}

func BenchmarkFigure4_8(b *testing.B) {
	cfg := ch4.ScalingConfig{
		Points:            []int{1, 16},
		RunDuration:       300 * time.Millisecond,
		CheckInterval:     25 * time.Millisecond,
		ChecksPerStrategy: 5,
	}
	for i := 0; i < b.N; i++ {
		res, err := ch4.EvalFigure4_7And4_8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Points[len(res.Points)-1].MeanDelayMs, "delay-ms-at-max")
	}
}

func BenchmarkFigure4_10(b *testing.B) {
	cfg := ch4.ScalingConfig{
		Points:        []int{10, 100},
		RunDuration:   300 * time.Millisecond,
		CheckInterval: 25 * time.Millisecond,
	}
	for i := 0; i < b.N; i++ {
		res, err := ch4.EvalFigure4_9And4_10(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Points[len(res.Points)-1].MeanDelayMs, "delay-ms-at-max")
	}
}

// --- Chapter 5: health assessment (analysis) ---

func BenchmarkFigure5_6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := ch5.EvalFigure5_6(200, 1)
		if err != nil {
			b.Fatal(err)
		}
		var best float64
		for _, m := range fig.MeanByHeuristic() {
			if m > best {
				best = m
			}
		}
		b.ReportMetric(best, "best-ndcg5")
	}
}

func BenchmarkFigure5_8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := ch5.EvalFigure5_8(200, 1)
		if err != nil {
			b.Fatal(err)
		}
		var best float64
		for _, m := range fig.MeanByHeuristic() {
			if m > best {
				best = m
			}
		}
		b.ReportMetric(best, "best-ndcg5")
	}
}

func BenchmarkFigure5_9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := ch5.EvalFigure5_9([]int{500, 2000}, 1)
		if err != nil {
			b.Fatal(err)
		}
		last := fig.Points[len(fig.Points)-1]
		var worst time.Duration
		for _, d := range last.HeuristicTimes {
			if d > worst {
				worst = d
			}
		}
		b.ReportMetric(float64(worst)/1e6, "worst-heuristic-ms")
	}
}

func BenchmarkFigure5_10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ch5.EvalFigure5_10(1000, []float64{0.05, 0.2}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Chapter 2: survey tables ---

func BenchmarkStudyTables(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pop := ch2.Generate(int64(i + 1))
		if out := pop.AllTables(); len(out) == 0 {
			b.Fatal("empty tables")
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
