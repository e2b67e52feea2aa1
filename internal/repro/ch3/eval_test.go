package ch3

import (
	"strings"
	"testing"

	"contexp/internal/fenrir"
	"contexp/internal/stats"
)

// fastEval keeps harness tests quick.
func fastEval() EvalConfig {
	return EvalConfig{Budget: 600, Runs: 2, Days: 14, Seed: 1}
}

func TestEvalFigure3_3(t *testing.T) {
	fig, err := EvalFigure3_3(fastEval())
	if err != nil {
		t.Fatal(err)
	}
	if !fig.Valid {
		t.Error("figure 3.3 schedule should be valid")
	}
	if len(fig.Consumption) != fig.Profile.NumSlots() {
		t.Error("consumption length mismatch")
	}
	var any bool
	for _, c := range fig.Consumption {
		if c < 0 || c > 0.8+1e-9 {
			t.Fatalf("consumption %v outside [0, capacity]", c)
		}
		if c > 0 {
			any = true
		}
	}
	if !any {
		t.Error("no traffic consumed at all")
	}
	out := fig.Render()
	for _, want := range []string{"profile:", "consumption:", "exp-01"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestEvalFigure3_4(t *testing.T) {
	fig, err := EvalFigure3_4(fastEval())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Results) != 4 {
		t.Fatalf("results = %d algorithms", len(fig.Results))
	}
	for _, r := range fig.Results {
		if len(r.FitnessFrac) != 2 {
			t.Errorf("%s: %d runs", r.Algorithm, len(r.FitnessFrac))
		}
		for _, f := range r.FitnessFrac {
			if f < 0 || f > 1 {
				t.Errorf("%s fitness fraction %v outside [0,1]", r.Algorithm, f)
			}
		}
	}
	out := fig.Render()
	if !strings.Contains(out, "GA") || !strings.Contains(out, "Random") {
		t.Errorf("render missing algorithms:\n%s", out)
	}
	if best(fig) == "" {
		t.Error("best(fig) empty")
	}
}

func TestEvalFigure3_5SmallGrid(t *testing.T) {
	fig, err := EvalFigure3_5(fastEval(), []int{10})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Cells) != 3 { // one n × three classes
		t.Fatalf("cells = %d", len(fig.Cells))
	}
	if got := meanFitness(fig, 10, fenrir.SamplesLow, "GA"); got < 0 {
		t.Error("MeanFitness lookup failed")
	}
	if got := meanFitness(fig, 99, fenrir.SamplesLow, "GA"); got != -1 {
		t.Error("missing cell should return -1")
	}
	out := fig.Render()
	if !strings.Contains(out, "low") || !strings.Contains(out, "high") {
		t.Errorf("render missing classes:\n%s", out)
	}
	tbl := fig.RenderTable3_3()
	if !strings.Contains(tbl, "execution time") {
		t.Errorf("table render:\n%s", tbl)
	}
}

func TestEvalFigure3_6(t *testing.T) {
	fig, err := EvalFigure3_6(fastEval())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Results) != 4 {
		t.Fatalf("results = %d", len(fig.Results))
	}
	if fig.Added != 5 {
		t.Errorf("Added = %d", fig.Added)
	}
	if fig.Frozen == 0 {
		t.Error("expected at least one frozen (running) experiment at reevaluation")
	}
	if !strings.Contains(fig.Render(), "reevaluation") {
		t.Error("render missing title")
	}
}

func TestTable3_1(t *testing.T) {
	out, err := Table3_1(fastEval())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "exp-15") {
		t.Errorf("table missing experiments:\n%s", out)
	}
}

// best returns the algorithm with the highest mean fitness fraction.
func best(f *Figure3_4) string {
	best, bestMean := "", -1.0
	for _, r := range f.Results {
		if m := stats.Mean(r.FitnessFrac); m > bestMean {
			best, bestMean = r.Algorithm, m
		}
	}
	return best
}

// meanFitness returns the mean fitness fraction of an algorithm in the
// cell for (n, class), or -1 when absent.
func meanFitness(f *Figure3_5, n int, class fenrir.SampleSizeClass, algorithm string) float64 {
	for _, c := range f.Cells {
		if c.N != n || c.Class != class {
			continue
		}
		for _, r := range c.Results {
			if r.Algorithm == algorithm {
				return stats.Mean(r.FitnessFrac)
			}
		}
	}
	return -1
}
