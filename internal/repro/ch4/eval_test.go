package ch4

import (
	"strings"
	"testing"
	"time"

	"contexp/internal/bifrost"
)

func TestEvalFigure4_6Small(t *testing.T) {
	if testing.Short() {
		t.Skip("real-clock measurement")
	}
	cfg := OverheadConfig{
		Requests:      150,
		ServiceTimeMs: 2,
		PhaseDuration: 400 * time.Millisecond,
		Seed:          1,
	}
	fig, err := EvalFigure4_6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fig.RunStatus != bifrost.StatusSucceeded {
		t.Errorf("strategy = %v, phases %v", fig.RunStatus, fig.PhaseOutcomes)
	}
	if len(fig.Baseline) != cfg.Requests || len(fig.Bifrost) != cfg.Requests {
		t.Fatalf("sample counts %d/%d", len(fig.Baseline), len(fig.Bifrost))
	}
	overhead := fig.OverheadMs()
	// Localhost proxy overhead should be positive but tiny compared to
	// the paper's cross-VM 8 ms.
	if overhead < -1 || overhead > 20 {
		t.Errorf("overhead = %.2f ms, implausible", overhead)
	}
	out := fig.Render()
	for _, want := range []string{"Table 4.1", "baseline", "bifrost", "overhead"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestEvalParallelStrategiesSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("real-clock measurement")
	}
	cfg := ScalingConfig{
		Points:            []int{1, 8},
		RunDuration:       400 * time.Millisecond,
		CheckInterval:     50 * time.Millisecond,
		ChecksPerStrategy: 3,
	}
	res, err := EvalFigure4_7And4_8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Evaluations == 0 {
			t.Errorf("x=%d: no evaluations", p.X)
		}
		if p.BusyFraction < 0 || p.BusyFraction > 1.5 {
			t.Errorf("x=%d: busy fraction %v implausible", p.X, p.BusyFraction)
		}
		if p.MeanDelayMs < 0 || p.MeanDelayMs > float64(cfg.RunDuration/time.Millisecond) {
			t.Errorf("x=%d: mean delay %v ms implausible", p.X, p.MeanDelayMs)
		}
	}
	// More strategies evaluate more checks.
	if res.Points[1].Evaluations <= res.Points[0].Evaluations {
		t.Errorf("evaluations did not grow with strategies: %d -> %d",
			res.Points[0].Evaluations, res.Points[1].Evaluations)
	}
	if !strings.Contains(res.Render(), "strategies") {
		t.Error("render missing x label")
	}
}

func TestEvalChecksScalingSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("real-clock measurement")
	}
	cfg := ScalingConfig{
		Points:        []int{5, 50},
		RunDuration:   400 * time.Millisecond,
		CheckInterval: 50 * time.Millisecond,
	}
	res, err := EvalFigure4_9And4_10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if res.Points[1].Evaluations <= res.Points[0].Evaluations {
		t.Errorf("evaluations did not grow with checks: %d -> %d",
			res.Points[0].Evaluations, res.Points[1].Evaluations)
	}
}

func TestFourPhaseStrategyValid(t *testing.T) {
	s := fourPhaseStrategy(time.Second)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Phases) != 4 {
		t.Errorf("phases = %d", len(s.Phases))
	}
}

func TestSparkline(t *testing.T) {
	if got := sparkline([]float64{1, 2, 3, 4}, 4); len([]rune(got)) != 4 {
		t.Errorf("sparkline = %q", got)
	}
	if sparkline(nil, 5) != "" {
		t.Error("empty series should render empty")
	}
}
