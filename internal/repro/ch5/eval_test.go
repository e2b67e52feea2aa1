package ch5

import (
	"strings"
	"testing"

	"contexp/internal/health"
)

func TestEvalScenario1(t *testing.T) {
	for _, degraded := range []bool{false, true} {
		res, err := EvalScenario1(300, degraded, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Scores) != 6 {
			t.Fatalf("scores = %d", len(res.Scores))
		}
		if len(res.Diff.Changes) < 3 {
			t.Fatalf("degraded=%v: only %d changes: %v", degraded, len(res.Diff.Changes), res.Diff.Changes)
		}
		for _, s := range res.Scores {
			if s.NDCG5 < 0 || s.NDCG5 > 1 {
				t.Errorf("%s nDCG5 = %v outside [0,1]", s.Heuristic, s.NDCG5)
			}
		}
		// Expected change inventory: users history new call, rec version
		// update, rec caller update.
		byType := res.Diff.CountByType()
		if byType[health.ChangeCallNewEndpoint] == 0 {
			t.Error("scenario 1 should surface the new users/history call")
		}
		if byType[health.ChangeUpdatedCalleeVersion] == 0 {
			t.Error("scenario 1 should surface the rec version update")
		}
	}
}

func TestEvalScenario1DegradedRTQuality(t *testing.T) {
	// With degradation the response-time heuristics must do well: the
	// root cause is the slow rec v2 which the relevance labels rank top.
	res, err := EvalScenario1(300, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Scores {
		if strings.HasPrefix(s.Heuristic, "rt-") && s.NDCG5 < 0.7 {
			t.Errorf("%s nDCG5 = %v, expected strong score under degradation", s.Heuristic, s.NDCG5)
		}
	}
}

func TestEvalScenario2(t *testing.T) {
	for _, degraded := range []bool{false, true} {
		res, err := EvalScenario2(300, degraded, 1)
		if err != nil {
			t.Fatal(err)
		}
		byType := res.Diff.CountByType()
		if byType[health.ChangeCallNewEndpoint] == 0 {
			t.Error("scenario 2 should surface the new pricing dependency")
		}
		if byType[health.ChangeRemoveCall] == 0 {
			t.Errorf("scenario 2 should surface the removed inventory call: %v", res.Diff.Changes)
		}
		if !strings.Contains(res.Render(), "nDCG5") {
			t.Error("render missing header")
		}
	}
}

func TestEvalFigure5_6And5_8(t *testing.T) {
	for _, f := range []func(int, int64) (*Figure5_6, error){EvalFigure5_6, EvalFigure5_8} {
		fig, err := f(200, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(fig.Results) != 2 {
			t.Fatalf("results = %d", len(fig.Results))
		}
		means := fig.MeanByHeuristic()
		if len(means) != 6 {
			t.Fatalf("means = %d heuristics", len(means))
		}
		for name, m := range means {
			if m < 0.3 {
				t.Errorf("%s mean nDCG5 = %v, implausibly low", name, m)
			}
		}
		if !strings.Contains(fig.Render(), "mean nDCG5") {
			t.Error("render missing mean section")
		}
	}
}

func TestFigureRenderSameSeedSameBytes(t *testing.T) {
	for _, f := range []func(int, int64) (*Figure5_6, error){EvalFigure5_6, EvalFigure5_8} {
		fig, err := f(50, 1)
		if err != nil {
			t.Fatal(err)
		}
		first := fig.Render()
		for i := 0; i < 5; i++ {
			again, err := f(50, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got := again.Render(); got != first {
				t.Fatalf("%s: same seed rendered differently:\n%s\nvs\n%s", fig.Title, first, got)
			}
		}
	}
}

func TestHybridCompetitiveOverall(t *testing.T) {
	// The paper's headline: a hybrid heuristic scores best on average.
	// We require the best hybrid to be within a whisker of the best
	// overall score (shape, not exact ordering).
	fig1, err := EvalFigure5_6(300, 1)
	if err != nil {
		t.Fatal(err)
	}
	fig2, err := EvalFigure5_8(300, 1)
	if err != nil {
		t.Fatal(err)
	}
	sums := make(map[string]float64)
	for _, fig := range []*Figure5_6{fig1, fig2} {
		for name, m := range fig.MeanByHeuristic() {
			sums[name] += m
		}
	}
	var bestAll, bestHybrid float64
	for name, s := range sums {
		if s > bestAll {
			bestAll = s
		}
		if strings.HasPrefix(name, "hybrid") && s > bestHybrid {
			bestHybrid = s
		}
	}
	if bestHybrid < bestAll-0.15 {
		t.Errorf("hybrid not competitive: best hybrid %v vs best overall %v (sums over 4 sub-scenarios)",
			bestHybrid, bestAll)
	}
}

func TestEvalFigure5_9Small(t *testing.T) {
	fig, err := EvalFigure5_9([]int{200, 500}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Points) != 2 {
		t.Fatalf("points = %d", len(fig.Points))
	}
	for _, p := range fig.Points {
		if p.Changes == 0 {
			t.Errorf("endpoints=%d: no changes", p.Endpoints)
		}
		if len(p.HeuristicTimes) != 6 {
			t.Errorf("endpoints=%d: %d heuristic timings", p.Endpoints, len(p.HeuristicTimes))
		}
	}
	if !strings.Contains(fig.Render(), "graph size") {
		t.Error("render missing title")
	}
}

func TestEvalFigure5_10Small(t *testing.T) {
	fig, err := EvalFigure5_10(500, []float64{0.05, 0.2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Points) != 2 {
		t.Fatalf("points = %d", len(fig.Points))
	}
	// More changes at higher frequency.
	if fig.Points[1].Changes <= fig.Points[0].Changes {
		t.Errorf("change frequency not reflected: %d -> %d",
			fig.Points[0].Changes, fig.Points[1].Changes)
	}
	if !strings.Contains(fig.Render(), "change frequency") {
		t.Error("render missing title")
	}
}
