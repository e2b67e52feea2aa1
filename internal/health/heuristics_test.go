package health

import (
	"testing"

	"contexp/internal/tracing"
)

// degradedDiff builds a diff where rec@v2 is both structurally central
// and strongly degraded, while a second change (new leaf endpoint) is
// structurally trivial.
func degradedDiff() *Diff {
	lat := map[tracing.NodeKey]float64{recV1: 10, recV2: 80, catV1: 10, feV1: 30, usrV1: 5}
	base := baselineGraph(lat)
	exp := graphFrom(tracing.VariantExperiment, [][2]tracing.NodeKey{
		{feV1, recV2},
		{recV2, catV1},
		{recV2, usrV1}, // new leaf dependency
	}, lat)
	return Compare(base, exp)
}

func TestAllHeuristicsCount(t *testing.T) {
	hs := AllHeuristics()
	if len(hs) != 6 {
		t.Fatalf("heuristic variations = %d, want 6", len(hs))
	}
	seen := map[string]bool{}
	for _, h := range hs {
		if seen[h.Name()] {
			t.Errorf("duplicate heuristic name %q", h.Name())
		}
		seen[h.Name()] = true
	}
}

func TestRankReturnsAllChangesOrdered(t *testing.T) {
	d := degradedDiff()
	for _, h := range AllHeuristics() {
		ranked := Rank(h, d)
		if len(ranked) != len(d.Changes) {
			t.Fatalf("%s: ranked %d of %d changes", h.Name(), len(ranked), len(d.Changes))
		}
		scores := h.Score(d)
		if len(scores) != len(d.Changes) {
			t.Fatalf("%s: %d scores for %d changes", h.Name(), len(scores), len(d.Changes))
		}
	}
}

func TestRankDeterministic(t *testing.T) {
	d := degradedDiff()
	for _, h := range AllHeuristics() {
		r1 := Rank(h, d)
		r2 := Rank(h, d)
		for i := range r1 {
			if r1[i].ID() != r2[i].ID() {
				t.Fatalf("%s: nondeterministic ranking", h.Name())
			}
		}
	}
}

func TestSubtreeComplexityPrefersCentralChanges(t *testing.T) {
	d := degradedDiff()
	// The updated rec@v2 subtree (rec + catalog + users) is larger than
	// the new users leaf, and its uncertainty is lower (0.7 vs 1.0) but
	// 0.7*3 > 1.0*1.
	ranked := Rank(SubtreeComplexity{}, d)
	if ranked[0].Subject.Service != "rec" {
		t.Errorf("top change = %v, want the rec version update", ranked[0])
	}
}

func TestResponseTimeAnalysisFindsRootCause(t *testing.T) {
	d := degradedDiff()
	for _, h := range []Heuristic{ResponseTimeAnalysis{}, ResponseTimeAnalysis{Relative: true}} {
		ranked := Rank(h, d)
		// rec slowed from 10ms to 80ms; everything else is unchanged. The
		// top-ranked change must concern rec.
		if ranked[0].Subject.Service != "rec" {
			t.Errorf("%s: top change = %v, want rec", h.Name(), ranked[0])
		}
		scores := h.Score(d)
		var recScore, otherMax float64
		for i, c := range d.Changes {
			if c.Subject.Service == "rec" && c.Type == ChangeUpdatedCalleeVersion {
				recScore = scores[i]
			} else if scores[i] > otherMax {
				otherMax = scores[i]
			}
		}
		if recScore <= otherMax {
			t.Errorf("%s: rec score %v not above others %v", h.Name(), recScore, otherMax)
		}
	}
}

func TestResponseTimeDiscountsCascadingEffects(t *testing.T) {
	// Baseline: fe -> rec -> cat. Experiment: same shapes with version
	// updates on both rec and cat, but only cat is actually slow; rec's
	// inclusive latency grows purely because it waits on cat.
	catV2 := nk("catalog", "v2", "GET /p")
	lat := map[tracing.NodeKey]float64{
		feV1: 100, recV1: 40, catV1: 10,
		recV2: 70, // 40ms own + 30ms waiting on slow catalog
		catV2: 40, // the true regression: +30ms
	}
	base := baselineGraph(lat)
	exp := graphFrom(tracing.VariantExperiment, [][2]tracing.NodeKey{
		{feV1, recV2},
		{recV2, catV2},
	}, lat)
	d := Compare(base, exp)
	h := ResponseTimeAnalysis{}
	scores := h.Score(d)
	var catScore, recScore float64
	for i, c := range d.Changes {
		switch c.Subject.Service {
		case "catalog":
			catScore = scores[i]
		case "rec":
			recScore = scores[i]
		}
	}
	// rec's +30ms is fully explained by catalog's +30ms; its exclusive
	// delta is ~0 while catalog keeps its full delta.
	if catScore <= recScore {
		t.Errorf("root cause not isolated: catalog %v <= rec %v", catScore, recScore)
	}
}

func TestHybridCombinesBoth(t *testing.T) {
	d := degradedDiff()
	h := Hybrid{Alpha: 0.5}
	scores := h.Score(d)
	for _, s := range scores {
		if s < 0 || s > 1 {
			t.Errorf("hybrid score %v outside [0,1]", s)
		}
	}
	if Rank(h, d)[0].Subject.Service != "rec" {
		t.Error("hybrid should also surface the degraded central change first")
	}
}

func TestHybridAlphaDefaultsAndName(t *testing.T) {
	if (Hybrid{}).alpha() != 0.5 {
		t.Error("default alpha should be 0.5")
	}
	if (Hybrid{Alpha: 0.7}).Name() != "hybrid-0.7" {
		t.Errorf("name = %q", Hybrid{Alpha: 0.7}.Name())
	}
	if (Hybrid{Alpha: 0.5}).Name() != "hybrid-0.5" {
		t.Errorf("name = %q", Hybrid{Alpha: 0.5}.Name())
	}
}

func TestNormalize(t *testing.T) {
	out := normalize([]float64{2, 4, 6})
	if out[0] != 0 || out[1] != 0.5 || out[2] != 1 {
		t.Errorf("normalize = %v", out)
	}
	same := normalize([]float64{3, 3})
	if same[0] != 0 || same[1] != 0 {
		t.Errorf("all-equal normalize = %v", same)
	}
	if len(normalize(nil)) != 0 {
		t.Error("empty normalize should be empty")
	}
}

func TestRemoveCallScoredOnBaselineGraph(t *testing.T) {
	base := baselineGraph(nil)
	exp := graphFrom(tracing.VariantExperiment, [][2]tracing.NodeKey{
		{feV1, recV1},
	}, nil)
	d := Compare(base, exp)
	scores := SubtreeComplexity{}.Score(d)
	if len(scores) != 1 || scores[0] <= 0 {
		t.Errorf("remove-call should score from the baseline subtree: %v", scores)
	}
}
