package health

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"contexp/internal/tracing"
)

// Heuristic ranks the changes of a topological difference by their
// potential negative impact on the experiment's and application's
// health state (Section 5.5). Higher scores rank first.
type Heuristic interface {
	// Name identifies the heuristic variation in reports.
	Name() string
	// Score assigns an impact score to every change of the diff,
	// index-aligned with d.Changes.
	Score(d *Diff) []float64
}

// Rank applies a heuristic and returns the changes ordered by
// descending score (ties broken by change ID for determinism).
func Rank(h Heuristic, d *Diff) []Change {
	scored := RankScored(h, d)
	out := make([]Change, len(scored))
	for i, sc := range scored {
		out[i] = sc.Change
	}
	return out
}

// ScoredChange is one change with its heuristic impact score.
type ScoredChange struct {
	Change
	Score float64
}

// RankScored is Rank keeping each change's score, which the live
// assessment surfaces so operators see how decisively a change ranked.
func RankScored(h Heuristic, d *Diff) []ScoredChange {
	scores := h.Score(d)
	idx := make([]int, len(d.Changes))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] > scores[idx[b]]
		}
		return d.Changes[idx[a]].ID() < d.Changes[idx[b]].ID()
	})
	out := make([]ScoredChange, len(idx))
	for i, j := range idx {
		out[i] = ScoredChange{Change: d.Changes[j], Score: scores[j]}
	}
	return out
}

// HeuristicByName resolves one of the six heuristic variations by its
// Name() — the form the DSL's `heuristic` attribute uses. The empty
// name resolves to the default (subtree-weighted, which needs no
// latency counterpart and is therefore decisive earliest).
func HeuristicByName(name string) (Heuristic, error) {
	if name == "" {
		return SubtreeComplexity{DepthWeighted: true}, nil
	}
	for _, h := range AllHeuristics() {
		if h.Name() == name {
			return h, nil
		}
	}
	return nil, fmt.Errorf("health: unknown heuristic %q (known: %s)", name, strings.Join(HeuristicNames(), ", "))
}

// HeuristicNames lists the known heuristic variations in order.
func HeuristicNames() []string {
	all := AllHeuristics()
	names := make([]string, len(all))
	for i, h := range all {
		names[i] = h.Name()
	}
	return names
}

// AllHeuristics returns the six variations evaluated in Section 5.7:
// two subtree-complexity variants, two response-time variants, and two
// hybrid weightings.
func AllHeuristics() []Heuristic {
	return []Heuristic{
		SubtreeComplexity{},
		SubtreeComplexity{DepthWeighted: true},
		ResponseTimeAnalysis{},
		ResponseTimeAnalysis{Relative: true},
		Hybrid{Alpha: 0.5},
		Hybrid{Alpha: 0.7},
	}
}

// SubtreeComplexity scores a change by the uncertainty-weighted
// complexity of the interaction subtree hanging off the changed node
// (Section 5.5.3): the more services a change can influence downstream,
// the higher its potential impact.
type SubtreeComplexity struct {
	// DepthWeighted additionally weighs the subtree's depth and edge
	// count, favoring deep call chains over broad fan-outs of leaves.
	DepthWeighted bool
}

var _ Heuristic = SubtreeComplexity{}

// Name implements Heuristic.
func (h SubtreeComplexity) Name() string {
	if h.DepthWeighted {
		return "subtree-weighted"
	}
	return "subtree-size"
}

// Score implements Heuristic.
func (h SubtreeComplexity) Score(d *Diff) []float64 {
	out := make([]float64, len(d.Changes))
	for i, c := range d.Changes {
		g := d.Exp
		if c.Type == ChangeRemoveCall {
			// Removed interactions only exist in the baseline graph.
			g = d.Base
		}
		size := float64(len(g.Subtree(c.Subject)))
		score := size
		if h.DepthWeighted {
			depth := float64(g.Depth(c.Subject))
			score = size + 2*depth
		}
		out[i] = c.Type.Uncertainty() * score
	}
	return out
}

// ResponseTimeAnalysis scores a change by the latency degradation
// observed at the changed node relative to the baseline variant
// (Section 5.5.4) — a simple root-cause analysis: a change whose own
// endpoint slowed down more than its callees did is the more likely
// origin of a cascading effect, so downstream slowdowns are discounted
// from each node's delta.
type ResponseTimeAnalysis struct {
	// Relative scores by the degradation ratio instead of absolute
	// milliseconds, which normalizes fast endpoints against slow ones.
	Relative bool
}

var _ Heuristic = ResponseTimeAnalysis{}

// Name implements Heuristic.
func (h ResponseTimeAnalysis) Name() string {
	if h.Relative {
		return "rt-relative"
	}
	return "rt-absolute"
}

// Score implements Heuristic.
func (h ResponseTimeAnalysis) Score(d *Diff) []float64 {
	// The latency index is built once per graph pair (O(V)) so scoring
	// is O(changes × fanout) — this is why heuristic runtime is stable
	// across change frequencies (Fig 5.10).
	idx := newLatencyIndex(d)
	out := make([]float64, len(d.Changes))
	for i, c := range d.Changes {
		delta := h.exclusiveDelta(d, idx, c.Subject)
		if delta < 0 {
			delta = 0 // improvements are future work per Section 1.2.4
		}
		out[i] = c.Type.Uncertainty() * delta
	}
	return out
}

// exclusiveDelta returns the node's latency degradation minus its
// callees' degradations (clamped at 0 per callee): the slowdown the
// node itself is responsible for.
func (h ResponseTimeAnalysis) exclusiveDelta(d *Diff, idx *latencyIndex, nk tracing.NodeKey) float64 {
	own := h.delta(idx, nk)
	var children float64
	for _, callee := range d.Exp.Callees(nk) {
		if cd := h.delta(idx, callee); cd > 0 {
			children += cd
		}
	}
	return own - children
}

// delta returns the latency change of the logical endpoint of nk:
// experimental mean minus baseline mean (ms), or the ratio - 1 when
// Relative.
func (h ResponseTimeAnalysis) delta(idx *latencyIndex, nk tracing.NodeKey) float64 {
	le := logicalEndpoint{nk.Service, nk.Endpoint}
	expMean, expOK := idx.exp[le]
	baseMean, baseOK := idx.base[le]
	if !expOK || !baseOK {
		// New or removed endpoints have no counterpart to compare; the
		// structural heuristics carry those.
		return 0
	}
	if h.Relative {
		if baseMean <= 0 {
			return 0
		}
		return expMean/baseMean - 1
	}
	return expMean - baseMean
}

// latencyIndex precomputes per-logical-endpoint mean latencies (ms) for
// both graphs of a diff.
type latencyIndex struct {
	base map[logicalEndpoint]float64 // call-weighted average across versions
	exp  map[logicalEndpoint]float64 // newest version's mean
}

func newLatencyIndex(d *Diff) *latencyIndex {
	idx := &latencyIndex{
		base: make(map[logicalEndpoint]float64, len(d.Base.Nodes)),
		exp:  make(map[logicalEndpoint]float64, len(d.Exp.Nodes)),
	}
	// Baseline: call-weighted average across versions.
	type acc struct {
		dur   time.Duration
		calls int
	}
	baseAcc := make(map[logicalEndpoint]acc, len(d.Base.Nodes))
	for nk, node := range d.Base.Nodes {
		if node.Calls == 0 {
			continue
		}
		le := logicalEndpoint{nk.Service, nk.Endpoint}
		a := baseAcc[le]
		a.dur += node.TotalDuration
		a.calls += node.Calls
		baseAcc[le] = a
	}
	for le, a := range baseAcc {
		idx.base[le] = float64(a.dur) / float64(a.calls) / float64(time.Millisecond)
	}
	// Experimental: the newest version's behaviour is what the
	// experiment is about (graphs can contain old and new side by side).
	newestVersion := make(map[logicalEndpoint]string, len(d.Exp.Nodes))
	for nk, node := range d.Exp.Nodes {
		if node.Calls == 0 {
			continue
		}
		le := logicalEndpoint{nk.Service, nk.Endpoint}
		if v, ok := newestVersion[le]; !ok || nk.Version > v {
			newestVersion[le] = nk.Version
			idx.exp[le] = float64(node.MeanDuration()) / float64(time.Millisecond)
		}
	}
	return idx
}

// Hybrid combines the structural and temporal evidence (Section 5.5.5):
// each heuristic's scores are min-max normalized over the diff and
// mixed with weight Alpha on the subtree component.
type Hybrid struct {
	// Alpha is the subtree-complexity weight in [0,1]; the evaluation
	// uses 0.5 and 0.7.
	Alpha float64
	// DepthWeighted and Relative select the underlying variants.
	DepthWeighted bool
	Relative      bool
}

var _ Heuristic = Hybrid{}

// Name implements Heuristic.
func (h Hybrid) Name() string {
	return "hybrid-" + trimFloat(h.alpha())
}

func (h Hybrid) alpha() float64 {
	if h.Alpha <= 0 || h.Alpha > 1 {
		return 0.5
	}
	return h.Alpha
}

// Score implements Heuristic.
func (h Hybrid) Score(d *Diff) []float64 {
	structural := normalize(SubtreeComplexity{DepthWeighted: h.DepthWeighted}.Score(d))
	temporal := normalize(ResponseTimeAnalysis{Relative: h.Relative}.Score(d))
	a := h.alpha()
	out := make([]float64, len(d.Changes))
	for i := range out {
		out[i] = a*structural[i] + (1-a)*temporal[i]
	}
	return out
}

// normalize min-max scales scores to [0,1] (all-equal maps to 0).
func normalize(xs []float64) []float64 {
	out := make([]float64, len(xs))
	if len(xs) == 0 {
		return out
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if hi == lo {
		return out
	}
	for i, x := range xs {
		out[i] = (x - lo) / (hi - lo)
	}
	return out
}

func trimFloat(f float64) string {
	s := fmt.Sprintf("%.2f", f)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	return s
}
