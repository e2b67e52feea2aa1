package fenrir

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Gene is one experiment's execution plan within a schedule: the value
// encoding of the chromosome representation (Fig 3.1). Index alignment
// with Problem.Experiments identifies the experiment.
type Gene struct {
	// Start is the first slot of execution.
	Start int
	// Duration is the execution length in slots (uninterrupted — the
	// non-interruption constraint is structural in this encoding).
	Duration int
	// Share is the traffic share consumed in every slot of execution.
	Share float64
	// GroupMask selects the assigned user groups as a bitmask over the
	// experiment's CandidateGroups.
	GroupMask uint64
	// Frozen marks genes of already-running experiments during
	// reevaluation: optimizers must not modify them.
	Frozen bool
}

// End returns the exclusive end slot.
func (g Gene) End() int { return g.Start + g.Duration }

// Schedule assigns a gene to every experiment of a problem.
type Schedule struct {
	Genes []Gene
}

// Clone deep-copies the schedule.
func (s *Schedule) Clone() *Schedule {
	genes := make([]Gene, len(s.Genes))
	copy(genes, s.Genes)
	return &Schedule{Genes: genes}
}

// Violation describes one broken constraint.
type Violation struct {
	ExperimentID string
	Reason       string
}

func (v Violation) String() string {
	if v.ExperimentID == "" {
		return v.Reason
	}
	return v.ExperimentID + ": " + v.Reason
}

// Check validates the schedule against all experiment-level and
// overarching constraints of Section 3.4.4 and returns every violation
// found (empty result means the schedule is valid).
func (p *Problem) Check(s *Schedule) []Violation {
	var out []Violation
	if len(s.Genes) != len(p.Experiments) {
		return []Violation{{Reason: fmt.Sprintf("gene count %d != experiment count %d", len(s.Genes), len(p.Experiments))}}
	}
	horizon := p.Profile.NumSlots()

	// Experiment constraints.
	for i := range p.Experiments {
		e := &p.Experiments[i]
		g := s.Genes[i]
		if g.Start < e.EarliestStart {
			out = append(out, Violation{e.ID, fmt.Sprintf("starts at %d before earliest %d", g.Start, e.EarliestStart)})
		}
		if g.Duration < e.MinDuration || g.Duration > e.MaxDuration {
			out = append(out, Violation{e.ID, fmt.Sprintf("duration %d outside [%d,%d]", g.Duration, e.MinDuration, e.MaxDuration)})
		}
		if g.End() > e.latestEnd(horizon) {
			out = append(out, Violation{e.ID, fmt.Sprintf("ends at %d after bound %d", g.End(), e.latestEnd(horizon))})
		}
		if g.Share < e.MinShare || g.Share > e.MaxShare {
			out = append(out, Violation{e.ID, fmt.Sprintf("share %.3f outside [%.3f,%.3f]", g.Share, e.MinShare, e.MaxShare)})
		}
		if g.GroupMask == 0 || g.GroupMask >= 1<<uint(len(e.CandidateGroups)) {
			out = append(out, Violation{e.ID, fmt.Sprintf("group mask %#x invalid for %d candidates", g.GroupMask, len(e.CandidateGroups))})
			continue
		}
		if collected := p.collected(e, g); collected < e.RequiredSamples {
			out = append(out, Violation{e.ID, fmt.Sprintf("collects %.0f of %.0f required samples", collected, e.RequiredSamples)})
		}
	}

	// Overarching constraint: per-slot capacity.
	usage := make([]float64, horizon)
	for i := range s.Genes {
		g := s.Genes[i]
		for t := g.Start; t < g.End() && t < horizon; t++ {
			if t >= 0 {
				usage[t] += g.Share
			}
		}
	}
	for t, u := range usage {
		if u > p.Capacity+1e-9 {
			out = append(out, Violation{"", fmt.Sprintf("slot %d allocates %.3f > capacity %.3f", t, u, p.Capacity)})
		}
	}

	// Overarching constraint: overlapping experiments must use disjoint
	// user groups (a user is in at most one experiment at a time).
	for i := 0; i < len(s.Genes); i++ {
		for j := i + 1; j < len(s.Genes); j++ {
			gi, gj := s.Genes[i], s.Genes[j]
			if gi.Start >= gj.End() || gj.Start >= gi.End() {
				continue // no time overlap
			}
			if p.groupsIntersect(i, gi.GroupMask, j, gj.GroupMask) {
				out = append(out, Violation{
					p.Experiments[i].ID,
					fmt.Sprintf("overlaps %s on shared user groups", p.Experiments[j].ID),
				})
			}
		}
	}
	return out
}

// Valid reports whether the schedule satisfies every constraint.
func (p *Problem) Valid(s *Schedule) bool { return len(p.Check(s)) == 0 }

// collected returns the samples experiment e gathers under gene g.
func (p *Problem) collected(e *Experiment, g Gene) float64 {
	return g.Share * p.Profile.Window(g.Start, g.Duration)
}

// groupsIntersect reports whether the assigned groups of experiments i
// and j (under the given masks) share a user group.
func (p *Problem) groupsIntersect(i int, maskI uint64, j int, maskJ uint64) bool {
	ei, ej := &p.Experiments[i], &p.Experiments[j]
	for bi, gi := range ei.CandidateGroups {
		if maskI&(1<<uint(bi)) == 0 {
			continue
		}
		for bj, gj := range ej.CandidateGroups {
			if maskJ&(1<<uint(bj)) == 0 {
				continue
			}
			if gi == gj {
				return true
			}
		}
	}
	return false
}

// Fitness scores a schedule per Section 3.4.3: the sum over experiments
// of priority-weighted duration, start-time, and coverage objectives.
// Invalid schedules score negative infinity–like penalties: the count of
// violations scaled below any valid score, which gives search a gradient
// toward validity.
func (p *Problem) Fitness(s *Schedule) float64 {
	violations := p.Check(s)
	if len(violations) > 0 {
		return -float64(len(violations))
	}
	w := p.weights()
	var total float64
	horizon := p.Profile.NumSlots()
	for i := range p.Experiments {
		e := &p.Experiments[i]
		g := s.Genes[i]
		total += e.Priority * (w.Duration*durationScore(e, g) +
			w.Start*startScore(e, g, horizon) +
			w.Coverage*coverageScore(e, g))
	}
	return total
}

// MaxFitness returns the theoretical upper bound of Fitness, used to
// report scores as a fraction of the maximum (as the paper does: "the GA
// reaches 62% of the maximal fitness score").
func (p *Problem) MaxFitness() float64 {
	w := p.weights()
	var total float64
	for i := range p.Experiments {
		total += p.Experiments[i].Priority * (w.Duration + w.Start + w.Coverage)
	}
	return total
}

func durationScore(e *Experiment, g Gene) float64 {
	if e.MaxDuration == e.MinDuration {
		return 1
	}
	return float64(e.MaxDuration-g.Duration) / float64(e.MaxDuration-e.MinDuration)
}

func startScore(e *Experiment, g Gene, horizon int) float64 {
	latest := e.latestEnd(horizon) - g.Duration
	if latest <= e.EarliestStart {
		return 1
	}
	return float64(latest-g.Start) / float64(latest-e.EarliestStart)
}

func coverageScore(e *Experiment, g Gene) float64 {
	if len(e.PreferredGroups) == 0 {
		return 1
	}
	assigned := e.groupsFromMask(g.GroupMask)
	var covered int
	for _, pg := range e.PreferredGroups {
		for _, ag := range assigned {
			if pg == ag {
				covered++
				break
			}
		}
	}
	return float64(covered) / float64(len(e.PreferredGroups))
}

// String renders the schedule as a compact table (the textual Gantt the
// scheduling example prints).
func (p *Problem) FormatSchedule(s *Schedule) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-16s %6s %5s %7s  %s\n", "ID", "practice", "start", "len", "share", "groups")
	for i := range p.Experiments {
		e := &p.Experiments[i]
		g := s.Genes[i]
		groups := e.groupsFromMask(g.GroupMask)
		names := make([]string, len(groups))
		for j, grp := range groups {
			names[j] = string(grp)
		}
		fmt.Fprintf(&b, "%-8s %-16s %6d %5d %6.1f%%  %s\n",
			e.ID, e.Practice, g.Start, g.Duration, g.Share*100, strings.Join(names, ","))
	}
	return b.String()
}

// RandomScheduleFrom constructively generates a schedule: experiments
// are placed one by one (in random order) into feasible slots, shares,
// and groups, tracking slot usage and group occupancy so the result is
// usually valid. The constructive bias matters: with high required
// sample sizes, uniformly random genes are almost never valid. Frozen
// genes of seed (nil for none) are committed first, verbatim, and the
// remaining experiments are placed around them: optimizers pass the
// reevaluation seed so already-running experiments are never moved.
func (p *Problem) RandomScheduleFrom(rng *rand.Rand, seed *Schedule) *Schedule {
	horizon := p.Profile.NumSlots()
	s := &Schedule{Genes: make([]Gene, len(p.Experiments))}
	usage := make([]float64, horizon)
	// groupBusy[group][slot] tracks occupancy.
	groupBusy := make(map[string][]bool)

	frozen := make([]bool, len(p.Experiments))
	if seed != nil && len(seed.Genes) == len(p.Experiments) {
		for i, g := range seed.Genes {
			if g.Frozen {
				frozen[i] = true
				s.Genes[i] = g
				commit(usage, groupBusy, &p.Experiments[i], g)
			}
		}
	}

	// First-fit decreasing: most demanding experiments are placed first
	// while capacity is plentiful. Half the time a random order is used
	// instead, which keeps GA populations diverse.
	order := rng.Perm(len(p.Experiments))
	if rng.Intn(2) == 0 {
		sort.SliceStable(order, func(a, b int) bool {
			return p.Experiments[order[a]].RequiredSamples > p.Experiments[order[b]].RequiredSamples
		})
	}
	for _, idx := range order {
		if frozen[idx] {
			continue
		}
		e := &p.Experiments[idx]
		g, ok := p.placeExperiment(e, rng, usage, groupBusy)
		if !ok {
			// Leave an intentionally invalid gene; the fitness penalty
			// steers search away from this configuration.
			g = Gene{Start: e.EarliestStart, Duration: e.MinDuration, Share: e.MinShare, GroupMask: 1}
		}
		s.Genes[idx] = g
	}
	return s
}

// placeExperiment tries up to placementAttempts placements that satisfy
// all constraints given current usage, committing the first fit. The
// key to making tight instances schedulable is capacity thrift: the
// share is set to the minimum that still collects the required sample
// size (plus slight jitter), never to an arbitrary random value — the
// same first-fit-with-minimal-demand idea classic bin-packing uses.
const placementAttempts = 80

func (p *Problem) placeExperiment(e *Experiment, rng *rand.Rand, usage []float64, groupBusy map[string][]bool) (Gene, bool) {
	horizon := p.Profile.NumSlots()
	latestEnd := e.latestEnd(horizon)
	maxDur := e.MaxDuration
	if e.EarliestStart+e.MinDuration > latestEnd {
		return Gene{}, false
	}
	if e.EarliestStart+maxDur > latestEnd {
		maxDur = latestEnd - e.EarliestStart
	}
	for attempt := 0; attempt < placementAttempts; attempt++ {
		// Early attempts favor long durations (low per-slot demand);
		// later attempts explore the full range.
		var dur int
		if attempt < placementAttempts/3 {
			dur = maxDur - rng.Intn(maxDur-e.MinDuration+1)/3
		} else {
			dur = e.MinDuration + rng.Intn(maxDur-e.MinDuration+1)
		}
		start := e.EarliestStart
		if span := latestEnd - dur - e.EarliestStart; span > 0 {
			start += rng.Intn(span + 1)
		}
		window := p.Profile.Window(start, dur)
		if window <= 0 {
			continue
		}
		// Minimal share collecting the required samples, with headroom
		// so profile noise does not trip the constraint check.
		needed := e.RequiredSamples / window * (1 + 0.02 + 0.05*rng.Float64())
		share := needed
		if share < e.MinShare {
			share = e.MinShare
		}
		if share > e.MaxShare {
			continue // this window is too small; try another placement
		}

		mask := placementMask(e, rng, attempt)
		g := Gene{Start: start, Duration: dur, Share: share, GroupMask: mask}
		if p.collected(e, g) < e.RequiredSamples {
			continue
		}
		if !fits(usage, g, p.Capacity) {
			continue
		}
		if groupsOccupied(groupBusy, e, g) {
			continue
		}
		commit(usage, groupBusy, e, g)
		return g, true
	}
	return Gene{}, false
}

// placementMask picks assigned groups: preferred groups first (coverage
// objective), falling back to a random single group — the fewer groups
// an experiment holds, the fewer exclusivity conflicts it creates.
func placementMask(e *Experiment, rng *rand.Rand, attempt int) uint64 {
	if len(e.PreferredGroups) > 0 && attempt%2 == 0 {
		var mask uint64
		for bi, cg := range e.CandidateGroups {
			for _, pg := range e.PreferredGroups {
				if cg == pg {
					mask |= 1 << uint(bi)
				}
			}
		}
		if mask != 0 {
			return mask
		}
	}
	return 1 << uint(rng.Intn(len(e.CandidateGroups)))
}

func fits(usage []float64, g Gene, capacity float64) bool {
	for t := g.Start; t < g.End() && t < len(usage); t++ {
		if usage[t]+g.Share > capacity+1e-9 {
			return false
		}
	}
	return true
}

func groupsOccupied(groupBusy map[string][]bool, e *Experiment, g Gene) bool {
	for bi, cg := range e.CandidateGroups {
		if g.GroupMask&(1<<uint(bi)) == 0 {
			continue
		}
		busy := groupBusy[string(cg)]
		for t := g.Start; t < g.End() && t < len(busy); t++ {
			if busy[t] {
				return true
			}
		}
	}
	return false
}

func commit(usage []float64, groupBusy map[string][]bool, e *Experiment, g Gene) {
	for t := g.Start; t < g.End() && t < len(usage); t++ {
		usage[t] += g.Share
	}
	for bi, cg := range e.CandidateGroups {
		if g.GroupMask&(1<<uint(bi)) == 0 {
			continue
		}
		busy := groupBusy[string(cg)]
		if busy == nil {
			busy = make([]bool, len(usage))
			groupBusy[string(cg)] = busy
		}
		for t := g.Start; t < g.End() && t < len(busy); t++ {
			busy[t] = true
		}
	}
}
