package bifrost

import (
	"fmt"

	"contexp/internal/expmodel"
)

// This file implements experiment verification, the future-work
// direction of the paper's Section 1.6.4: "identify upfront whether a
// defined experiment could negatively interfere with other planned or
// currently running experiments". Verification is static — it inspects
// strategy definitions, not runtime state — so conflicts surface
// before any user is exposed.

// ConflictKind classifies a detected interference.
type ConflictKind int

// Conflict kinds.
const (
	// ConflictSameService: two strategies manipulate the routing of the
	// same service; their phases would overwrite each other's routes.
	ConflictSameService ConflictKind = iota + 1
	// ConflictSharedGroups: two strategies pin overlapping user groups
	// to candidates, so a user could be part of two experiments at
	// once, skewing both measurements (the execution-time analog of
	// Fenrir's overlap constraint).
	ConflictSharedGroups
	// ConflictVersionClash: one strategy's baseline is another's
	// candidate for the same service — their success criteria are
	// contradictory.
	ConflictVersionClash
)

// String names the kind.
func (k ConflictKind) String() string {
	switch k {
	case ConflictSameService:
		return "same-service"
	case ConflictSharedGroups:
		return "shared-groups"
	case ConflictVersionClash:
		return "version-clash"
	default:
		return fmt.Sprintf("conflict(%d)", int(k))
	}
}

// Conflict is one detected interference between two strategies.
type Conflict struct {
	Kind ConflictKind
	A, B string // strategy names
	// Detail explains the interference.
	Detail string
}

// String renders the conflict.
func (c Conflict) String() string {
	return fmt.Sprintf("%s: %q <-> %q (%s)", c.Kind, c.A, c.B, c.Detail)
}

// Verify checks a set of strategies for pairwise interference. Every
// strategy must individually pass Validate first; Verify returns an
// error for invalid inputs and the (possibly empty) conflict list for
// valid ones.
func Verify(strategies []*Strategy) ([]Conflict, error) {
	for _, s := range strategies {
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	var out []Conflict
	for i := 0; i < len(strategies); i++ {
		for j := i + 1; j < len(strategies); j++ {
			out = append(out, verifyPair(strategies[i], strategies[j])...)
		}
	}
	return out, nil
}

// verifyPair reports the (tenant-qualified) conflict groups two
// footprints share, as blockReason does: the service group is a
// same-service conflict, any other a shared user group. Only the version
// clash is this pass's own; no footprint holds versions.
func verifyPair(a, b *Strategy) []Conflict {
	var out []Conflict
	var users []expmodel.UserGroup
	for _, g := range commonGroups(conflictGroups(a), conflictGroups(b)) {
		if g != serviceGroup(a.RouteService()) {
			users = append(users, g)
			continue
		}
		out = append(out, Conflict{
			Kind: ConflictSameService, A: a.Name, B: b.Name,
			Detail: fmt.Sprintf("both route service %q", a.RouteService()),
		})
		if a.Baseline == b.Candidate || b.Baseline == a.Candidate {
			out = append(out, Conflict{
				Kind: ConflictVersionClash, A: a.Name, B: b.Name,
				Detail: fmt.Sprintf("one strategy's baseline is the other's candidate on %q", a.RouteService()),
			})
		}
	}
	if len(users) > 0 {
		out = append(out, Conflict{
			Kind: ConflictSharedGroups, A: a.Name, B: b.Name,
			Detail: fmt.Sprintf("user groups %v would be in both experiments", users),
		})
	}
	return out
}

// LaunchVerified launches a strategy only if it does not conflict with
// any strategy currently running on the engine. The returned conflicts
// are non-nil exactly when the launch was refused.
func (e *Engine) LaunchVerified(s *Strategy) (*Run, []Conflict, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	var conflicts []Conflict
	e.mu.Lock()
	for _, r := range e.runs {
		if r.Status() == StatusRunning {
			conflicts = append(conflicts, verifyPair(s, r.strategy)...)
		}
	}
	e.mu.Unlock()
	if len(conflicts) > 0 {
		return nil, conflicts, fmt.Errorf("bifrost: strategy %q conflicts with %d running strategies", s.Name, len(conflicts))
	}
	run, err := e.Launch(s)
	return run, nil, err
}
