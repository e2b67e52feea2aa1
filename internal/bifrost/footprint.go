package bifrost

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"contexp/internal/expmodel"
	"contexp/internal/tenancy"
)

// This file states what an enacting strategy holds — its conflict
// footprint — and the one rule that decides whether a queued
// submission may join a set of them:
//
//   - exclusive ownership of a service's routing table is modeled as a
//     synthetic user group ("service/<name>") every strategy on that
//     service requires, so the users-in-at-most-one-experiment rule
//     doubles as routing-table conflict detection;
//   - the traffic share is the peak candidate exposure across phases,
//     and the duration the sum of the phases' dwell times (Phase.steps).

// serviceGroup is the synthetic user group that models exclusive
// ownership of a service's routing table.
func serviceGroup(service string) expmodel.UserGroup {
	return expmodel.UserGroup("service/" + service)
}

// strategyGroups returns the deduplicated, sorted union of the user
// groups a strategy's phases restrict traffic to.
func strategyGroups(s *Strategy) []expmodel.UserGroup {
	seen := make(map[expmodel.UserGroup]bool)
	for i := range s.Phases {
		for _, g := range s.Phases[i].Traffic.Groups {
			seen[g] = true
		}
	}
	out := make([]expmodel.UserGroup, 0, len(seen))
	for g := range seen {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// conflictGroups is the full conflict footprint: the service-ownership
// group plus the strategy's explicit user groups. Both are
// tenant-qualified — tenants route (and segment) disjoint user
// populations, so tenant A's "beta" group never collides with tenant
// B's, and same-named services across tenants enact concurrently.
func conflictGroups(s *Strategy) []expmodel.UserGroup {
	out := []expmodel.UserGroup{serviceGroup(s.RouteService())}
	for _, g := range strategyGroups(s) {
		out = append(out, expmodel.UserGroup(tenancy.Qualify(s.Tenant, string(g))))
	}
	return out
}

// peakShare estimates the peak share of users exposed to the candidate:
// the largest weight any phase's steps route. Mirrored (dark-launch)
// phases route weight zero; the floor keeps every footprint's share
// positive.
func peakShare(s *Strategy) float64 {
	peak := 0.01
	for i := range s.Phases {
		weights, _ := s.Phases[i].steps()
		for _, w := range weights {
			peak = max(peak, w)
		}
	}
	return peak
}

// estimateDuration sums the phases' nominal dwell times: each step of a
// phase dwells once. Retries and goto loops are not modeled: the
// estimate feeds the projection, and the scheduler tracks actual
// completion through Run.Done.
func estimateDuration(s *Strategy) time.Duration {
	var d time.Duration
	for i := range s.Phases {
		weights, dwell := s.Phases[i].steps()
		d += time.Duration(len(weights)) * dwell
	}
	return d
}

// commonGroups returns the conflict groups two footprints both hold, in
// a's order: what blockReason and verifyPair both call interference.
func commonGroups(a, b []expmodel.UserGroup) []expmodel.UserGroup {
	var out []expmodel.UserGroup
	for _, g := range a {
		if slices.Contains(b, g) {
			out = append(out, g)
		}
	}
	return out
}

// footprint is what one enacting run holds until it ends: a live run's
// actual holdings with its estimated end, or — in the projection — a
// queued entry's from its projected launch.
type footprint struct {
	name    string // strategy name, as block reasons cite it
	tenant  string
	service string // routing-table key (tenant-qualified)
	groups  []expmodel.UserGroup
	share   float64
	end     time.Time // estimated
}

// blockReason explains why an entry cannot join the set of footprints
// live ("" when it can). It is the scheduler's whole conflict rule: the
// launch pass asks it about the running set, the projection about the
// set it plays forward. Concurrency and candidate-traffic capacity are
// budgeted per tenant — each tenant exposes its own user population,
// so one tenant's experiments must not starve another's — while the
// group conflicts below are already tenant-disjoint because
// conflictGroups qualifies every group name.
func (c *SchedulerConfig) blockReason(qe *queueEntry, live []footprint) string {
	running, used := 0, 0.0
	for i := range live {
		if live[i].tenant == qe.strategy.Tenant {
			running++
			used += live[i].share
		}
	}
	if running >= c.MaxConcurrent {
		return fmt.Sprintf("max-concurrent reached (%d)", c.MaxConcurrent)
	}
	if used+qe.share > c.Capacity+1e-9 {
		return fmt.Sprintf("capacity: %.0f%% in use, needs %.0f%%, ceiling %.0f%%",
			used*100, qe.share*100, c.Capacity*100)
	}
	for i := range live {
		f := &live[i]
		shared := commonGroups(qe.groups, f.groups)
		switch {
		case len(shared) == 0:
		case shared[0] == serviceGroup(f.service):
			return fmt.Sprintf("service %q busy with run %q", f.service, f.name)
		default:
			return fmt.Sprintf("user group %q held by run %q", shared[0], f.name)
		}
	}
	return ""
}
