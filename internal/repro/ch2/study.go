// Package ch2 reproduces the quantitative results of the paper's
// Chapter 2 empirical study ("We're Doing It Live"). The original data
// — 187 survey responses — is not public, so the package synthesizes a
// respondent population that matches every published per-stratum
// marginal (web vs. other application types) using deterministic
// quotas, and then recomputes Tables 2.2–2.8 and the Fig 2.3
// demographics from the per-respondent rows. This exercises the full
// table-generation pipeline: the printed tables are derived from
// individual answers, not copied from the paper.
//
// The published marginals are internally consistent in ways the
// generator relies on and tests verify: the 37% regression-experiment
// adoption of Table 2.6 yields exactly the n=70 basis of Table 2.2, its
// complement the n=117 basis of Table 2.7, and the 23% A/B-testing
// adoption the n=144 basis of Table 2.8.
package ch2

import (
	"math/rand"
	"sort"
)

// AppType is the primary application model of a respondent's product.
type AppType int

// Application types of Fig 2.3.
const (
	AppWeb AppType = iota + 1
	AppEnterprise
	AppDesktop
	AppMobile
	AppEmbedded
	AppOther
)

// String names the application type.
func (a AppType) String() string {
	switch a {
	case AppWeb:
		return "web"
	case AppEnterprise:
		return "enterprise"
	case AppDesktop:
		return "desktop"
	case AppMobile:
		return "mobile"
	case AppEmbedded:
		return "embedded"
	default:
		return "other"
	}
}

// CompanySize buckets of Fig 2.3.
type CompanySize int

// Company sizes.
const (
	SizeStartup CompanySize = iota + 1
	SizeSME
	SizeCorporation
)

// String names the size.
func (s CompanySize) String() string {
	switch s {
	case SizeStartup:
		return "startup"
	case SizeSME:
		return "SME"
	default:
		return "corporation"
	}
}

// RegUse is the regression-driven experimentation usage (Table 2.6).
type RegUse int

// Regression experimentation usage levels.
const (
	RegAllFeatures RegUse = iota + 1
	RegSomeFeatures
	RegNone
)

// Technique is an experiment implementation technique (Table 2.2).
type Technique string

// Implementation techniques.
const (
	TechFeatureToggles Technique = "feature toggles"
	TechTrafficRouting Technique = "traffic routing"
	TechBinaries       Technique = "binaries"
	TechPermissions    Technique = "permissions"
	TechDontKnow       Technique = "dont' know"
	TechOther          Technique = "other"
)

// Detection is how production issues are found (Table 2.3).
type Detection string

// Issue-detection channels.
const (
	DetectMonitoring Detection = "monitoring"
	DetectFeedback   Detection = "customer feedback"
	DetectOther      Detection = "don't know + other"
)

// Handoff is the phase after which developers hand off responsibility
// (Table 2.4).
type Handoff string

// Handoff phases.
const (
	HandoffNever    Handoff = "never"
	HandoffDev      Handoff = "development"
	HandoffStaging  Handoff = "staging"
	HandoffPreprod  Handoff = "preproduction"
	HandoffDontKnow Handoff = "don't know + other"
)

// Reason is a reason against conducting experiments (Tables 2.7, 2.8).
type Reason string

// Reasons against experimentation.
const (
	ReasonArchitecture Reason = "architecture"
	ReasonCustomers    Reason = "number customers" // regression variant
	ReasonUsers        Reason = "number of users"  // business variant
	ReasonNoSense      Reason = "no business sense"
	ReasonExpertise    Reason = "lack of expertise"
	ReasonKnowledge    Reason = "lack of knowledge"
	ReasonInvestments  Reason = "investments"
	ReasonPolicy       Reason = "policy / domain"
	ReasonDontKnow     Reason = "don't know"
	ReasonOther        Reason = "other"
)

// Respondent is one synthesized survey answer sheet.
type Respondent struct {
	ID              int
	App             AppType
	Size            CompanySize
	ExperienceYears int

	RegressionUse RegUse
	UsesABTesting bool

	Techniques map[Technique]bool
	Detection  map[Detection]bool
	Handoff    Handoff

	// ReasonsRegression is answered by respondents with RegNone.
	ReasonsRegression map[Reason]bool
	// ReasonsBusiness is answered by respondents without A/B testing.
	ReasonsBusiness map[Reason]bool
}

// Web reports whether the respondent builds Web applications; the
// paper's tables split on this.
func (r *Respondent) Web() bool { return r.App == AppWeb }

// Population is the full synthesized survey.
type Population struct {
	Respondents []Respondent
}

// TotalRespondents matches the paper's 187 complete responses.
const TotalRespondents = 187

// Generate synthesizes the population. The same seed yields the same
// population; quotas guarantee the published marginals regardless of
// seed (the seed only shuffles which individual holds which answer).
func Generate(seed int64) *Population {
	rng := rand.New(rand.NewSource(seed))
	rs := make([]Respondent, TotalRespondents)
	for i := range rs {
		rs[i] = Respondent{
			ID:                i + 1,
			Techniques:        make(map[Technique]bool),
			Detection:         make(map[Detection]bool),
			ReasonsRegression: make(map[Reason]bool),
			ReasonsBusiness:   make(map[Reason]bool),
		}
	}

	all := make([]*Respondent, len(rs))
	for i := range rs {
		all[i] = &rs[i]
	}

	// Fig 2.3 demographics: application types (single choice, sums to 187).
	assignSingle(rng, all, func(r *Respondent, v int) { r.App = AppType(v) }, map[int]int{
		int(AppWeb): 105, int(AppEnterprise): 34, int(AppDesktop): 23,
		int(AppMobile): 10, int(AppEmbedded): 8, int(AppOther): 7,
	})
	// Company sizes: 35 startups, 99 SMEs, 53 corporations.
	assignSingle(rng, all, func(r *Respondent, v int) { r.Size = CompanySize(v) }, map[int]int{
		int(SizeStartup): 35, int(SizeSME): 99, int(SizeCorporation): 53,
	})
	// Experience buckets (0-2, 3-5, 6-10, >10): 62/62/47/16, mean ≈ 8y
	// in the paper; we store a representative year value per bucket.
	assignSingle(rng, all, func(r *Respondent, v int) { r.ExperienceYears = v }, map[int]int{
		1: 62, 4: 62, 8: 47, 12: 16,
	})

	web, other := split(rs)

	// Table 2.6 — regression-driven experimentation usage (single
	// choice; the quotas make the Table 2.2/2.7 bases come out exactly).
	assignSingle(rng, web, func(r *Respondent, v int) { r.RegressionUse = RegUse(v) }, map[int]int{
		int(RegAllFeatures): 16, int(RegSomeFeatures): 22, int(RegNone): 67,
	})
	assignSingle(rng, other, func(r *Respondent, v int) { r.RegressionUse = RegUse(v) }, map[int]int{
		int(RegAllFeatures): 18, int(RegSomeFeatures): 14, int(RegNone): 50,
	})

	// A/B testing: 43 users overall, 27 of them web (63%).
	assignBool(rng, web, func(r *Respondent, v bool) { r.UsesABTesting = v }, 27)
	assignBool(rng, other, func(r *Respondent, v bool) { r.UsesABTesting = v }, 16)

	// Table 2.2 — implementation techniques among experiment users
	// (38 web / 32 other).
	expWeb, expOther := filterSplit(rs, func(r *Respondent) bool { return r.RegressionUse != RegNone })
	techQuota := []quotaPair[Technique]{
		{TechFeatureToggles, 17, 8},
		{TechTrafficRouting, 17, 4},
		{TechBinaries, 5, 15},
		{TechPermissions, 7, 5},
		{TechDontKnow, 5, 9},
		{TechOther, 3, 1},
	}
	for _, q := range techQuota {
		assignBool(rng, expWeb, func(r *Respondent, v bool) { r.Techniques[q.value] = v }, q.web)
		assignBool(rng, expOther, func(r *Respondent, v bool) { r.Techniques[q.value] = v }, q.other)
	}

	// Table 2.3 — issue detection (multiple choice, all respondents).
	detQuota := []quotaPair[Detection]{
		{DetectMonitoring, 87, 55},
		{DetectFeedback, 85, 74},
		{DetectOther, 2, 5},
	}
	for _, q := range detQuota {
		assignBool(rng, web, func(r *Respondent, v bool) { r.Detection[q.value] = v }, q.web)
		assignBool(rng, other, func(r *Respondent, v bool) { r.Detection[q.value] = v }, q.other)
	}

	// Table 2.4 — responsibility handoff (single choice).
	assignSingleStr(rng, web, func(r *Respondent, v Handoff) { r.Handoff = v }, []quotaStr[Handoff]{
		{HandoffNever, 64}, {HandoffDev, 13}, {HandoffStaging, 16},
		{HandoffPreprod, 10}, {HandoffDontKnow, 2},
	})
	assignSingleStr(rng, other, func(r *Respondent, v Handoff) { r.Handoff = v }, []quotaStr[Handoff]{
		{HandoffNever, 41}, {HandoffDev, 23}, {HandoffStaging, 7},
		{HandoffPreprod, 7}, {HandoffDontKnow, 4},
	})

	// Table 2.7 — reasons against regression-driven experiments
	// (67 web / 50 other non-users).
	nonWeb, nonOther := filterSplit(rs, func(r *Respondent) bool { return r.RegressionUse == RegNone })
	regReasons := []quotaPair[Reason]{
		{ReasonArchitecture, 43, 24},
		{ReasonCustomers, 31, 15},
		{ReasonNoSense, 26, 20},
		{ReasonExpertise, 18, 12},
		{ReasonOther, 1, 5},
	}
	for _, q := range regReasons {
		assignBool(rng, nonWeb, func(r *Respondent, v bool) { r.ReasonsRegression[q.value] = v }, q.web)
		assignBool(rng, nonOther, func(r *Respondent, v bool) { r.ReasonsRegression[q.value] = v }, q.other)
	}

	// Table 2.8 — reasons against business-driven experiments
	// (78 web / 66 other non-A/B-users).
	noABWeb, noABOther := filterSplit(rs, func(r *Respondent) bool { return !r.UsesABTesting })
	bizReasons := []quotaPair[Reason]{
		{ReasonArchitecture, 41, 31},
		{ReasonInvestments, 27, 20},
		{ReasonUsers, 25, 15},
		{ReasonPolicy, 11, 19},
		{ReasonKnowledge, 15, 7},
		{ReasonDontKnow, 4, 4},
		{ReasonOther, 3, 5},
	}
	for _, q := range bizReasons {
		assignBool(rng, noABWeb, func(r *Respondent, v bool) { r.ReasonsBusiness[q.value] = v }, q.web)
		assignBool(rng, noABOther, func(r *Respondent, v bool) { r.ReasonsBusiness[q.value] = v }, q.other)
	}

	return &Population{Respondents: rs}
}

// --- quota assignment helpers ---
//
// Helpers operate on []*Respondent views so different question bases
// (all respondents, experiment users, non-users) alias the same
// population.

// assignSingle distributes exclusive integer values by exact counts.
func assignSingle(rng *rand.Rand, rs []*Respondent, set func(*Respondent, int), counts map[int]int) {
	order := rng.Perm(len(rs))
	keys := make([]int, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	i := 0
	for _, k := range keys {
		for n := 0; n < counts[k] && i < len(order); n++ {
			set(rs[order[i]], k)
			i++
		}
	}
	// Any remainder (counts summing below len) keeps zero values.
}

type quotaStr[T ~string] struct {
	value T
	count int
}

// quotaPair is one multiple-choice answer with its web and other
// quotas. The quotas are slices, not maps: every assignBool draws from
// the seeded RNG, so the order must be fixed for a seed to mean anything.
type quotaPair[T ~string] struct {
	value      T
	web, other int
}

func assignSingleStr[T ~string](rng *rand.Rand, rs []*Respondent, set func(*Respondent, T), quotas []quotaStr[T]) {
	order := rng.Perm(len(rs))
	i := 0
	for _, q := range quotas {
		for n := 0; n < q.count && i < len(order); n++ {
			set(rs[order[i]], q.value)
			i++
		}
	}
}

// assignBool marks exactly `count` respondents true and the rest false.
func assignBool(rng *rand.Rand, rs []*Respondent, set func(*Respondent, bool), count int) {
	order := rng.Perm(len(rs))
	for i, idx := range order {
		set(rs[idx], i < count)
	}
}

// split partitions the population into web and other views.
func split(rs []Respondent) (web, other []*Respondent) {
	return filterSplit(rs, func(*Respondent) bool { return true })
}

// filterSplit selects respondents matching pred and splits them into
// web/other pointer views backed by the population.
func filterSplit(rs []Respondent, pred func(*Respondent) bool) (web, other []*Respondent) {
	for i := range rs {
		r := &rs[i]
		if !pred(r) {
			continue
		}
		if r.Web() {
			web = append(web, r)
		} else {
			other = append(other, r)
		}
	}
	return web, other
}
