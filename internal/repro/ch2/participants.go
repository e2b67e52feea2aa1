package ch2

import (
	"fmt"
	"strings"
)

// This file embeds the interview-study participants of Table 2.1 —
// the one per-row dataset Chapter 2 publishes in full — and renders the
// table. The practice-usage matrix of Table 2.9 is published only as a
// color-coded figure; the booleans here reflect usages explicitly
// attributable from the paper's prose and table ordering and are
// marked approximate in the rendering.

// Participant is one interviewee of the qualitative study rounds.
type Participant struct {
	ID        string // P1–P20 (round 1), D1–D11 (round 2)
	Company   string // startup, SME, corporation
	Country   string
	App       string // application type
	Domain    string
	Role      string
	YearsExp  int // total experience
	YearsHere int // in company
	TeamSize  string
}

// Participants returns the 31 interviewees of Table 2.1.
func Participants() []Participant {
	return []Participant{
		{"P1", "SME", "AT", "Web", "Sports News & Streaming", "DevOps Engineer", 3, 3, "3-6"},
		{"P2", "SME", "AT", "Enterprise SW", "Document Composition", "Software Engineer", 4, 4, "3-5"},
		{"P3", "SME", "CH", "Web", "Employee Management", "Software Engineer", 10, 5, "1-3"},
		{"P4", "SME", "CH", "Web", "Telecommunication", "Software Engineer", 15, 4, "3-7"},
		{"P5", "SME", "AT", "Web", "Online Retail", "Software Architect", 5, 5, "15-20"},
		{"P6", "SME", "AT", "Desktop", "SharePoint", "Software Engineer", 4, 4, "2-7"},
		{"P7", "corporation", "UA", "Web", "Employee Management", "Software Engineer", 5, 5, "4-6"},
		{"P8", "SME", "AT", "Enterprise SW", "Insurance", "Software Engineer", 12, 12, "5-8"},
		{"P9", "SME", "CH", "Enterprise SW", "E-Government", "Solution Architect", 13, 13, "4-6"},
		{"P10", "SME", "CH", "Web", "Mobile Payment", "Solution Architect", 16, 6, "60-70"},
		{"P11", "SME", "CH", "Web", "Mobile Payment", "Solution Architect", 11, 4, "15-20"},
		{"P12", "corporation", "DE", "Web", "Cloud Provider", "DevOps Engineer", 1, 1, "9-11"},
		{"P13", "startup", "AT", "Web", "Online Code Quality Analysis", "DevOps Engineer", 16, 1, "1"},
		{"P14", "corporation", "IE", "Web", "Network Monitoring", "Public Cloud Architect", 10, 1, "6-8"},
		{"P15", "corporation", "US", "Web", "Cloud Provider", "Program Manager", 15, 3, "8-10"},
		{"P16", "SME", "AT", "Enterprise SW", "E-Government", "Project Lead", 15, 9, "3-7"},
		{"P17", "startup", "US", "Web", "Babysitter Platform", "Software Engineer", 4, 2, "6-8"},
		{"P18", "startup", "US", "Web", "Event Management", "Director of Engineering", 5, 1, "5-7"},
		{"P19", "SME", "US", "Web", "E-Commerce Platform", "Software Engineer", 5, 3, "3-7"},
		{"P20", "SME", "AT", "Embedded SW", "Automotive Software", "Software Engineer", 3, 3, "3-5"},
		{"D1", "SME", "US", "Web", "CMS Provider", "DevOps Engineer", 10, 1, "3-5"},
		{"D2", "SME", "DE", "Web", "Q&A Platform", "Head of Development", 10, 3, "4-7"},
		{"D3", "startup", "CH", "Web", "HR Software", "Head of Development", 10, 7, "4-5"},
		{"D4", "SME", "DE", "Web", "Travel Reviews & Booking", "Software Engineer", 7, 2, "5-7"},
		{"D5", "SME", "DE", "Web", "Travel Reviews & Booking", "Software Engineer", 8, 2, "4-6"},
		{"D6", "corporation", "CH", "Web", "Telecommunication", "Team Lead", 5, 4, "7-9"},
		{"D7", "corporation", "UK", "Web", "Scientific Publisher", "Director of Engineering", 9, 3, "3-12"},
		{"D8", "SME", "CH", "Web", "Network Services", "Team Lead", 30, 3, "5-8"},
		{"D9", "corporation", "US", "Web", "Video Streaming", "Head Release Engineering", 19, 3, "5-9"},
		{"D10", "SME", "CH", "Web", "Sustainability Solutions", "DevOps Engineer", 10, 8, "1-4"},
		{"D11", "corporation", "CH", "Web", "Telecommunication", "Software Engineer", 10, 2, "5-10"},
	}
}

// RenderTable2_1 formats the participant table.
func RenderTable2_1() string {
	var b strings.Builder
	b.WriteString("Table 2.1 — interview study participants of both rounds\n")
	fmt.Fprintf(&b, "%-4s %-12s %-3s %-13s %-28s %-25s %5s %5s %6s\n",
		"ID", "company", "cc", "app type", "domain", "role", "years", "here", "team")
	for _, p := range Participants() {
		fmt.Fprintf(&b, "%-4s %-12s %-3s %-13s %-28s %-25s %5d %5d %6s\n",
			p.ID, p.Company, p.Country, p.App, p.Domain, p.Role, p.YearsExp, p.YearsHere, p.TeamSize)
	}
	return b.String()
}

// PracticeUsage is one interviewee's reported usage of experimentation
// practices (Table 2.9, approximate — see file comment).
type PracticeUsage struct {
	ID                 string
	Microservices      bool
	FeatureToggles     bool
	TrafficRouting     bool
	EarlyAccess        bool
	DevOnCall          bool
	RegressionExp      bool
	BusinessExp        bool
	PlannedBusinessExp bool
}

// PracticeUsages returns the Table 2.9 matrix for interviewees whose
// usage the paper's prose identifies explicitly. The paper orders the
// table's columns by usage intensity; we include the participants the
// text names for each practice.
func PracticeUsages() []PracticeUsage {
	return []PracticeUsage{
		// Heavy experimentation users named throughout Sections 2.5-2.6.
		{ID: "D9", Microservices: true, FeatureToggles: true, TrafficRouting: true, DevOnCall: true, RegressionExp: true, BusinessExp: true},
		{ID: "D2", Microservices: true, FeatureToggles: true, TrafficRouting: true, DevOnCall: true, RegressionExp: true, BusinessExp: true},
		{ID: "D4", Microservices: true, TrafficRouting: true, DevOnCall: true, RegressionExp: true, BusinessExp: true},
		{ID: "D5", Microservices: true, TrafficRouting: true, DevOnCall: true, RegressionExp: true, BusinessExp: true},
		{ID: "D1", Microservices: true, FeatureToggles: true, DevOnCall: true, RegressionExp: true, BusinessExp: true},
		{ID: "D7", Microservices: true, FeatureToggles: true, DevOnCall: true, RegressionExp: true},
		{ID: "P19", Microservices: true, FeatureToggles: true, RegressionExp: true, BusinessExp: true},
		{ID: "P14", Microservices: true, DevOnCall: true, RegressionExp: true},
		{ID: "P12", Microservices: true, RegressionExp: true},
		{ID: "P4", TrafficRouting: true, RegressionExp: true},
		{ID: "P17", BusinessExp: true, DevOnCall: true},
		{ID: "D3", EarlyAccess: true, PlannedBusinessExp: true},
		{ID: "P8", EarlyAccess: true},
		{ID: "P9", EarlyAccess: true},
		{ID: "P16", DevOnCall: true},
		{ID: "P13", DevOnCall: true},
	}
}

// RenderTable2_9 formats the (approximate) practice-usage matrix.
func RenderTable2_9() string {
	var b strings.Builder
	b.WriteString("Table 2.9 — usage of experimentation practices (approximate: entries\n")
	b.WriteString("attributable from the paper's prose; the original is a color-coded figure)\n")
	fmt.Fprintf(&b, "%-5s %-6s %-8s %-8s %-6s %-7s %-9s %-9s\n",
		"ID", "µsvc", "toggles", "routing", "early", "oncall", "regr.exp", "biz.exp")
	mark := func(v bool) string {
		if v {
			return "x"
		}
		return ""
	}
	for _, u := range PracticeUsages() {
		biz := mark(u.BusinessExp)
		if u.PlannedBusinessExp {
			biz = "plan"
		}
		fmt.Fprintf(&b, "%-5s %-6s %-8s %-8s %-6s %-7s %-9s %-9s\n",
			u.ID, mark(u.Microservices), mark(u.FeatureToggles), mark(u.TrafficRouting),
			mark(u.EarlyAccess), mark(u.DevOnCall), mark(u.RegressionExp), biz)
	}
	return b.String()
}
