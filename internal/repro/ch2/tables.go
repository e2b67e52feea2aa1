package ch2

import (
	"fmt"
	"sort"
	"strings"
)

// This file recomputes the paper's survey tables from the synthesized
// respondent rows. Each table reports percentages for the strata the
// paper uses: all respondents, web vs. other application types, and
// company sizes.

// Row is one table row: a label and its percentage per stratum.
type Row struct {
	Label string
	// Pct maps stratum name ("all", "web", "other", "startup", "SME",
	// "corporation") to a percentage in [0,100].
	Pct map[string]float64
}

// Table is a recomputed survey table.
type Table struct {
	Title string
	// N maps stratum to its denominator.
	N    map[string]int
	Rows []Row
}

// Render formats the table like the paper's (percentages per stratum).
func (t *Table) Render() string {
	var b strings.Builder
	b.WriteString(t.Title + "\n")
	strata := []string{"all", "web", "other", "startup", "SME", "corporation"}
	fmt.Fprintf(&b, "%-22s", "")
	for _, s := range strata {
		fmt.Fprintf(&b, " %7s", fmt.Sprintf("%s", shortStratum(s)))
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-22s", "n =")
	for _, s := range strata {
		fmt.Fprintf(&b, " %7d", t.N[s])
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-22s", r.Label)
		for _, s := range strata {
			fmt.Fprintf(&b, " %6.0f%%", r.Pct[s])
		}
		b.WriteString("\n")
	}
	return b.String()
}

func shortStratum(s string) string {
	switch s {
	case "startup":
		return "start."
	case "corporation":
		return "corp."
	default:
		return s
	}
}

// strata buckets a respondent set by the paper's six columns.
func strata(rs []*Respondent) map[string][]*Respondent {
	out := map[string][]*Respondent{}
	for _, r := range rs {
		out["all"] = append(out["all"], r)
		if r.Web() {
			out["web"] = append(out["web"], r)
		} else {
			out["other"] = append(out["other"], r)
		}
		out[r.Size.String()] = append(out[r.Size.String()], r)
	}
	// Normalize the size keys to the render labels.
	out["corporation"] = out[SizeCorporation.String()]
	out["startup"] = out[SizeStartup.String()]
	out["SME"] = out[SizeSME.String()]
	return out
}

// buildTable computes percentage rows over the respondent base.
func buildTable(title string, base []*Respondent, labels []string, member func(*Respondent, string) bool) *Table {
	buckets := strata(base)
	t := &Table{Title: title, N: map[string]int{}}
	for s, rs := range buckets {
		t.N[s] = len(rs)
	}
	for _, label := range labels {
		row := Row{Label: label, Pct: map[string]float64{}}
		for s, rs := range buckets {
			if len(rs) == 0 {
				continue
			}
			var n int
			for _, r := range rs {
				if member(r, label) {
					n++
				}
			}
			row.Pct[s] = 100 * float64(n) / float64(len(rs))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

func (p *Population) all() []*Respondent {
	out := make([]*Respondent, len(p.Respondents))
	for i := range p.Respondents {
		out[i] = &p.Respondents[i]
	}
	return out
}

func (p *Population) filter(pred func(*Respondent) bool) []*Respondent {
	var out []*Respondent
	for i := range p.Respondents {
		if pred(&p.Respondents[i]) {
			out = append(out, &p.Respondents[i])
		}
	}
	return out
}

// Table2_2 — implementation techniques among experiment users.
func (p *Population) Table2_2() *Table {
	base := p.filter(func(r *Respondent) bool { return r.RegressionUse != RegNone })
	labels := []string{
		string(TechOther), string(TechPermissions), string(TechDontKnow),
		string(TechBinaries), string(TechTrafficRouting), string(TechFeatureToggles),
	}
	return buildTable("Table 2.2 — implementation techniques for continuous experimentation",
		base, labels, func(r *Respondent, label string) bool {
			return r.Techniques[Technique(label)]
		})
}

// Table2_3 — how production issues are detected.
func (p *Population) Table2_3() *Table {
	labels := []string{string(DetectOther), string(DetectMonitoring), string(DetectFeedback)}
	return buildTable("Table 2.3 — how issues are usually detected",
		p.all(), labels, func(r *Respondent, label string) bool {
			return r.Detection[Detection(label)]
		})
}

// Table2_4 — handoff of responsibility.
func (p *Population) Table2_4() *Table {
	labels := []string{
		string(HandoffDontKnow), string(HandoffPreprod), string(HandoffStaging),
		string(HandoffDev), string(HandoffNever),
	}
	return buildTable("Table 2.4 — phase after which developers hand off responsibility",
		p.all(), labels, func(r *Respondent, label string) bool {
			return r.Handoff == Handoff(label)
		})
}

// Table2_6 — usage of regression-driven experimentation.
func (p *Population) Table2_6() *Table {
	labels := []string{"for all features", "for some features", "no experimentation"}
	return buildTable("Table 2.6 — usage of regression-driven experimentation",
		p.all(), labels, func(r *Respondent, label string) bool {
			switch label {
			case "for all features":
				return r.RegressionUse == RegAllFeatures
			case "for some features":
				return r.RegressionUse == RegSomeFeatures
			default:
				return r.RegressionUse == RegNone
			}
		})
}

// Table2_7 — reasons against regression-driven experiments.
func (p *Population) Table2_7() *Table {
	base := p.filter(func(r *Respondent) bool { return r.RegressionUse == RegNone })
	labels := []string{
		string(ReasonOther), string(ReasonExpertise), string(ReasonNoSense),
		string(ReasonCustomers), string(ReasonArchitecture),
	}
	return buildTable("Table 2.7 — reasons against regression-driven experiments",
		base, labels, func(r *Respondent, label string) bool {
			return r.ReasonsRegression[Reason(label)]
		})
}

// Table2_8 — reasons against business-driven experiments.
func (p *Population) Table2_8() *Table {
	base := p.filter(func(r *Respondent) bool { return !r.UsesABTesting })
	labels := []string{
		string(ReasonOther), string(ReasonDontKnow), string(ReasonKnowledge),
		string(ReasonPolicy), string(ReasonUsers), string(ReasonInvestments),
		string(ReasonArchitecture),
	}
	return buildTable("Table 2.8 — reasons against business-driven experiments",
		base, labels, func(r *Respondent, label string) bool {
			return r.ReasonsBusiness[Reason(label)]
		})
}

// ABTestingAdoption returns the fraction of respondents using A/B
// testing (the paper reports 23%).
func (p *Population) ABTestingAdoption() float64 {
	var n int
	for i := range p.Respondents {
		if p.Respondents[i].UsesABTesting {
			n++
		}
	}
	return float64(n) / float64(len(p.Respondents))
}

// Demographics renders the Fig 2.3 counts.
func (p *Population) Demographics() string {
	sizes := map[string]int{}
	apps := map[string]int{}
	for i := range p.Respondents {
		r := &p.Respondents[i]
		sizes[r.Size.String()]++
		apps[r.App.String()]++
	}
	var b strings.Builder
	b.WriteString("Figure 2.3 — survey demographics\n")
	b.WriteString("company size:\n")
	for _, k := range sortedKeys(sizes) {
		fmt.Fprintf(&b, "  %-22s %d\n", k, sizes[k])
	}
	b.WriteString("application type:\n")
	for _, k := range sortedKeys(apps) {
		fmt.Fprintf(&b, "  %-22s %d\n", k, apps[k])
	}
	return b.String()
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// AllTables renders every reproduced table.
func (p *Population) AllTables() string {
	var b strings.Builder
	b.WriteString(RenderTable2_1())
	b.WriteString("\n")
	b.WriteString(p.Demographics())
	b.WriteString("\n")
	for _, t := range []*Table{
		p.Table2_2(), p.Table2_3(), p.Table2_4(),
		p.Table2_6(), p.Table2_7(), p.Table2_8(),
	} {
		b.WriteString(t.Render())
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "A/B testing adoption (Section 2.6.2): %.0f%%\n\n", 100*p.ABTestingAdoption())
	b.WriteString(RenderTable2_9())
	return b.String()
}
