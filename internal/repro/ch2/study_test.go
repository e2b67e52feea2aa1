package ch2

import (
	"math"
	"strings"
	"testing"
)

// pct looks up a row's percentage for a stratum (-1 when missing), to
// compare against the paper's published values.
func pct(t *Table, label, stratum string) float64 {
	for _, r := range t.Rows {
		if r.Label == label {
			if v, ok := r.Pct[stratum]; ok {
				return v
			}
			return -1
		}
	}
	return -1
}

// paperValue asserts a recomputed percentage is within tol points of
// the paper's published value.
func assertPct(t *testing.T, tbl *Table, label, stratum string, want, tol float64) {
	t.Helper()
	got := pct(tbl, label, stratum)
	if got < 0 {
		t.Fatalf("%s: row %q stratum %q missing", tbl.Title, label, stratum)
	}
	if math.Abs(got-want) > tol {
		t.Errorf("%s: %q/%s = %.1f%%, paper reports %.0f%% (tol %.0f)", tbl.Title, label, stratum, got, want, tol)
	}
}

func TestPopulationSizeAndDemographics(t *testing.T) {
	p := Generate(1)
	if len(p.Respondents) != TotalRespondents {
		t.Fatalf("respondents = %d", len(p.Respondents))
	}
	var web, startups, smes, corps int
	for i := range p.Respondents {
		r := &p.Respondents[i]
		if r.Web() {
			web++
		}
		switch r.Size {
		case SizeStartup:
			startups++
		case SizeSME:
			smes++
		case SizeCorporation:
			corps++
		}
	}
	if web != 105 {
		t.Errorf("web = %d, want 105", web)
	}
	if startups != 35 || smes != 99 || corps != 53 {
		t.Errorf("sizes = %d/%d/%d, want 35/99/53", startups, smes, corps)
	}
}

func TestTable2_2MatchesPaper(t *testing.T) {
	tbl := Generate(1).Table2_2()
	if tbl.N["all"] != 70 || tbl.N["web"] != 38 || tbl.N["other"] != 32 {
		t.Fatalf("bases = %d/%d/%d, want 70/38/32", tbl.N["all"], tbl.N["web"], tbl.N["other"])
	}
	assertPct(t, tbl, string(TechFeatureToggles), "all", 36, 2)
	assertPct(t, tbl, string(TechFeatureToggles), "web", 45, 2)
	assertPct(t, tbl, string(TechFeatureToggles), "other", 25, 2)
	assertPct(t, tbl, string(TechTrafficRouting), "web", 45, 2)
	assertPct(t, tbl, string(TechTrafficRouting), "other", 12, 2)
	assertPct(t, tbl, string(TechBinaries), "all", 29, 2)
	assertPct(t, tbl, string(TechBinaries), "other", 47, 2)
}

func TestTable2_3MatchesPaper(t *testing.T) {
	tbl := Generate(1).Table2_3()
	if tbl.N["all"] != 187 {
		t.Fatalf("base = %d", tbl.N["all"])
	}
	assertPct(t, tbl, string(DetectMonitoring), "all", 76, 2)
	assertPct(t, tbl, string(DetectMonitoring), "web", 83, 2)
	assertPct(t, tbl, string(DetectMonitoring), "other", 67, 2)
	assertPct(t, tbl, string(DetectFeedback), "all", 85, 2)
	assertPct(t, tbl, string(DetectFeedback), "other", 90, 2)
}

func TestTable2_4MatchesPaper(t *testing.T) {
	tbl := Generate(1).Table2_4()
	assertPct(t, tbl, string(HandoffNever), "all", 56, 2)
	assertPct(t, tbl, string(HandoffNever), "web", 61, 2)
	assertPct(t, tbl, string(HandoffNever), "other", 50, 2)
	assertPct(t, tbl, string(HandoffDev), "other", 28, 2)
	// Single choice: each stratum's rows sum to 100%.
	for _, stratum := range []string{"all", "web", "other"} {
		var sum float64
		for _, r := range tbl.Rows {
			sum += r.Pct[stratum]
		}
		if math.Abs(sum-100) > 0.5 {
			t.Errorf("%s rows sum to %.1f%%", stratum, sum)
		}
	}
}

func TestTable2_6MatchesPaper(t *testing.T) {
	tbl := Generate(1).Table2_6()
	assertPct(t, tbl, "no experimentation", "all", 63, 2)
	assertPct(t, tbl, "for all features", "all", 18, 2)
	assertPct(t, tbl, "for some features", "all", 19, 2)
	assertPct(t, tbl, "no experimentation", "web", 64, 2)
	assertPct(t, tbl, "no experimentation", "other", 61, 2)
}

func TestTable2_7MatchesPaper(t *testing.T) {
	tbl := Generate(1).Table2_7()
	if tbl.N["all"] != 117 {
		t.Fatalf("base = %d, want 117", tbl.N["all"])
	}
	assertPct(t, tbl, string(ReasonArchitecture), "all", 57, 2)
	assertPct(t, tbl, string(ReasonArchitecture), "web", 64, 2)
	assertPct(t, tbl, string(ReasonArchitecture), "other", 48, 2)
	assertPct(t, tbl, string(ReasonCustomers), "web", 46, 2)
	assertPct(t, tbl, string(ReasonNoSense), "all", 39, 2)
}

func TestTable2_8MatchesPaper(t *testing.T) {
	tbl := Generate(1).Table2_8()
	if tbl.N["all"] != 144 {
		t.Fatalf("base = %d, want 144", tbl.N["all"])
	}
	assertPct(t, tbl, string(ReasonArchitecture), "all", 50, 2)
	assertPct(t, tbl, string(ReasonArchitecture), "web", 53, 2)
	assertPct(t, tbl, string(ReasonInvestments), "all", 33, 2)
	assertPct(t, tbl, string(ReasonUsers), "web", 32, 2)
	assertPct(t, tbl, string(ReasonPolicy), "other", 29, 2)
}

func TestABTestingAdoption(t *testing.T) {
	p := Generate(1)
	if got := p.ABTestingAdoption(); math.Abs(got-0.23) > 0.01 {
		t.Errorf("A/B adoption = %.3f, paper reports 23%%", got)
	}
}

func TestMarginalsSeedIndependent(t *testing.T) {
	// Quotas guarantee marginals for any seed; seeds only shuffle
	// individuals.
	a := Generate(1).Table2_2()
	b := Generate(42).Table2_2()
	for _, row := range a.Rows {
		if math.Abs(row.Pct["web"]-pct(b, row.Label, "web")) > 0.01 {
			t.Errorf("%s web marginal depends on seed", row.Label)
		}
	}
}

// The per-company-size columns depend on which individual holds which
// answer, so they are the part a seed has to pin.
func TestSameSeedSameTables(t *testing.T) {
	first := Generate(1).AllTables()
	for i := 0; i < 5; i++ {
		if again := Generate(1).AllTables(); again != first {
			t.Fatalf("Generate(1) rendered different tables on run %d", i+2)
		}
	}
}

func TestRenderAllTables(t *testing.T) {
	out := Generate(1).AllTables()
	for _, want := range []string{
		"Figure 2.3", "Table 2.2", "Table 2.3", "Table 2.4",
		"Table 2.6", "Table 2.7", "Table 2.8", "feature toggles",
		"A/B testing adoption",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("AllTables missing %q", want)
		}
	}
}

func TestEnumStrings(t *testing.T) {
	for _, a := range []AppType{AppWeb, AppEnterprise, AppDesktop, AppMobile, AppEmbedded, AppOther} {
		if a.String() == "" {
			t.Error("empty app type name")
		}
	}
	for _, s := range []CompanySize{SizeStartup, SizeSME, SizeCorporation} {
		if s.String() == "" {
			t.Error("empty size name")
		}
	}
}

func TestTablePctMissing(t *testing.T) {
	tbl := Generate(1).Table2_2()
	if pct(tbl, "nonexistent", "all") != -1 {
		t.Error("missing row should return -1")
	}
	if pct(tbl, string(TechFeatureToggles), "mars") != -1 {
		t.Error("missing stratum should return -1")
	}
}
