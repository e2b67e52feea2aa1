package ch2

import (
	"strings"
	"testing"
)

func TestParticipants(t *testing.T) {
	ps := Participants()
	if len(ps) != 31 {
		t.Fatalf("participants = %d, want 31 (20 round 1 + 11 round 2)", len(ps))
	}
	seen := map[string]bool{}
	var round1, round2 int
	for _, p := range ps {
		if seen[p.ID] {
			t.Errorf("duplicate participant %s", p.ID)
		}
		seen[p.ID] = true
		switch p.ID[0] {
		case 'P':
			round1++
		case 'D':
			round2++
		default:
			t.Errorf("unexpected ID %q", p.ID)
		}
		if p.YearsExp <= 0 || p.Company == "" || p.Role == "" {
			t.Errorf("incomplete participant %+v", p)
		}
	}
	if round1 != 20 || round2 != 11 {
		t.Errorf("rounds = %d/%d, want 20/11", round1, round2)
	}
}

func TestParticipantsMeanExperience(t *testing.T) {
	// The paper reports ~9 years average for round 1 and ~12 for round 2.
	var sum1, sum2, n1, n2 int
	for _, p := range Participants() {
		if p.ID[0] == 'P' {
			sum1 += p.YearsExp
			n1++
		} else {
			sum2 += p.YearsExp
			n2++
		}
	}
	if avg := float64(sum1) / float64(n1); avg < 8 || avg > 10 {
		t.Errorf("round 1 mean experience = %.1f, paper reports ≈9", avg)
	}
	if avg := float64(sum2) / float64(n2); avg < 11 || avg > 13 {
		t.Errorf("round 2 mean experience = %.1f, paper reports ≈12", avg)
	}
}

func TestRenderTable2_1(t *testing.T) {
	out := RenderTable2_1()
	for _, want := range []string{"Table 2.1", "P1", "D11", "Video Streaming", "DevOps Engineer"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestPracticeUsages(t *testing.T) {
	us := PracticeUsages()
	ids := map[string]bool{}
	for _, p := range Participants() {
		ids[p.ID] = true
	}
	for _, u := range us {
		if !ids[u.ID] {
			t.Errorf("usage row for unknown participant %q", u.ID)
		}
	}
	// The heavy users the paper highlights must be present.
	var d9 *PracticeUsage
	for i := range us {
		if us[i].ID == "D9" {
			d9 = &us[i]
		}
	}
	if d9 == nil || !d9.Microservices || !d9.RegressionExp || !d9.BusinessExp {
		t.Errorf("D9 usage incomplete: %+v", d9)
	}
}

func TestRenderTable2_9(t *testing.T) {
	out := RenderTable2_9()
	for _, want := range []string{"Table 2.9", "approximate", "D9", "plan"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}
