package traffic

import (
	"math"
	"testing"
	"time"
)

func monday() time.Time {
	return time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC) // a Monday
}

func TestGenerateBasics(t *testing.T) {
	p, err := Generate(monday(), 14, DefaultGeneratorConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.NumSlots(), 14*24; got != want {
		t.Fatalf("NumSlots = %d, want %d", got, want)
	}
	for i, v := range p.Slots {
		if v <= 0 {
			t.Fatalf("slot %d non-positive: %v", i, v)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	if _, err := Generate(monday(), 0, cfg); err == nil {
		t.Error("expected error for 0 days")
	}
	cfg.BaseVolume = -1
	if _, err := Generate(monday(), 7, cfg); err == nil {
		t.Error("expected error for negative base volume")
	}
	cfg = DefaultGeneratorConfig()
	cfg.DiurnalAmplitude = 1.5
	if _, err := Generate(monday(), 7, cfg); err == nil {
		t.Error("expected error for amplitude > 1")
	}
}

func TestGenerateDiurnalShape(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	cfg.Noise = 0
	p, err := Generate(monday(), 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Peak hour should carry more traffic than 3am.
	if p.Slots[cfg.PeakHour] <= p.Slots[3] {
		t.Errorf("peak hour %v not above trough %v", p.Slots[cfg.PeakHour], p.Slots[3])
	}
}

func TestGenerateWeekendTrough(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	cfg.Noise = 0
	p, err := Generate(monday(), 7, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Compare the same hour on Monday (day 0) and Saturday (day 5).
	mondayNoon := p.Slots[12]
	saturdayNoon := p.Slots[5*24+12]
	ratio := saturdayNoon / mondayNoon
	if math.Abs(ratio-cfg.WeekendFactor) > 0.01 {
		t.Errorf("weekend ratio = %v, want %v", ratio, cfg.WeekendFactor)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	p1, _ := Generate(monday(), 3, cfg)
	p2, _ := Generate(monday(), 3, cfg)
	for i := range p1.Slots {
		if p1.Slots[i] != p2.Slots[i] {
			t.Fatal("same seed must produce identical profiles")
		}
	}
	cfg.Seed = 2
	p3, _ := Generate(monday(), 3, cfg)
	same := true
	for i := range p1.Slots {
		if p1.Slots[i] != p3.Slots[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical profiles")
	}
}

func TestProfileAccessors(t *testing.T) {
	p := &Profile{Start: monday(), SlotLength: time.Hour, Slots: []float64{10, 20, 30}}
	if p.Window(1, 2) != 50 {
		t.Errorf("Window(1,2) = %v", p.Window(1, 2))
	}
	if p.Window(2, 10) != 30 {
		t.Errorf("Window clamps at end: %v", p.Window(2, 10))
	}
}

func TestSparkline(t *testing.T) {
	p := &Profile{Slots: []float64{1, 2, 3, 4, 5, 6, 7, 8}}
	s := p.Sparkline(4)
	if len([]rune(s)) != 4 {
		t.Errorf("sparkline width = %d, want 4", len([]rune(s)))
	}
	if p.Sparkline(0) != "" {
		t.Error("zero width should return empty string")
	}
	// Wider than slots clamps.
	if got := len([]rune(p.Sparkline(100))); got != 8 {
		t.Errorf("clamped width = %d, want 8", got)
	}
}
