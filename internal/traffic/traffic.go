// Package traffic models the user-traffic profiles that drive experiment
// scheduling (Chapter 3). A profile gives, per time slot (one hour in the
// paper's evaluation), the number of user requests available for
// experimentation; experiments consume fractions of a slot's traffic
// (Fig 3.3 "Example traffic profile and traffic consumption").
//
// The authors used a production traffic profile; we substitute a
// synthetic profile with the same structural features: a diurnal cycle,
// a weekly cycle with weekend troughs, and multiplicative noise.
package traffic

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"
)

// Profile is a sequence of per-slot traffic volumes. Slot i covers
// [Start + i*SlotLength, Start + (i+1)*SlotLength).
type Profile struct {
	Start      time.Time
	SlotLength time.Duration
	Slots      []float64 // expected experimentable requests per slot
}

// NumSlots returns the number of slots in the profile.
func (p *Profile) NumSlots() int { return len(p.Slots) }

// Window returns the total traffic in slots [from, from+length).
func (p *Profile) Window(from, length int) float64 {
	var sum float64
	for i := from; i < from+length && i < len(p.Slots); i++ {
		if i >= 0 {
			sum += p.Slots[i]
		}
	}
	return sum
}

// GeneratorConfig parameterizes the synthetic seasonal profile.
type GeneratorConfig struct {
	// BaseVolume is the mean traffic per slot before seasonality.
	BaseVolume float64
	// DiurnalAmplitude in [0,1] scales the day/night swing. 0.6 means
	// the daily peak is ~1.6x base and the trough ~0.4x.
	DiurnalAmplitude float64
	// WeekendFactor in (0,1] multiplies Saturday/Sunday traffic.
	WeekendFactor float64
	// PeakHour is the local hour (0-23) of the diurnal maximum.
	PeakHour int
	// Noise is the multiplicative noise standard deviation (e.g., 0.05).
	Noise float64
	// Seed makes the profile reproducible.
	Seed int64
}

// DefaultGeneratorConfig returns the configuration used throughout the
// Chapter 3 evaluation: ~50k requests/hour base volume with a pronounced
// afternoon peak, quieter weekends, and 5% noise.
func DefaultGeneratorConfig() GeneratorConfig {
	return GeneratorConfig{
		BaseVolume:       50000,
		DiurnalAmplitude: 0.6,
		WeekendFactor:    0.7,
		PeakHour:         15,
		Noise:            0.05,
		Seed:             1,
	}
}

// Generate produces a profile of `days` days of hourly slots starting at
// start (which should be midnight for the peak-hour alignment to be
// meaningful).
func Generate(start time.Time, days int, cfg GeneratorConfig) (*Profile, error) {
	if days <= 0 {
		return nil, errors.New("traffic: days must be positive")
	}
	if cfg.BaseVolume <= 0 {
		return nil, errors.New("traffic: base volume must be positive")
	}
	if cfg.DiurnalAmplitude < 0 || cfg.DiurnalAmplitude > 1 {
		return nil, fmt.Errorf("traffic: diurnal amplitude %v outside [0,1]", cfg.DiurnalAmplitude)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := days * 24
	slots := make([]float64, n)
	for i := range slots {
		ts := start.Add(time.Duration(i) * time.Hour)
		hour := float64(ts.Hour())
		phase := 2 * math.Pi * (hour - float64(cfg.PeakHour)) / 24
		diurnal := 1 + cfg.DiurnalAmplitude*math.Cos(phase)
		weekly := 1.0
		if wd := ts.Weekday(); wd == time.Saturday || wd == time.Sunday {
			weekly = cfg.WeekendFactor
		}
		noise := 1 + cfg.Noise*rng.NormFloat64()
		if noise < 0.1 {
			noise = 0.1
		}
		slots[i] = cfg.BaseVolume * diurnal * weekly * noise
	}
	return &Profile{Start: start, SlotLength: time.Hour, Slots: slots}, nil
}

// Sparkline renders the profile as a unicode sparkline, `width` slots wide
// (downsampled by averaging), for the textual reproduction of Fig 3.3.
func (p *Profile) Sparkline(width int) string {
	if width <= 0 || len(p.Slots) == 0 {
		return ""
	}
	if width > len(p.Slots) {
		width = len(p.Slots)
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	bucket := float64(len(p.Slots)) / float64(width)
	vals := make([]float64, width)
	var maxV float64
	for i := 0; i < width; i++ {
		lo := int(float64(i) * bucket)
		hi := int(float64(i+1) * bucket)
		if hi <= lo {
			hi = lo + 1
		}
		if hi > len(p.Slots) {
			hi = len(p.Slots)
		}
		var sum float64
		for j := lo; j < hi; j++ {
			sum += p.Slots[j]
		}
		vals[i] = sum / float64(hi-lo)
		if vals[i] > maxV {
			maxV = vals[i]
		}
	}
	var b strings.Builder
	for _, v := range vals {
		idx := 0
		if maxV > 0 {
			idx = int(v / maxV * float64(len(levels)-1))
		}
		b.WriteRune(levels[idx])
	}
	return b.String()
}
