// Package scenario composes {arrival process × fault schedule ×
// duration} into named, runtime-configurable experiment conditions.
// A Spec is the declarative form (one of the builtin catalog entries,
// or one a test writes); Compile lowers it into the runtime pieces the
// substrates consume — a loadgen.Rate driving arrivals and a
// microsim fault schedule driving chaos. The grading suite
// (scenario/suite) runs every strategy kind against a matrix of these
// and asserts graded outcomes, which is what turns "as many scenarios
// as you can imagine" into a regression-tested matrix.
package scenario

import (
	"fmt"
	"time"

	"contexp/internal/loadgen"
	"contexp/internal/microsim"
)

// Arrival process names accepted by ArrivalSpec.Process.
const (
	ProcessSteady  = "steady"
	ProcessRamp    = "ramp"
	ProcessBurst   = "burst"
	ProcessDiurnal = "diurnal"
)

// ArrivalSpec describes the open-loop arrival process of a scenario.
type ArrivalSpec struct {
	// Process selects the shape: steady | ramp | burst | diurnal.
	Process string
	// RPS is the base rate (steady, burst, diurnal) or the starting
	// rate (ramp).
	RPS float64
	// ToRPS is the final rate of a ramp.
	ToRPS float64
	// RampOver is how long a ramp takes to reach ToRPS (defaults to the
	// scenario duration).
	RampOver time.Duration
	// Factor multiplies RPS inside a burst window.
	Factor float64
	// Start/Width place the burst window.
	Start time.Duration
	Width time.Duration
	// Amplitude (0..1] and Period/Peak shape the diurnal sinusoid.
	Amplitude float64
	Period    time.Duration
	Peak      time.Duration
	// Uniform switches from Poisson sampling to deterministic spacing.
	Uniform bool
}

// FaultSpec is the declarative form of one microsim.Fault.
type FaultSpec struct {
	Kind            string
	Service         string
	Version         string
	Endpoint        string
	Start           time.Duration
	Duration        time.Duration
	Probability     float64
	LatencyFactor   float64
	ExtraLatency    time.Duration
	ErrorRate       float64
	RestartDowntime time.Duration
}

// Spec is a named scenario in declarative form.
type Spec struct {
	Name        string
	Description string
	Duration    time.Duration
	Seed        int64
	Arrival     ArrivalSpec
	Faults      []FaultSpec
}

// Validate checks the spec without compiling it.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec has no name")
	}
	if s.Duration <= 0 {
		return fmt.Errorf("scenario %s: non-positive duration %v", s.Name, s.Duration)
	}
	if err := s.Arrival.validate(s.Name); err != nil {
		return err
	}
	for i := range s.Faults {
		if _, err := s.Faults[i].compile(); err != nil {
			return fmt.Errorf("scenario %s: fault %d: %w", s.Name, i, err)
		}
	}
	return nil
}

func (a *ArrivalSpec) validate(name string) error {
	switch a.Process {
	case ProcessSteady:
		if a.RPS <= 0 {
			return fmt.Errorf("scenario %s: steady arrival needs rps > 0", name)
		}
	case ProcessRamp:
		if a.RPS < 0 || a.ToRPS <= 0 {
			return fmt.Errorf("scenario %s: ramp needs rps >= 0 and toRps > 0", name)
		}
		if a.RampOver < 0 {
			return fmt.Errorf("scenario %s: negative rampOver", name)
		}
	case ProcessBurst:
		if a.RPS <= 0 || a.Factor <= 0 {
			return fmt.Errorf("scenario %s: burst needs rps > 0 and factor > 0", name)
		}
		if a.Width <= 0 || a.Start < 0 {
			return fmt.Errorf("scenario %s: burst needs a window (start >= 0, width > 0)", name)
		}
	case ProcessDiurnal:
		if a.RPS <= 0 {
			return fmt.Errorf("scenario %s: diurnal arrival needs rps > 0", name)
		}
		if a.Amplitude < 0 || a.Amplitude > 1 {
			return fmt.Errorf("scenario %s: diurnal amplitude %v outside [0,1]", name, a.Amplitude)
		}
		if a.Period <= 0 {
			return fmt.Errorf("scenario %s: diurnal arrival needs period > 0", name)
		}
	case "":
		return fmt.Errorf("scenario %s: arrival process missing (want steady, ramp, burst, or diurnal)", name)
	default:
		return fmt.Errorf("scenario %s: unknown arrival process %q", name, a.Process)
	}
	return nil
}

// rate lowers the arrival spec into a loadgen.Rate.
func (a *ArrivalSpec) rate(total time.Duration) (loadgen.Rate, error) {
	switch a.Process {
	case ProcessSteady:
		return loadgen.ConstantRate(a.RPS), nil
	case ProcessRamp:
		over := a.RampOver
		if over == 0 {
			over = total
		}
		return loadgen.RampRate(a.RPS, a.ToRPS, over), nil
	case ProcessBurst:
		return loadgen.Spike(loadgen.ConstantRate(a.RPS), a.Factor, a.Start, a.Width), nil
	case ProcessDiurnal:
		return loadgen.DiurnalRate(a.RPS, a.Amplitude, a.Period, a.Peak), nil
	default:
		return nil, fmt.Errorf("scenario: unknown arrival process %q", a.Process)
	}
}

func (f *FaultSpec) compile() (microsim.Fault, error) {
	kind, err := microsim.ParseFaultKind(f.Kind)
	if err != nil {
		return microsim.Fault{}, err
	}
	out := microsim.Fault{
		Kind:            kind,
		Service:         f.Service,
		Version:         f.Version,
		Endpoint:        f.Endpoint,
		Start:           f.Start,
		Duration:        f.Duration,
		Probability:     f.Probability,
		LatencyFactor:   f.LatencyFactor,
		ExtraLatency:    f.ExtraLatency,
		ErrorRate:       f.ErrorRate,
		RestartDowntime: f.RestartDowntime,
	}
	if err := out.Validate(); err != nil {
		return microsim.Fault{}, err
	}
	return out, nil
}

// Scenario is the compiled, runnable form of a Spec.
type Scenario struct {
	Name        string
	Description string
	Duration    time.Duration
	Seed        int64
	// Rate drives the arrival process (elapsed time relative to the run
	// start).
	Rate loadgen.Rate
	// Uniform selects deterministic spacing over Poisson sampling.
	Uniform bool
	// Faults is the chaos schedule, windows relative to the run start.
	Faults []microsim.Fault
}

// Compile validates and lowers the spec.
func (s *Spec) Compile() (*Scenario, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	rate, err := s.Arrival.rate(s.Duration)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	out := &Scenario{
		Name:        s.Name,
		Description: s.Description,
		Duration:    s.Duration,
		Seed:        s.Seed,
		Rate:        rate,
		Uniform:     s.Arrival.Uniform,
	}
	for i := range s.Faults {
		f, err := s.Faults[i].compile()
		if err != nil {
			return nil, fmt.Errorf("scenario %s: fault %d: %w", s.Name, i, err)
		}
		out.Faults = append(out.Faults, f)
	}
	return out, nil
}

// Injector builds the scenario's fault injector anchored at epoch. A
// scenario without faults yields a nil injector, which every consumer
// treats as "no chaos".
func (sc *Scenario) Injector(epoch time.Time) (*microsim.Injector, error) {
	if len(sc.Faults) == 0 {
		return nil, nil
	}
	return microsim.NewInjector(epoch, sc.Faults, sc.Seed)
}
