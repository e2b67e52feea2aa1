package microsim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"
)

// Fault injection: scheduled, probabilistic perturbations of service
// behavior, the chaos half of the scenario engine. A Fault describes
// one perturbation window (what, where, when, how hard); an Injector
// holds a schedule of faults plus a seeded RNG and answers, per
// simulated call, "what happens to this invocation right now". The
// per-request probability gate follows the drop/block machinery of the
// bringyour client simulator: a fault need not be total — a blackout
// with Probability 0.5 is a partial outage.
//
// Both the in-process Sim and the HTTP backends consult the same
// Injector, so a scenario runs identically on either substrate.

// FaultKind enumerates the supported perturbations.
type FaultKind int

const (
	// FaultLatencySpike multiplies (and/or pads) the endpoint's own
	// service time.
	FaultLatencySpike FaultKind = iota + 1
	// FaultErrorStorm forces application failures at ErrorRate.
	FaultErrorStorm
	// FaultBlackout makes the target unavailable: calls fail fast and
	// downstream calls are skipped (dependencies go dark).
	FaultBlackout
	// FaultSlowRestart models a rolling restart: hard downtime for
	// RestartDowntime, then degraded latency decaying linearly back to
	// normal over the rest of the window (cold caches warming up).
	FaultSlowRestart
)

// String returns the config-file name of the kind.
func (k FaultKind) String() string {
	switch k {
	case FaultLatencySpike:
		return "latency-spike"
	case FaultErrorStorm:
		return "error-storm"
	case FaultBlackout:
		return "blackout"
	case FaultSlowRestart:
		return "slow-restart"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// ParseFaultKind is the inverse of String.
func ParseFaultKind(s string) (FaultKind, error) {
	switch s {
	case "latency-spike":
		return FaultLatencySpike, nil
	case "error-storm":
		return FaultErrorStorm, nil
	case "blackout":
		return FaultBlackout, nil
	case "slow-restart":
		return FaultSlowRestart, nil
	default:
		return 0, fmt.Errorf("microsim: unknown fault kind %q (want latency-spike, error-storm, blackout, or slow-restart)", s)
	}
}

// Fault is one scheduled perturbation. Zero-value selectors widen the
// blast radius: an empty Version hits every version of the service, an
// empty Endpoint every endpoint.
type Fault struct {
	Kind FaultKind
	// Service is the target service (required).
	Service string
	// Version narrows the fault to one version ("" = all versions).
	// Targeting the candidate version models a bad release; leaving it
	// empty models ambient infrastructure trouble.
	Version string
	// Endpoint narrows the fault to one endpoint name ("" = all).
	Endpoint string
	// Start and Duration place the fault window relative to the
	// injector epoch: the fault is live in [Start, Start+Duration).
	Start    time.Duration
	Duration time.Duration
	// Probability gates each matching call independently; 0 or >= 1
	// means the fault applies to every call in the window. Values in
	// (0,1) produce partial outages.
	Probability float64
	// LatencyFactor scales the endpoint's own service time
	// (latency-spike, slow-restart recovery peak). 0 means unchanged.
	LatencyFactor float64
	// ExtraLatency is added on top of the scaled service time.
	ExtraLatency time.Duration
	// ErrorRate is the forced failure probability during an
	// error-storm.
	ErrorRate float64
	// RestartDowntime is the hard-down prefix of a slow-restart window.
	RestartDowntime time.Duration
}

// Validate checks the fault for structural problems.
func (f *Fault) Validate() error {
	if f.Service == "" {
		return fmt.Errorf("microsim: fault %s has no target service", f.Kind)
	}
	if f.Duration <= 0 {
		return fmt.Errorf("microsim: fault %s on %s has non-positive duration %v", f.Kind, f.Service, f.Duration)
	}
	if f.Start < 0 {
		return fmt.Errorf("microsim: fault %s on %s starts before the epoch (%v)", f.Kind, f.Service, f.Start)
	}
	if f.Probability < 0 || f.Probability > 1 {
		return fmt.Errorf("microsim: fault %s on %s has probability %v outside [0,1]", f.Kind, f.Service, f.Probability)
	}
	switch f.Kind {
	case FaultLatencySpike:
		if f.LatencyFactor <= 0 && f.ExtraLatency <= 0 {
			return fmt.Errorf("microsim: latency-spike on %s needs a latency factor or extra latency", f.Service)
		}
		if f.LatencyFactor < 0 {
			return fmt.Errorf("microsim: latency-spike on %s has negative factor", f.Service)
		}
	case FaultErrorStorm:
		if f.ErrorRate <= 0 || f.ErrorRate > 1 {
			return fmt.Errorf("microsim: error-storm on %s has error rate %v outside (0,1]", f.Service, f.ErrorRate)
		}
	case FaultBlackout:
		// Window and probability are the whole story.
	case FaultSlowRestart:
		if f.RestartDowntime <= 0 {
			return fmt.Errorf("microsim: slow-restart on %s needs a restart downtime", f.Service)
		}
		if f.RestartDowntime > f.Duration {
			return fmt.Errorf("microsim: slow-restart on %s: downtime %v exceeds window %v", f.Service, f.RestartDowntime, f.Duration)
		}
		if f.LatencyFactor < 0 {
			return fmt.Errorf("microsim: slow-restart on %s has negative factor", f.Service)
		}
	default:
		return fmt.Errorf("microsim: fault on %s has unknown kind %d", f.Service, int(f.Kind))
	}
	return nil
}

// activeAt reports whether elapsed falls inside the fault window.
func (f *Fault) activeAt(elapsed time.Duration) bool {
	return elapsed >= f.Start && elapsed < f.Start+f.Duration
}

// matches reports whether the fault targets the given invocation.
func (f *Fault) matches(service, version, endpoint string) bool {
	if f.Service != service {
		return false
	}
	if f.Version != "" && f.Version != version {
		return false
	}
	if f.Endpoint != "" && f.Endpoint != endpoint {
		return false
	}
	return true
}

// Target renders the fault selector for logs and health reports.
func (f *Fault) Target() string {
	var b strings.Builder
	b.WriteString(f.Service)
	if f.Version != "" {
		b.WriteString("@")
		b.WriteString(f.Version)
	}
	if f.Endpoint != "" {
		b.WriteString(" ")
		b.WriteString(f.Endpoint)
	}
	return b.String()
}

// Perturbation is the per-call verdict of the injector: how one
// invocation is to be distorted.
type Perturbation struct {
	// LatencyFactor scales the endpoint's own sampled service time
	// (1 = unchanged).
	LatencyFactor float64
	// ExtraLatency is added after scaling.
	ExtraLatency time.Duration
	// ForceError marks the call failed even though the endpoint's own
	// error draw passed.
	ForceError bool
	// Unavailable fails the call fast and suppresses downstream calls.
	Unavailable bool
}

// Injector evaluates a fault schedule against individual invocations.
// It is safe for concurrent use; with a fixed seed and a deterministic
// call order the perturbation stream is reproducible.
type Injector struct {
	epoch  time.Time
	faults []Fault

	mu      sync.Mutex
	rng     *rand.Rand
	applied []uint64 // per-fault count of perturbed calls
}

// NewInjector validates the schedule and builds an injector whose fault
// windows are relative to epoch.
func NewInjector(epoch time.Time, faults []Fault, seed int64) (*Injector, error) {
	for i := range faults {
		if err := faults[i].Validate(); err != nil {
			return nil, fmt.Errorf("fault %d: %w", i, err)
		}
	}
	in := &Injector{
		epoch:   epoch,
		faults:  append([]Fault(nil), faults...),
		rng:     rand.New(rand.NewSource(seed)),
		applied: make([]uint64, len(faults)),
	}
	return in, nil
}

// Apply evaluates every fault matching the invocation at instant `at`
// and folds them into one Perturbation (factors multiply, pads add,
// errors and blackouts accumulate with OR).
func (in *Injector) Apply(service, version, endpoint string, at time.Time) Perturbation {
	p := Perturbation{LatencyFactor: 1}
	if in == nil || len(in.faults) == 0 {
		return p
	}
	elapsed := at.Sub(in.epoch)

	in.mu.Lock()
	defer in.mu.Unlock()
	for i := range in.faults {
		f := &in.faults[i]
		if !f.activeAt(elapsed) || !f.matches(service, version, endpoint) {
			continue
		}
		if f.Probability > 0 && f.Probability < 1 && in.rng.Float64() >= f.Probability {
			continue
		}
		hit := true
		switch f.Kind {
		case FaultLatencySpike:
			if f.LatencyFactor > 0 {
				p.LatencyFactor *= f.LatencyFactor
			}
			p.ExtraLatency += f.ExtraLatency
		case FaultErrorStorm:
			if in.rng.Float64() < f.ErrorRate {
				p.ForceError = true
			} else {
				hit = false
			}
		case FaultBlackout:
			p.Unavailable = true
		case FaultSlowRestart:
			into := elapsed - f.Start
			if into < f.RestartDowntime {
				p.Unavailable = true
			} else {
				// Degradation decays linearly from LatencyFactor at the
				// moment the instance comes back to 1 at window end.
				peak := f.LatencyFactor
				if peak <= 0 {
					peak = defaultRestartFactor
				}
				recovery := float64(into-f.RestartDowntime) / float64(f.Duration-f.RestartDowntime)
				factor := peak - (peak-1)*recovery
				p.LatencyFactor *= factor
			}
		}
		if hit {
			in.applied[i]++
		}
	}
	return p
}

// defaultRestartFactor is the post-restart latency multiplier used when
// a slow-restart fault does not set one.
const defaultRestartFactor = 3

// FaultStatus is one schedule entry rendered for health reporting.
type FaultStatus struct {
	Kind   string `json:"kind"`
	Target string `json:"target"`
	// Window is "start+duration" relative to the epoch, e.g. "30s+45s".
	Window string `json:"window"`
	// Active reports whether the fault window covers the query instant.
	Active bool `json:"active"`
	// Applied counts calls perturbed by this fault so far.
	Applied uint64 `json:"applied"`
}

// Snapshot reports the schedule state at instant `at`, active faults
// first, for the /healthz demo section: a human watching a scenario can
// tell injected chaos from real regressions.
func (in *Injector) Snapshot(at time.Time) []FaultStatus {
	if in == nil {
		return nil
	}
	elapsed := at.Sub(in.epoch)
	in.mu.Lock()
	out := make([]FaultStatus, len(in.faults))
	for i := range in.faults {
		f := &in.faults[i]
		out[i] = FaultStatus{
			Kind:    f.Kind.String(),
			Target:  f.Target(),
			Window:  fmt.Sprintf("%s+%s", f.Start, f.Duration),
			Active:  f.activeAt(elapsed),
			Applied: in.applied[i],
		}
	}
	in.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Active && !out[j].Active })
	return out
}
