package stats

import (
	"math"
	"math/rand"
)

// This file provides the lognormal service-time sampler, the canonical
// latency model for microservice endpoints in the simulation substrates.

// LogNormal samples service times whose logarithm is normally
// distributed. Mu and Sigma parameterize the underlying normal.
type LogNormal struct {
	Mu    float64
	Sigma float64
}

// LogNormalFromMeanP95 constructs a LogNormal whose mean is `mean` and
// whose 95th percentile is approximately p95. This is how microsim
// calibrates endpoint latency distributions from the two numbers the
// paper reports (mean and tail of service response times).
func LogNormalFromMeanP95(mean, p95 float64) LogNormal {
	if mean <= 0 || p95 <= mean {
		// Fall back to a narrow distribution around the mean.
		return LogNormal{Mu: math.Log(math.Max(mean, 1e-9)), Sigma: 0.05}
	}
	// mean = exp(mu + sigma^2/2); p95 = exp(mu + 1.645 sigma).
	// => log(p95/mean) = 1.645 sigma - sigma^2/2; solve the quadratic.
	const z = 1.6448536269514722
	r := math.Log(p95 / mean)
	// sigma^2/2 - z sigma + r = 0 -> sigma = z - sqrt(z^2 - 2r)
	disc := z*z - 2*r
	var sigma float64
	if disc <= 0 {
		sigma = z // extremely heavy tail requested; saturate
	} else {
		sigma = z - math.Sqrt(disc)
	}
	if sigma < 0.01 {
		sigma = 0.01
	}
	mu := math.Log(mean) - sigma*sigma/2
	return LogNormal{Mu: mu, Sigma: sigma}
}

// Sample draws one value using rng.
func (d LogNormal) Sample(rng *rand.Rand) float64 {
	return math.Exp(d.Mu + d.Sigma*rng.NormFloat64())
}
