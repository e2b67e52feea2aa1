package stats

import (
	"math"
	"math/rand"
	"testing"
)

// lognormalMean is the distribution mean exp(mu + sigma^2/2).
func lognormalMean(d LogNormal) float64 {
	return math.Exp(d.Mu + d.Sigma*d.Sigma/2)
}

func TestLogNormalFromMeanP95(t *testing.T) {
	d := LogNormalFromMeanP95(20, 60)
	if got := lognormalMean(d); !almostEqual(got, 20, 1e-9) {
		t.Errorf("Mean = %v, want 20", got)
	}
	// The 95th percentile is exp(mu + z sigma), z the standard normal's.
	if got := math.Exp(d.Mu + 1.6448536269514722*d.Sigma); !almostEqual(got, 60, 1e-6) {
		t.Errorf("P95 = %v, want 60", got)
	}
}

func TestLogNormalFromMeanP95Degenerate(t *testing.T) {
	// p95 <= mean falls back to narrow distribution around the mean.
	d := LogNormalFromMeanP95(20, 10)
	if m := lognormalMean(d); m < 19 || m > 21 {
		t.Errorf("fallback mean = %v, want ≈ 20", m)
	}
	// Zero mean must not produce NaN.
	d0 := LogNormalFromMeanP95(0, 0)
	if math.IsNaN(d0.Mu) {
		t.Error("degenerate input produced NaN mu")
	}
}

func TestLogNormalSampleMoments(t *testing.T) {
	d := LogNormalFromMeanP95(30, 90)
	rng := rand.New(rand.NewSource(7))
	const n = 200000
	var sum float64
	samples := make([]float64, n)
	for i := range samples {
		v := d.Sample(rng)
		if v <= 0 {
			t.Fatal("lognormal sample must be positive")
		}
		samples[i] = v
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-30)/30 > 0.05 {
		t.Errorf("empirical mean = %v, want ≈ 30", mean)
	}
	p95 := Summarize(samples).P95
	if math.Abs(p95-90)/90 > 0.05 {
		t.Errorf("empirical p95 = %v, want ≈ 90", p95)
	}
}

func TestNDCG(t *testing.T) {
	tests := []struct {
		name  string
		gains []float64
		ideal []float64
		k     int
		want  float64
		tol   float64
	}{
		{"perfect", []float64{3, 2, 1}, []float64{1, 2, 3}, 3, 1, 1e-12},
		{"no relevant items", []float64{0, 0}, []float64{0, 0}, 2, 1, 1e-12},
		// DCG = 3 + 7/log2(3) + 0.5; IDCG = 7 + 3/log2(3) + 0.5.
		{"single swap", []float64{2, 3, 1}, []float64{1, 2, 3}, 3, 0.8428, 0.001},
		{"cutoff shorter than list", []float64{3, 0, 2}, []float64{3, 2, 0}, 1, 1, 1e-12},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := NDCG(tt.gains, tt.ideal, tt.k)
			if math.Abs(got-tt.want) > tt.tol {
				t.Errorf("NDCG = %v, want %v ± %v", got, tt.want, tt.tol)
			}
		})
	}
}

func TestNDCGBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(10)
		ideal := make([]float64, n)
		for i := range ideal {
			ideal[i] = float64(rng.Intn(4))
		}
		gains := make([]float64, n)
		copy(gains, ideal)
		rng.Shuffle(n, func(i, j int) { gains[i], gains[j] = gains[j], gains[i] })
		got := NDCG(gains, ideal, 5)
		if got < 0 || got > 1+1e-12 {
			t.Fatalf("NDCG out of bounds: %v (gains %v ideal %v)", got, gains, ideal)
		}
	}
}
