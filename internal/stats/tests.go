package stats

import (
	"errors"
	"math"
)

// This file contains Welch's t-test for comparing the samples of two
// experiment variants.

// TestResult is the outcome of a two-sample hypothesis test.
type TestResult struct {
	Statistic   float64 // test statistic t
	PValue      float64 // two-sided p-value
	Significant bool    // PValue < alpha at the time of the test
	Alpha       float64
}

// WelchT performs Welch's unequal-variance t-test on two samples and
// returns a two-sided result at significance level alpha.
func WelchT(a, b []float64, alpha float64) (TestResult, error) {
	if len(a) < 2 || len(b) < 2 {
		return TestResult{}, errors.New("stats: WelchT requires at least 2 observations per sample")
	}
	ma, mb := Mean(a), Mean(b)
	va, vb := Variance(a), Variance(b)
	na, nb := float64(len(a)), float64(len(b))
	se := math.Sqrt(va/na + vb/nb)
	if se == 0 {
		// Identical constant samples: no evidence of difference.
		if ma == mb {
			return TestResult{Statistic: 0, PValue: 1, Alpha: alpha}, nil
		}
		return TestResult{Statistic: math.Inf(1), PValue: 0, Significant: true, Alpha: alpha}, nil
	}
	t := (ma - mb) / se
	// Welch-Satterthwaite degrees of freedom.
	num := (va/na + vb/nb) * (va/na + vb/nb)
	den := (va*va)/(na*na*(na-1)) + (vb*vb)/(nb*nb*(nb-1))
	df := num / den
	p := 2 * studentTSF(math.Abs(t), df)
	return TestResult{Statistic: t, PValue: p, Significant: p < alpha, Alpha: alpha}, nil
}

// studentTSF returns the survival function P(T > t) of Student's t
// distribution with df degrees of freedom, via the regularized incomplete
// beta function.
func studentTSF(t, df float64) float64 {
	if math.IsInf(t, 1) {
		return 0
	}
	x := df / (df + t*t)
	return 0.5 * regIncBeta(df/2, 0.5, x)
}

// regIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Numerical Recipes style).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(math.Log(x)*a+math.Log(1-x)*b+lbeta) / a
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x)
	}
	// Use symmetry for faster convergence.
	lbetaSym := math.Exp(math.Log(1-x)*b+math.Log(x)*a+lbeta) / b
	return 1 - lbetaSym*betaCF(b, a, 1-x)
}

func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 200
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}
