package main

import (
	"math"
	"sort"
	"time"
)

// sample is a set of timings in milliseconds.
type sample []float64

func (s *sample) add(d time.Duration) { *s = append(*s, ms(d)) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile returns the q-quantile (0 < q < 1) by the Harrell-Davis
// estimator: a Beta((n+1)q, (n+1)(1-q))-weighted mean of every order
// statistic. A run holds a few hundred operations at most, so a tail
// percentile read from one or two order statistics would jump between
// runs; Harrell-Davis spreads the weight over the neighbouring ones. It
// returns 0 for an empty sample.
func (s sample) quantile(q float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	a, b := float64(n+1)*q, float64(n+1)*(1-q)
	v, prev := 0.0, 0.0
	for i, x := range c {
		cur := betaInc(a, b, float64(i+1)/float64(n))
		v += (cur - prev) * x
		prev = cur
	}
	return v
}

func (s sample) median() float64 { return s.quantile(0.5) }

// betaInc is the regularized incomplete beta function I_x(a, b), by its
// continued fraction (Numerical Recipes, section 6.4).
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaFrac(a, b, x) / a
	}
	return 1 - front*betaFrac(b, a, 1-x)/b
}

func betaFrac(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 10000; m++ {
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		if math.Abs(d*c-1) < 1e-14 {
			break
		}
	}
	return h
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
