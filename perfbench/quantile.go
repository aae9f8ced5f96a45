package main

import (
	"math"
	"sort"
)

// hdQuantile is the Harrell–Davis estimate of the p-quantile of xs
// (0 < p < 1): a weighted mean of all order statistics, with weights from
// a Beta((n+1)p, (n+1)(1-p)) distribution over the ranks. On a
// campaign's 135 unevenly spaced cell latencies one order statistic
// jumps between neighbouring cells from run to run; see README.md for
// the measured spreads of both estimators. It sorts xs in place.
func hdQuantile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n == 1 {
		return xs[0]
	}
	a, b := float64(n+1)*p, float64(n+1)*(1-p)
	est, prev := 0.0, 0.0
	for i := 1; i <= n; i++ {
		cur := regIncBeta(a, b, float64(i)/float64(n))
		est += (cur - prev) * xs[i-1]
		prev = cur
	}
	return est
}

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction (modified Lentz).
func regIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	if x > (a+1)/(a+b+2) {
		return 1 - regIncBeta(b, a, 1-x)
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	const tiny = 1e-300
	c, d := 1.0, 1-(a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	f := d
	for m := 1; m <= 10000; m++ {
		fm := float64(m)
		num := fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm))
		for k := 0; k < 2; k++ {
			d = 1 + num*d
			if math.Abs(d) < tiny {
				d = tiny
			}
			c = 1 + num/c
			if math.Abs(c) < tiny {
				c = tiny
			}
			d = 1 / d
			f *= d * c
			if k == 0 {
				num = -(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1))
			}
		}
		if math.Abs(d*c-1) < 1e-12 {
			break
		}
	}
	return front * f / a
}
