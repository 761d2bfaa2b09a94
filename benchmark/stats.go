package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// geomean is the geometric mean of the positive entries of xs (0 when
// there are none): one class ten times slower moves it as much as one
// class ten times faster, whatever their absolute latencies.
func geomean(xs []float64) float64 {
	n, acc := 0, 0.0
	for _, x := range xs {
		if x > 0 {
			acc += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(acc / float64(n))
}

// ratio is a/b, 0 when b is 0 (a metric that does not apply reads 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is
// what the acceptance driver uses for its spread.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// zipf is the distribution over ranks 0..n-1 with probability
// ∝ 1/(rank+1)^s.
type zipf struct{ p []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{p: make([]float64, n)}
	t := 0.0
	for i := range z.p {
		z.p[i] = 1 / math.Pow(float64(i+1), s)
		t += z.p[i]
	}
	for i := range z.p {
		z.p[i] /= t
	}
	return z
}

// apportion splits total draws over the ranks in proportion to their
// probabilities (largest-remainder rounding, ties to the lower rank), so
// the counts sum to total exactly.
func (z *zipf) apportion(total int) []int {
	counts := make([]int, len(z.p))
	type rem struct {
		rank int
		frac float64
	}
	rems := make([]rem, len(z.p))
	left := total
	for i, p := range z.p {
		exact := p * float64(total)
		counts[i] = int(exact)
		left -= counts[i]
		rems[i] = rem{i, exact - float64(counts[i])}
	}
	sort.SliceStable(rems, func(i, j int) bool { return rems[i].frac > rems[j].frac })
	for i := 0; i < left; i++ {
		counts[rems[i].rank]++
	}
	return counts
}
