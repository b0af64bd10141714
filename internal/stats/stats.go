// Package stats implements the statistical machinery of the RCoal
// correlation timing attack and its security metrics: descriptive
// statistics, Pearson correlation (the attacker's scoring function),
// the standard-normal quantile, the attack sample-size estimator of
// Equation 4, and the RCoal_Score trade-off metric of Equation 7.
package stats

import (
	"errors"
	"math"
)

// ErrShortSeries is returned when a computation needs more data points
// than were supplied.
var ErrShortSeries = errors.New("stats: series too short")

// ErrLengthMismatch is returned by bivariate statistics when the two
// series differ in length.
var ErrLengthMismatch = errors.New("stats: series length mismatch")

// Mean returns the arithmetic mean of xs. It returns NaN for an empty
// series rather than an error, since it is used in hot loops.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs (division by n, not
// n-1): the paper's analytical model works with distribution moments,
// so the population convention keeps empirical and analytical sides
// directly comparable.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// Pearson returns the Pearson correlation coefficient between xs and
// ys. A constant series has zero variance; the correlation is then
// defined as 0, matching the paper's treatment of num-subwarp = 32
// (where the access count is constant and "the correlation ... drops
// to 0").
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, ErrLengthMismatch
	}
	if len(xs) < 2 {
		return 0, ErrShortSeries
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Center writes ys - mean(ys) into dst (which must have the same
// length as ys) and returns Σ dst[i]², the centered sum of squares.
// Together with PearsonCentered it lets a caller correlate one fixed
// series against many candidates — the attack's 256-guess scoring
// loop — paying the centering cost once instead of per candidate.
func Center(dst, ys []float64) (sumSquares float64) {
	if len(dst) != len(ys) {
		panic(ErrLengthMismatch)
	}
	m := Mean(ys)
	for i, y := range ys {
		d := y - m
		dst[i] = d
		sumSquares += d * d
	}
	return sumSquares
}

// PearsonCentered returns the Pearson correlation of xs against a
// series supplied in centered form: dy[i] = ys[i] - mean(ys) and
// syy = Σ dy[i]², as produced by Center. Every accumulation runs in
// the same index order over the same values as Pearson, so the result
// is bit-identical to Pearson(xs, ys).
func PearsonCentered(xs, dy []float64, syy float64) (float64, error) {
	if len(xs) != len(dy) {
		return 0, ErrLengthMismatch
	}
	if len(xs) < 2 {
		return 0, ErrShortSeries
	}
	mx := Mean(xs)
	var sxy, sxx float64
	for i := range xs {
		dx := xs[i] - mx
		sxy += dx * dy[i]
		sxx += dx * dx
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}
