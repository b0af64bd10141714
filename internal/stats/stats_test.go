package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); v != 4 {
		t.Errorf("Variance = %v, want 4", v)
	}
}

func TestMeanEmpty(t *testing.T) {
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Variance(nil)) {
		t.Error("empty series should yield NaN")
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err != ErrLengthMismatch {
		t.Errorf("want ErrLengthMismatch, got %v", err)
	}
	if _, err := Pearson([]float64{1}, []float64{2}); err != ErrShortSeries {
		t.Errorf("want ErrShortSeries, got %v", err)
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{10, 20, 30, 40, 50}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r, 1, 1e-12) {
		t.Errorf("Pearson = %v, want 1", r)
	}
	neg := []float64{50, 40, 30, 20, 10}
	r, _ = Pearson(xs, neg)
	if !almostEqual(r, -1, 1e-12) {
		t.Errorf("Pearson = %v, want -1", r)
	}
}

func TestPearsonConstantSeriesIsZero(t *testing.T) {
	// num-subwarp = 32: the access count never varies, the paper
	// defines the correlation as dropping to 0.
	xs := []float64{7, 7, 7, 7}
	ys := []float64{1, 2, 3, 4}
	r, err := Pearson(xs, ys)
	if err != nil || r != 0 {
		t.Errorf("Pearson(const, ys) = %v, %v; want 0, nil", r, err)
	}
}

func TestPearsonInvariantUnderAffineMaps(t *testing.T) {
	f := func(seedBytes [8]uint8, scale uint8, shift int8) bool {
		xs := make([]float64, 8)
		ys := make([]float64, 8)
		for i := range xs {
			xs[i] = float64(seedBytes[i])
			ys[i] = float64(seedBytes[i])*1.5 + float64(i)
		}
		a := float64(scale%7) + 1 // positive scale
		b := float64(shift)
		r1, err1 := Pearson(xs, ys)
		zs := make([]float64, len(ys))
		for i, y := range ys {
			zs[i] = a*y + b
		}
		r2, err2 := Pearson(xs, zs)
		if err1 != nil || err2 != nil {
			return false
		}
		return almostEqual(r1, r2, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPearsonBounds(t *testing.T) {
	f := func(raw [12]int8) bool {
		xs := make([]float64, 6)
		ys := make([]float64, 6)
		for i := 0; i < 6; i++ {
			xs[i] = float64(raw[i])
			ys[i] = float64(raw[i+6])
		}
		r, err := Pearson(xs, ys)
		if err != nil {
			return false
		}
		return r >= -1-1e-12 && r <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalQuantileKnown(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.99, 2.3263478740408408},
		{0.01, -2.3263478740408408},
		{0.999, 3.090232306167813},
	}
	for _, c := range cases {
		if got := NormalQuantile(c.p); !almostEqual(got, c.want, 1e-8) {
			t.Errorf("NormalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for p := 0.001; p < 1; p += 0.0137 {
		x := NormalQuantile(p)
		if back := NormalCDF(x); !almostEqual(back, p, 1e-10) {
			t.Errorf("CDF(Quantile(%v)) = %v", p, back)
		}
	}
}

func TestNormalQuantilePanicsOutOfRange(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NormalQuantile(%v) did not panic", p)
				}
			}()
			NormalQuantile(p)
		}()
	}
}

func TestSamplesForAttackPaperConstant(t *testing.T) {
	// Paper: with alpha = 0.99, 2·Z_α² ≈ 11.
	z := NormalQuantile(0.99)
	if got := 2 * z * z; !almostEqual(got, 10.82, 0.05) {
		t.Errorf("2·Z²(0.99) = %v, want ≈10.8 (paper rounds to 11)", got)
	}
}

func TestSamplesForAttackEdges(t *testing.T) {
	if s := SamplesForAttack(0, 0.99); !math.IsInf(s, 1) {
		t.Errorf("rho=0: S = %v, want +Inf", s)
	}
	if s := SamplesForAttack(1, 0.99); s != 3 {
		t.Errorf("rho=1: S = %v, want 3", s)
	}
	if s := SamplesForAttack(-1, 0.99); s != 3 {
		t.Errorf("rho=-1: S = %v, want 3 (sign-insensitive)", s)
	}
}

func TestSamplesApproxMatchesExactForSmallRho(t *testing.T) {
	for _, rho := range []float64{0.01, 0.03, 0.05, 0.1} {
		exact := SamplesForAttack(rho, 0.99)
		approx := SamplesForAttackApprox(rho, 0.99)
		if rel := math.Abs(exact-approx) / exact; rel > 0.02 {
			t.Errorf("rho=%v: exact %v vs approx %v (rel err %v)", rho, exact, approx, rel)
		}
	}
}

func TestSamplesMonotoneInRho(t *testing.T) {
	prev := math.Inf(1)
	for _, rho := range []float64{0.05, 0.1, 0.2, 0.4, 0.8} {
		s := SamplesForAttack(rho, 0.99)
		if s >= prev {
			t.Errorf("S not decreasing at rho=%v: %v >= %v", rho, s, prev)
		}
		prev = s
	}
}

func TestNormalizedSamplesTable2Spine(t *testing.T) {
	// Table II: rho 0.41 -> S ≈ 6, rho 0.20 -> 25, rho 0.09 -> ~123,
	// rho 0.03 -> ~1111 (paper reports 961 from unrounded rho).
	cases := []struct{ rho, want, tol float64 }{
		{1, 1, 0}, {0.41, 5.95, 0.05}, {0.20, 25, 0.01}, {0.05, 400, 1},
	}
	for _, c := range cases {
		if got := NormalizedSamples(c.rho); !almostEqual(got, c.want, c.tol) {
			t.Errorf("NormalizedSamples(%v) = %v, want %v", c.rho, got, c.want)
		}
	}
	if got := NormalizedSamples(0); !math.IsInf(got, 1) {
		t.Errorf("NormalizedSamples(0) = %v, want +Inf", got)
	}
}

func TestRCoalScore(t *testing.T) {
	// Security-oriented (a=1,b=1): doubling exec time halves the score.
	s1 := RCoalScore(100, 1, 1, 1)
	s2 := RCoalScore(100, 2, 1, 1)
	if !almostEqual(s1/s2, 2, 1e-12) {
		t.Errorf("score ratio = %v, want 2", s1/s2)
	}
	// Performance-oriented (a=1,b=20): a 10%% slowdown costs ~6.7x.
	p1 := RCoalScore(100, 1, 1, 20)
	p2 := RCoalScore(100, 1.1, 1, 20)
	if p1/p2 < 6 || p1/p2 > 7 {
		t.Errorf("b=20 penalty ratio = %v, want ≈6.7", p1/p2)
	}
}

func TestRCoalScorePanicsOnBadTime(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RCoalScore with nonpositive time did not panic")
		}
	}()
	RCoalScore(1, 0, 1, 1)
}

func TestSecurityS(t *testing.T) {
	if got := SecurityS(0.1); !almostEqual(got, 100, 1e-9) {
		t.Errorf("SecurityS(0.1) = %v, want 100", got)
	}
}
