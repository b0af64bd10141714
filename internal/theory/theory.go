// Package theory implements the analytical security model of Section V
// of the RCoal paper: the exact distribution of coalesced-access
// counts under each defense mechanism and the resulting correlation ρ
// between the attacker's estimation vector and the true access counts,
// from which the (normalized) number of samples S needed for a
// successful correlation attack follows (Table II).
//
// Notation follows the paper: N threads per warp, R memory blocks per
// lookup table, M subwarps. Definition 1's distribution 𝔑_{m,n} is
// evaluated exactly with big.Rat (Stirling numbers over n^m); the
// sums over frequency classes (Definition 2) and subwarp-size classes
// collapse labeled vectors into integer-partition classes, which makes
// the 16^32-term sums tractable.
package theory

import (
	"fmt"
	"math"
	"math/big"
	"sync"

	"rcoal/internal/amath"
)

// NDistribution returns the exact law of 𝔑_{m,n} (Definition 1): the
// number of distinct blocks touched when m threads each access one of
// n blocks uniformly. Entry i of the result is P(𝔑 = i), i = 0..m.
func NDistribution(m, n int) []*big.Rat {
	if m < 0 || n <= 0 {
		panic(fmt.Sprintf("theory: NDistribution(%d,%d) invalid", m, n))
	}
	den := amath.Pow(n, m)
	out := make([]*big.Rat, m+1)
	for i := 0; i <= m; i++ {
		num := new(big.Int).Mul(amath.FallingFactorial(n, i), amath.Stirling2(m, i))
		out[i] = new(big.Rat).SetFrac(num, den)
	}
	return out
}

// NMoments returns the exact mean and variance of 𝔑_{m,n}.
func NMoments(m, n int) (mean, variance float64) {
	dist := NDistribution(m, n)
	mu := new(big.Rat)
	mu2 := new(big.Rat)
	for i, p := range dist {
		iv := big.NewRat(int64(i), 1)
		term := new(big.Rat).Mul(p, iv)
		mu.Add(mu, term)
		mu2.Add(mu2, term.Mul(term, iv))
	}
	mean = amath.RatFloat(mu)
	m2 := amath.RatFloat(mu2)
	return mean, m2 - mean*mean
}

// coverProb is the Definition 3 kernel: the probability that a subwarp
// of capacity c receives at least one of the f threads accessing a
// given block, when the f threads are spread uniformly (RTS) over S
// thread slots: 1 − C(S−c, f)/C(S, f).
func coverProb(s, f, c int) float64 {
	den := amath.BinomialFloat(s, f)
	if den == 0 {
		return 0
	}
	return 1 - amath.BinomialFloat(s-c, f)/den
}

// MeanMFC returns μ(𝔐_{F,C}) per Definition 3: the expected coalesced
// accesses when the block-frequency vector is F and the subwarp
// capacities are C, with random (RTS) thread placement over
// S = ΣC slots.
func MeanMFC(freqs, caps []int) float64 {
	s := 0
	for _, c := range caps {
		s += c
	}
	total := 0.0
	for _, f := range freqs {
		for _, c := range caps {
			total += coverProb(s, f, c)
		}
	}
	return total
}

// Model evaluates the analytical ρ for one (N, R, M) point.
type Model struct {
	N, R int // threads per warp, blocks per table

	// freqClasses caches the frequency-class enumeration (partition
	// classes of N over R blocks with their exact probabilities),
	// which every RTS-based ρ shares. freqOnce builds it on first use,
	// so one Model may serve concurrent callers.
	freqOnce    sync.Once
	freqClasses []freqClass
	// binom caches Pascal's triangle up to N as float64: the coverProb
	// kernel runs tens of millions of times for large-N models, and
	// big.Int binomials would dominate the runtime.
	binom [][]float64
}

type freqClass struct {
	freqs []int
	prob  float64
}

// NewModel returns the model for N threads and R blocks; the paper
// evaluates N=32, R=16.
func NewModel(n, r int) (*Model, error) {
	if n <= 0 || r <= 0 {
		return nil, fmt.Errorf("theory: invalid model N=%d R=%d", n, r)
	}
	md := &Model{N: n, R: r}
	md.binom = make([][]float64, n+1)
	for i := 0; i <= n; i++ {
		md.binom[i] = make([]float64, i+1)
		md.binom[i][0] = 1
		md.binom[i][i] = 1
		for j := 1; j < i; j++ {
			md.binom[i][j] = md.binom[i-1][j-1] + md.binom[i-1][j]
		}
	}
	return md, nil
}

// cover is coverProb with the model's cached triangle.
func (md *Model) cover(s, f, c int) float64 {
	if f < 0 || f > s {
		return 0
	}
	den := md.binom[s][f]
	if den == 0 {
		return 0
	}
	num := 0.0
	if rem := s - c; rem >= 0 && f <= rem {
		num = md.binom[rem][f]
	}
	return 1 - num/den
}

// RhoFSS returns ρ for the FSS mechanism with M subwarps. The FSS
// attack reproduces the hardware's deterministic plan exactly, so
// U = Û and ρ = 1 — except at M = N where every thread is alone, the
// count is the constant N, σ(U) = 0, and ρ is defined as 0.
func (md *Model) RhoFSS(m int) float64 {
	if md.N%m != 0 {
		panic(fmt.Sprintf("theory: FSS M=%d must divide N=%d", m, md.N))
	}
	if m == md.N {
		return 0
	}
	_, v := NMoments(md.N/m, md.R)
	if v == 0 {
		return 0
	}
	return 1
}

// RhoFSSRTS returns ρ for FSS+RTS with M subwarps (Section V-B2).
func (md *Model) RhoFSSRTS(m int) float64 {
	if md.N%m != 0 {
		panic(fmt.Sprintf("theory: FSS+RTS M=%d must divide N=%d", m, md.N))
	}
	if m == md.N {
		return 0
	}
	// The random permutation leaves the marginal law of U unchanged:
	// μ(U) and σ(U) are those of FSS.
	mu1, v1 := NMoments(md.N/m, md.R)
	mu := float64(m) * mu1
	variance := float64(m) * v1
	if variance == 0 {
		return 0
	}

	// μ(U×Û) = Σ_F P(F) μ(U|F)², Equation 6. All subwarps share the
	// capacity N/M, so μ(𝔐) per block frequency f is M·cover(f).
	gFix := make([]float64, md.N+1)
	for f := 1; f <= md.N; f++ {
		gFix[f] = float64(m) * md.cover(md.N, f, md.N/m)
	}
	muUU := md.sumOverFrequencyClasses(func(freqs []int) float64 {
		x := 0.0
		for _, f := range freqs {
			x += gFix[f]
		}
		return x * x
	})
	return (muUU - mu*mu) / variance
}

// RhoRSSRTS returns ρ for RSS+RTS with M subwarps (Section V-B3):
// subwarp sizes drawn uniformly from the compositions of N into M
// positive parts, threads placed by random permutation.
func (md *Model) RhoRSSRTS(m int) float64 {
	if m < 1 || m > md.N {
		panic(fmt.Sprintf("theory: RSS+RTS M=%d outside [1,%d]", m, md.N))
	}
	if m == md.N {
		return 0
	}

	// Enumerate subwarp-size classes: partitions of N into exactly M
	// parts, weighted by their composition count.
	type sizeClass struct {
		parts []int
		prob  float64
	}
	var classes []sizeClass
	totalComps := new(big.Rat).SetInt(amath.CompositionCount(md.N, m))
	amath.ForEachPartitionExact(md.N, m, func(p amath.Partition) bool {
		cp := make([]int, len(p))
		copy(cp, p)
		w := new(big.Rat).SetInt(amath.CompositionsOfClass(p))
		w.Quo(w, totalComps)
		classes = append(classes, sizeClass{parts: cp, prob: amath.RatFloat(w)})
		return true
	})

	// Per-size moments of 𝔑_{w,R}.
	muN := make([]float64, md.N+1)
	varN := make([]float64, md.N+1)
	for w := 1; w <= md.N; w++ {
		muN[w], varN[w] = NMoments(w, md.R)
	}

	// μ(U), μ(U²) over the size classes; subwarps are independent
	// given the sizes.
	var mu, mu2 float64
	for _, cl := range classes {
		condMu, condVar := 0.0, 0.0
		for _, w := range cl.parts {
			condMu += muN[w]
			condVar += varN[w]
		}
		mu += cl.prob * condMu
		mu2 += cl.prob * (condVar + condMu*condMu)
	}
	variance := mu2 - mu*mu
	if variance <= 0 {
		return 0
	}

	// G(f) = Σ_W P(W) Σ_{c∈W} coverProb(N, f, c): the expected number
	// of subwarps covering a block accessed by f threads, averaged
	// over size classes. Then μ(U|F) = Σ_{f∈F} G(f) and
	// μ(U×Û) = Σ_F P(F) (Σ_{f∈F} G(f))².
	g := make([]float64, md.N+1)
	for f := 1; f <= md.N; f++ {
		for _, cl := range classes {
			s := 0.0
			for _, c := range cl.parts {
				s += md.cover(md.N, f, c)
			}
			g[f] += cl.prob * s
		}
	}
	muUU := md.sumOverFrequencyClasses(func(freqs []int) float64 {
		h := 0.0
		for _, f := range freqs {
			h += g[f]
		}
		return h * h
	})
	return (muUU - mu*mu) / variance
}

// sumOverFrequencyClasses computes Σ_F P(F)·fn(F) over all frequency
// classes of N accesses to R blocks (Definition 2), enumerating
// partition classes and weighting by their exact probability.
func (md *Model) sumOverFrequencyClasses(fn func(freqs []int) float64) float64 {
	md.freqOnce.Do(func() {
		amath.ForEachPartition(md.N, md.R, func(p amath.Partition) bool {
			cp := make([]int, len(p))
			copy(cp, p)
			// The float fast path keeps large-N models tractable; its
			// agreement with the exact rational form is locked in by
			// the amath tests.
			prob := amath.FrequencyClassProbabilityFloat(p, md.N, md.R)
			md.freqClasses = append(md.freqClasses, freqClass{freqs: cp, prob: prob})
			return true
		})
	})
	total := 0.0
	for _, fc := range md.freqClasses {
		total += fc.prob * fn(fc.freqs)
	}
	return total
}

// Row is one line of Table II.
type Row struct {
	M                            int
	RhoFSS, RhoFSSRTS, RhoRSSRTS float64
	// S values are normalized to FSS at M=1 (S = 1/ρ²); +Inf encodes
	// the paper's ∞ entries.
	SFSS, SFSSRTS, SRSSRTS float64
}

// Table2 reproduces Table II for the given subwarp counts.
func (md *Model) Table2(ms []int) []Row {
	rows := make([]Row, 0, len(ms))
	for _, m := range ms {
		r := Row{
			M:         m,
			RhoFSS:    md.RhoFSS(m),
			RhoFSSRTS: md.RhoFSSRTS(m),
			RhoRSSRTS: md.RhoRSSRTS(m),
		}
		r.SFSS = invSquare(r.RhoFSS)
		r.SFSSRTS = invSquare(r.RhoFSSRTS)
		r.SRSSRTS = invSquare(r.RhoRSSRTS)
		rows = append(rows, r)
	}
	return rows
}

func invSquare(rho float64) float64 {
	if rho == 0 {
		return math.Inf(1)
	}
	return 1 / (rho * rho)
}
