package amath

import (
	"math"
	"math/big"
)

// Partition is a partition of an integer into positive parts, stored in
// non-increasing order. The RCoal model uses partitions in two roles:
//
//   - a frequency class: the multiset of non-zero per-block access
//     frequencies {f_1, ..., f_R} (Definition 2), and
//   - a subwarp-size class: the multiset of subwarp capacities
//     {w_1, ..., w_M} under RSS (Section V-B3).
//
// Collapsing labeled vectors into partition classes is what makes the
// Table II sums tractable: the expectation formulas of Definition 3
// depend only on the multiset, so each class is evaluated once and
// weighted by its arrangement count.
type Partition []int

// Sum returns the partitioned integer.
func (p Partition) Sum() int {
	s := 0
	for _, v := range p {
		s += v
	}
	return s
}

// Multiplicities returns, for each distinct part value, how many times
// it occurs. Iteration order follows first appearance (descending part
// value, since partitions are stored non-increasing).
func (p Partition) Multiplicities() (values, counts []int) {
	for _, v := range p {
		if n := len(values); n > 0 && values[n-1] == v {
			counts[n-1]++
		} else {
			values = append(values, v)
			counts = append(counts, 1)
		}
	}
	return values, counts
}

// ForEachPartition enumerates every partition of n into at most maxParts
// positive parts, in reverse lexicographic order, invoking fn for each.
// The slice passed to fn is reused between calls; fn must copy it if it
// retains it. Enumeration stops early if fn returns false.
func ForEachPartition(n, maxParts int, fn func(Partition) bool) {
	if n < 0 || maxParts <= 0 {
		return
	}
	if n == 0 {
		fn(Partition{})
		return
	}
	parts := make([]int, 0, maxParts)
	var rec func(remaining, maxPart, slots int) bool
	rec = func(remaining, maxPart, slots int) bool {
		if remaining == 0 {
			return fn(Partition(parts))
		}
		if slots == 0 {
			return true
		}
		hi := maxPart
		if remaining < hi {
			hi = remaining
		}
		for v := hi; v >= 1; v-- {
			// The remaining slots must be able to absorb what is left:
			// each can hold at most v.
			if remaining-v > (slots-1)*v {
				continue
			}
			parts = append(parts, v)
			ok := rec(remaining-v, v, slots-1)
			parts = parts[:len(parts)-1]
			if !ok {
				return false
			}
		}
		return true
	}
	rec(n, n, maxParts)
}

// ForEachPartitionExact enumerates partitions of n into exactly k
// positive parts. The slice passed to fn is reused; copy to retain.
func ForEachPartitionExact(n, k int, fn func(Partition) bool) {
	ForEachPartition(n, k, func(p Partition) bool {
		if len(p) != k {
			return true
		}
		return fn(p)
	})
}

// CompositionCount returns the number of compositions of n into exactly
// k positive (ordered) parts: C(n-1, k-1). Under skewed RSS every such
// composition is equally likely (Section IV-B).
func CompositionCount(n, k int) *big.Int {
	if n <= 0 || k <= 0 {
		return big.NewInt(0)
	}
	return Binomial(n-1, k-1)
}

// CompositionsOfClass returns how many ordered compositions realize the
// partition class p (distinct orderings of its parts): k! / ∏ mult_v!.
func CompositionsOfClass(p Partition) *big.Int {
	out := Factorial(len(p))
	_, counts := p.Multiplicities()
	for _, c := range counts {
		out.Quo(out, Factorial(c))
	}
	return out
}

// FrequencyArrangements returns the number of ways to assign the
// partition class p (the non-zero frequencies) onto r labeled memory
// blocks, the remaining blocks having frequency zero:
// r! / (∏ mult_v! · (r-len(p))!).
func FrequencyArrangements(p Partition, r int) *big.Int {
	if len(p) > r {
		return big.NewInt(0)
	}
	out := Factorial(r)
	_, counts := p.Multiplicities()
	for _, c := range counts {
		out.Quo(out, Factorial(c))
	}
	out.Quo(out, Factorial(r-len(p)))
	return out
}

// FrequencyClassProbability returns the exact probability that n
// uniform, independent block accesses over r labeled blocks produce a
// frequency vector in the class of p: arrangements · n!/(∏ f_i!) / r^n.
// This is P(F) of Section V-B2 summed over the whole class.
func FrequencyClassProbability(p Partition, n, r int) *big.Rat {
	if p.Sum() != n {
		panic("amath: FrequencyClassProbability partition does not sum to n")
	}
	num := FrequencyArrangements(p, r)
	num.Mul(num, Multinomial(n, p))
	return new(big.Rat).SetFrac(num, Pow(r, n))
}

// FrequencyClassProbabilityFloat is the float64 fast path of
// FrequencyClassProbability, computed with log-gamma so that large-N
// models (e.g. 64-thread wavefronts) stay tractable. Relative error is
// at the 1e-12 level, far below the model's printed precision.
func FrequencyClassProbabilityFloat(p Partition, n, r int) float64 {
	if p.Sum() != n {
		panic("amath: FrequencyClassProbabilityFloat partition does not sum to n")
	}
	if len(p) > r {
		return 0
	}
	// log of: r!/(∏ mult! · (r-k)!) · n!/(∏ f_i!) / r^n
	logp := lgamma(r+1) - lgamma(r-len(p)+1) + lgamma(n+1) - float64(n)*math.Log(float64(r))
	values, counts := p.Multiplicities()
	for i, v := range values {
		logp -= float64(counts[i]) * lgamma(v+1) // ∏ f_i! over the class
		logp -= lgamma(counts[i] + 1)            // ∏ mult!
	}
	return math.Exp(logp)
}

func lgamma(x int) float64 {
	v, _ := math.Lgamma(float64(x))
	return v
}
