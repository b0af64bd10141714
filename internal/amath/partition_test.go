package amath

import (
	"math/big"
	"testing"
)

func collectPartitions(n, maxParts int) []Partition {
	var out []Partition
	ForEachPartition(n, maxParts, func(p Partition) bool {
		cp := make(Partition, len(p))
		copy(cp, p)
		out = append(out, cp)
		return true
	})
	return out
}

func TestForEachPartitionSmall(t *testing.T) {
	got := collectPartitions(4, 4)
	want := [][]int{{4}, {3, 1}, {2, 2}, {2, 1, 1}, {1, 1, 1, 1}}
	if len(got) != len(want) {
		t.Fatalf("partitions of 4: got %d, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("partition %d: got %v want %v", i, got[i], want[i])
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("partition %d: got %v want %v", i, got[i], want[i])
			}
		}
	}
}

func TestForEachPartitionMaxPartsLimits(t *testing.T) {
	got := collectPartitions(5, 2)
	// partitions of 5 into at most 2 parts: 5, 4+1, 3+2
	if len(got) != 3 {
		t.Fatalf("partitions of 5 into <=2 parts: got %d (%v), want 3", len(got), got)
	}
}

func TestPartitionInvariants(t *testing.T) {
	ForEachPartition(12, 7, func(p Partition) bool {
		if p.Sum() != 12 {
			t.Errorf("partition %v sums to %d", p, p.Sum())
		}
		if len(p) > 7 {
			t.Errorf("partition %v has %d parts, max 7", p, len(p))
		}
		for i := 1; i < len(p); i++ {
			if p[i] > p[i-1] {
				t.Errorf("partition %v not non-increasing", p)
			}
		}
		return true
	})
}

func TestCountPartitionsKnown(t *testing.T) {
	count := func(n, maxParts int) int {
		c := 0
		ForEachPartition(n, maxParts, func(Partition) bool {
			c++
			return true
		})
		return c
	}
	// p(n) with unrestricted parts.
	known := map[int]int{1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 10: 42, 20: 627}
	for n, w := range known {
		if got := count(n, n); got != w {
			t.Errorf("p(%d) = %d, want %d", n, got, w)
		}
	}
	// Paper-scale sanity: partitions of 32 into at most 16 parts must be
	// enumerable quickly (the Table II outer sum).
	if got := count(32, 16); got <= 0 || got > 10000 {
		t.Errorf("partitions of 32 into <=16 parts = %d, out of plausible range", got)
	}
}

func TestForEachPartitionExact(t *testing.T) {
	count := 0
	ForEachPartitionExact(6, 3, func(p Partition) bool {
		count++
		if len(p) != 3 || p.Sum() != 6 {
			t.Errorf("bad exact partition %v", p)
		}
		return true
	})
	if count != 3 { // 4+1+1, 3+2+1, 2+2+2
		t.Errorf("partitions of 6 into exactly 3 parts: got %d, want 3", count)
	}
}

func TestEarlyStop(t *testing.T) {
	count := 0
	ForEachPartition(30, 30, func(Partition) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop: visited %d partitions, want 5", count)
	}
}

func TestMultiplicities(t *testing.T) {
	values, counts := Partition{5, 3, 3, 1, 1, 1}.Multiplicities()
	wantV := []int{5, 3, 1}
	wantC := []int{1, 2, 3}
	if len(values) != 3 {
		t.Fatalf("multiplicities: %v %v", values, counts)
	}
	for i := range wantV {
		if values[i] != wantV[i] || counts[i] != wantC[i] {
			t.Fatalf("multiplicities: got %v %v, want %v %v", values, counts, wantV, wantC)
		}
	}
}

func TestCompositionCountStarsAndBars(t *testing.T) {
	if got := CompositionCount(32, 4); got.Cmp(Binomial(31, 3)) != 0 {
		t.Errorf("CompositionCount(32,4) = %s, want C(31,3)", got)
	}
	if got := CompositionCount(0, 3); got.Sign() != 0 {
		t.Errorf("CompositionCount(0,3) = %s, want 0", got)
	}
}

func TestCompositionClassesCoverAllCompositions(t *testing.T) {
	// Sum over partition classes of CompositionsOfClass must equal the
	// total number of compositions C(n-1,k-1).
	for _, tc := range []struct{ n, k int }{{8, 3}, {32, 4}, {32, 8}, {12, 12}} {
		sum := big.NewInt(0)
		ForEachPartitionExact(tc.n, tc.k, func(p Partition) bool {
			sum.Add(sum, CompositionsOfClass(p))
			return true
		})
		if sum.Cmp(CompositionCount(tc.n, tc.k)) != 0 {
			t.Errorf("n=%d k=%d: class sum %s != C(n-1,k-1) %s", tc.n, tc.k, sum, CompositionCount(tc.n, tc.k))
		}
	}
}

func TestFrequencyArrangements(t *testing.T) {
	// Partition {2,1,1} of 4 over r=3 blocks: arrangements of multiset
	// {2,1,1} on 3 labeled slots = 3!/(1!·2!·0!) = 3.
	got := FrequencyArrangements(Partition{2, 1, 1}, 3)
	if got.Cmp(big.NewInt(3)) != 0 {
		t.Errorf("FrequencyArrangements({2,1,1},3) = %s, want 3", got)
	}
	// More parts than blocks: impossible.
	if got := FrequencyArrangements(Partition{1, 1, 1}, 2); got.Sign() != 0 {
		t.Errorf("overfull arrangement = %s, want 0", got)
	}
}

func TestFrequencyClassProbabilitiesSumToOne(t *testing.T) {
	// Summing P over all frequency classes of n accesses to r blocks
	// must give exactly 1 (Definition 2 covers the sample space).
	for _, tc := range []struct{ n, r int }{{4, 3}, {8, 4}, {32, 16}} {
		sum := new(big.Rat)
		ForEachPartition(tc.n, tc.r, func(p Partition) bool {
			sum.Add(sum, FrequencyClassProbability(p, tc.n, tc.r))
			return true
		})
		if sum.Cmp(big.NewRat(1, 1)) != 0 {
			t.Errorf("n=%d r=%d: frequency classes sum to %s, want 1", tc.n, tc.r, sum)
		}
	}
}

func TestFrequencyClassProbabilityFloatMatchesExact(t *testing.T) {
	for _, tc := range []struct{ n, r int }{{8, 4}, {32, 16}, {12, 12}} {
		ForEachPartition(tc.n, tc.r, func(p Partition) bool {
			exact := RatFloat(FrequencyClassProbability(p, tc.n, tc.r))
			fast := FrequencyClassProbabilityFloat(p, tc.n, tc.r)
			diff := exact - fast
			if diff < 0 {
				diff = -diff
			}
			if exact > 0 && diff/exact > 1e-9 {
				t.Fatalf("n=%d r=%d partition %v: exact %v vs float %v", tc.n, tc.r, p, exact, fast)
			}
			return true
		})
	}
	// Over-full partitions yield 0 on both paths.
	if FrequencyClassProbabilityFloat(Partition{1, 1, 1}, 3, 2) != 0 {
		t.Error("over-full class not zero")
	}
}
