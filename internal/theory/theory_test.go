package theory

import (
	"math"
	"math/big"
	"sync"
	"testing"

	"rcoal/internal/rng"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNDistributionNormalizes(t *testing.T) {
	for _, tc := range []struct{ m, n int }{{1, 16}, {4, 16}, {32, 16}, {8, 4}} {
		sum := new(big.Rat)
		for _, p := range NDistribution(tc.m, tc.n) {
			if p.Sign() < 0 {
				t.Fatalf("negative probability for m=%d n=%d", tc.m, tc.n)
			}
			sum.Add(sum, p)
		}
		if sum.Cmp(big.NewRat(1, 1)) != 0 {
			t.Errorf("m=%d n=%d: sums to %s", tc.m, tc.n, sum)
		}
	}
}

func TestNDistributionEdgeCases(t *testing.T) {
	// One thread: always exactly one block.
	d := NDistribution(1, 16)
	if d[0].Sign() != 0 || d[1].Cmp(big.NewRat(1, 1)) != 0 {
		t.Error("m=1 distribution wrong")
	}
	// Mean of the coupon-collector form: n(1-(1-1/n)^m).
	mean, _ := NMoments(32, 16)
	want := 16 * (1 - math.Pow(15.0/16.0, 32))
	if !almost(mean, want, 1e-9) {
		t.Errorf("mean = %v, want %v", mean, want)
	}
}

func TestNMomentsAgainstSimulation(t *testing.T) {
	// Monte-Carlo cross-check of Definition 1.
	src := rng.New(7)
	const draws = 200000
	m, n := 8, 16
	var sum, sum2 float64
	for i := 0; i < draws; i++ {
		var mask uint32
		for j := 0; j < m; j++ {
			mask |= 1 << uint(src.Intn(n))
		}
		c := float64(popcount32(mask))
		sum += c
		sum2 += c * c
	}
	simMean := sum / draws
	simVar := sum2/draws - simMean*simMean
	mean, variance := NMoments(m, n)
	if !almost(mean, simMean, 0.02) {
		t.Errorf("mean: analytic %v vs sim %v", mean, simMean)
	}
	if !almost(variance, simVar, 0.03) {
		t.Errorf("variance: analytic %v vs sim %v", variance, simVar)
	}
}

func popcount32(x uint32) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func TestCoverProb(t *testing.T) {
	// Capacity = all slots: certainly covered.
	if got := coverProb(32, 5, 32); !almost(got, 1, 1e-12) {
		t.Errorf("full capacity: %v", got)
	}
	// f = S: every slot holds a thread, any non-empty subwarp covered.
	if got := coverProb(32, 32, 1); !almost(got, 1, 1e-12) {
		t.Errorf("all threads: %v", got)
	}
	// Single thread, capacity c: probability c/S.
	if got := coverProb(32, 1, 8); !almost(got, 0.25, 1e-12) {
		t.Errorf("single thread: %v, want 0.25", got)
	}
}

func TestMeanMFCAgainstSimulation(t *testing.T) {
	// Definition 3 cross-check: random permutation placement.
	freqs := []int{5, 3, 2} // 10 threads over 3 blocks... plus empty slots
	caps := []int{4, 4, 4, 4}
	// MeanMFC semantics: S = sum caps = 16 slots; freqs threads placed
	// among the 16 slots uniformly.
	analytic := MeanMFC(freqs, caps)

	src := rng.New(9)
	const draws = 100000
	total := 0.0
	for d := 0; d < draws; d++ {
		perm := src.Perm(16)
		// slots 0..4 hold block-0 threads, 5..7 block 1, 8..9 block 2,
		// rest idle. perm[i] = slot of thread i.
		blockOfSlot := make(map[int]int)
		pos := 0
		for b, f := range freqs {
			for k := 0; k < f; k++ {
				blockOfSlot[perm[pos]] = b
				pos++
			}
		}
		count := 0
		for s := 0; s < 4; s++ {
			var seen [3]bool
			for slot := s * 4; slot < (s+1)*4; slot++ {
				if b, ok := blockOfSlot[slot]; ok && !seen[b] {
					seen[b] = true
					count++
				}
			}
		}
		total += float64(count)
	}
	sim := total / draws
	if !almost(analytic, sim, 0.02) {
		t.Errorf("MeanMFC: analytic %v vs sim %v", analytic, sim)
	}
}

func TestNewModelValidation(t *testing.T) {
	if _, err := NewModel(0, 16); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := NewModel(32, 0); err == nil {
		t.Error("R=0 accepted")
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	// The headline theoretical result: Table II of the paper, to the
	// printed precision.
	md, err := NewModel(32, 16)
	if err != nil {
		t.Fatal(err)
	}
	rows := md.Table2([]int{1, 2, 4, 8, 16, 32})

	want := []struct {
		m                            int
		rhoFSS, rhoFSSRTS, rhoRSSRTS float64
		sFSSRTS, sRSSRTS             float64 // 0 encodes ∞/1 handled below
	}{
		{1, 1.00, 1.00, 1.00, 1, 1},
		{2, 1.00, 0.41, 0.20, 6, 25},
		{4, 1.00, 0.20, 0.15, 24, 42},
		{8, 1.00, 0.09, 0.11, 115, 78},
		{16, 1.00, 0.03, 0.05, 961, 349},
		{32, 0.00, 0.00, 0.00, math.Inf(1), math.Inf(1)},
	}
	for i, w := range want {
		r := rows[i]
		if r.M != w.m {
			t.Fatalf("row %d: M=%d", i, r.M)
		}
		if !almost(r.RhoFSS, w.rhoFSS, 0.005) {
			t.Errorf("M=%d: rho FSS = %v, paper %v", w.m, r.RhoFSS, w.rhoFSS)
		}
		if !almost(r.RhoFSSRTS, w.rhoFSSRTS, 0.005) {
			t.Errorf("M=%d: rho FSS+RTS = %v, paper %v", w.m, r.RhoFSSRTS, w.rhoFSSRTS)
		}
		if !almost(r.RhoRSSRTS, w.rhoRSSRTS, 0.005) {
			t.Errorf("M=%d: rho RSS+RTS = %v, paper %v", w.m, r.RhoRSSRTS, w.rhoRSSRTS)
		}
		if math.IsInf(w.sFSSRTS, 1) {
			if !math.IsInf(r.SFSSRTS, 1) || !math.IsInf(r.SRSSRTS, 1) {
				t.Errorf("M=%d: S should be ∞", w.m)
			}
			continue
		}
		if math.Round(r.SFSSRTS) != w.sFSSRTS {
			t.Errorf("M=%d: S FSS+RTS = %v, paper %v", w.m, math.Round(r.SFSSRTS), w.sFSSRTS)
		}
		if math.Round(r.SRSSRTS) != w.sRSSRTS {
			t.Errorf("M=%d: S RSS+RTS = %v, paper %v", w.m, math.Round(r.SRSSRTS), w.sRSSRTS)
		}
	}
}

func TestTable2CrossoverStructure(t *testing.T) {
	// The qualitative finding of Section V-C: RSS+RTS is stronger for
	// M = 2, 4; FSS+RTS is stronger for M = 8, 16.
	md, _ := NewModel(32, 16)
	rows := md.Table2([]int{2, 4, 8, 16})
	for _, r := range rows[:2] {
		if r.RhoRSSRTS >= r.RhoFSSRTS {
			t.Errorf("M=%d: expected RSS+RTS (%v) below FSS+RTS (%v)", r.M, r.RhoRSSRTS, r.RhoFSSRTS)
		}
	}
	for _, r := range rows[2:] {
		if r.RhoFSSRTS >= r.RhoRSSRTS {
			t.Errorf("M=%d: expected FSS+RTS (%v) below RSS+RTS (%v)", r.M, r.RhoFSSRTS, r.RhoRSSRTS)
		}
	}
}

func TestRhoDecreasesWithM(t *testing.T) {
	md, _ := NewModel(32, 16)
	prevF, prevR := 2.0, 2.0
	for _, m := range []int{1, 2, 4, 8, 16} {
		f := md.RhoFSSRTS(m)
		r := md.RhoRSSRTS(m)
		if f >= prevF || r >= prevR {
			t.Errorf("M=%d: rho not strictly decreasing (FSS+RTS %v, RSS+RTS %v)", m, f, r)
		}
		prevF, prevR = f, r
	}
}

func TestSmallModelSanity(t *testing.T) {
	// A 4-thread, 2-block toy model must still satisfy the structural
	// facts: rho(M=1) = 1, rho(M=N) = 0, monotone in between.
	md, _ := NewModel(4, 2)
	if got := md.RhoFSSRTS(1); !almost(got, 1, 1e-9) {
		t.Errorf("toy M=1: %v", got)
	}
	if got := md.RhoFSSRTS(4); got != 0 {
		t.Errorf("toy M=N: %v", got)
	}
	mid := md.RhoFSSRTS(2)
	if mid <= 0 || mid >= 1 {
		t.Errorf("toy M=2: %v outside (0,1)", mid)
	}
	rss := md.RhoRSSRTS(2)
	if rss <= 0 || rss >= 1 {
		t.Errorf("toy RSS M=2: %v outside (0,1)", rss)
	}
}

func TestPanicsOnBadM(t *testing.T) {
	md, _ := NewModel(32, 16)
	for name, fn := range map[string]func(){
		"FSS non-divisor":     func() { md.RhoFSS(3) },
		"FSSRTS non-divisor":  func() { md.RhoFSSRTS(5) },
		"RSSRTS out of range": func() { md.RhoRSSRTS(33) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestModelConcurrentRho: a Model is safe to share across goroutines,
// so its lazily built frequency-class cache must be filled exactly
// once. A racing
// fill duplicated classes and returned a ρ far outside [-1, 1]; run
// under -race this also catches the unsynchronized write itself.
func TestModelConcurrentRho(t *testing.T) {
	want := func() float64 {
		md, err := NewModel(32, 16)
		if err != nil {
			t.Fatal(err)
		}
		return md.RhoFSSRTS(2)
	}()
	md, err := NewModel(32, 16)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = md.RhoFSSRTS(2)
		}(i)
	}
	wg.Wait()
	for i, rho := range got {
		if rho != want {
			t.Errorf("goroutine %d: ρ = %v, want %v", i, rho, want)
		}
	}
}
