package gpusim

import (
	"fmt"
	"reflect"
	"testing"

	"rcoal/internal/mechanism"
	"rcoal/internal/rng"
)

// This file enforces the determinism contract of the event-driven
// fast-forward core: for any (kernel, seed, configuration), the Result
// of a fast-forwarded run is byte-identical to the Result of a pure
// cycle-stepped run — same cycle count, same per-round windows, same
// coalesced-access counts, same DRAM/L1/L2 statistics.

// randomKernel builds a multi-warp kernel with a mix of instruction
// kinds, divergence, and per-round markers, stressing the scheduler
// and memory paths with irregular address patterns.
func randomKernel(seed uint64, warps, rounds int) *Kernel {
	r := rng.New(seed)
	k := &Kernel{Label: fmt.Sprintf("ff-random-%d", seed)}
	for wid := 0; wid < warps; wid++ {
		wp := &WarpProgram{ID: wid}
		for round := 1; round <= rounds; round++ {
			wp.Instrs = append(wp.Instrs, Instr{Kind: RoundMark, Round: round})
			wp.Instrs = append(wp.Instrs, Instr{Kind: ALU, Round: round})
			for l := 0; l < 3; l++ {
				addrs := make([]uint64, 32)
				for t := range addrs {
					addrs[t] = uint64(r.Intn(64)) * 64 // 64 blocks of table space
				}
				ins := Instr{Kind: Load, Addrs: addrs, Round: round}
				if l == 1 && r.Intn(2) == 0 {
					active := make([]bool, 32)
					for t := range active {
						active[t] = r.Intn(4) != 0
					}
					ins.Active = active
				}
				wp.Instrs = append(wp.Instrs, ins)
			}
		}
		wp.Instrs = append(wp.Instrs, Instr{Kind: RoundMark, Round: 0})
		// Trailing store (ciphertext writeback pattern).
		addrs := make([]uint64, 32)
		for t := range addrs {
			addrs[t] = uint64(4096 + wid*2048 + t*64)
		}
		wp.Instrs = append(wp.Instrs, Instr{Kind: Store, Addrs: addrs})
		k.Warps = append(k.Warps, wp)
	}
	return k
}

// ffVariant is one configuration point of the differential grid.
type ffVariant struct {
	name string
	mut  func(*Config)
}

func ffVariants() []ffVariant {
	return []ffVariant{
		{"paper-baseline", func(c *Config) {}},
		{"l1l2", func(c *Config) {
			c.L1Enabled, c.L1 = true, DefaultL1()
			c.L2Enabled, c.L2 = true, DefaultL2()
		}},
		{"mshr", func(c *Config) { c.MSHREnabled = true }},
		{"l1l2-mshr-randomized", func(c *Config) {
			c.L1Enabled, c.L1 = true, DefaultL1()
			c.L2Enabled, c.L2 = true, DefaultL2()
			c.MSHREnabled = true
			c.CacheRandomized = true
		}},
		{"gto", func(c *Config) { c.Scheduler = GTO }},
		{"nocoal", func(c *Config) { c.Defense = mechanism.NoCoal() }},
		{"selective", func(c *Config) { c.VulnerableRounds = []int{1, 4} }},
		{"planperwarp", func(c *Config) { c.PlanPerWarp = true }},
	}
}

func ffMechanisms() []mechanism.Mechanism {
	return []mechanism.Mechanism{
		mechanism.Baseline(),
		mechanism.FSS(8),
		mechanism.FSSRTS(4),
		mechanism.RSS(8),
		mechanism.RSSRTS(8),
		mechanism.RSSNormal(4, 1.5),
		mechanism.Delay(64),
		mechanism.Shuffle(),
	}
}

// TestFastForwardByteIdenticalResults runs the same (kernel, seed)
// with fast-forward forced off and on across every mechanism, ablation
// variant, and several seeds, requiring deeply equal Results. Turning
// fast-forward off also turns off the per-SM and per-partition wake
// gating, so the comparison covers both. The 32-warp kernel puts at
// least two warps on every SM, so one SM's schedulers, replies, and
// wake cycle interleave several warps, as in the 1024-line case study.
func TestFastForwardByteIdenticalResults(t *testing.T) {
	kerns := []*Kernel{randomKernel(11, 4, 4), randomKernel(12, 32, 2)}
	seeds := []uint64{1, 42, 0xdecaf}
	for _, variant := range ffVariants() {
		for _, mech := range ffMechanisms() {
			t.Run(fmt.Sprintf("%s/%s", variant.name, mech.Name()), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Defense = mech
				variant.mut(&cfg)

				slow := cfg
				slow.FastForwardDisabled = true
				gSlow, err := New(slow)
				if err != nil {
					t.Fatal(err)
				}
				gFast, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, kern := range kerns {
					for _, seed := range seeds {
						want, err := gSlow.Run(kern, seed)
						if err != nil {
							t.Fatal(err)
						}
						skipped := gFast.SkippedCycles
						got, err := gFast.Run(kern, seed)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("%d warps, seed %d: fast-forward result differs\ncycle-stepped: cycles=%d totalTx=%d\nfast-forward:  cycles=%d totalTx=%d",
								len(kern.Warps), seed, want.Cycles, want.TotalTx, got.Cycles, got.TotalTx)
						}
						if gFast.SkippedCycles == skipped && want.Cycles > 100 {
							t.Errorf("%d warps, seed %d: fast-forward never skipped a cycle on a %d-cycle run", len(kern.Warps), seed, want.Cycles)
						}
					}
				}
			})
		}
	}
}

// TestFastForwardIdenticalAcrossReuse checks the runtime-reuse path:
// interleaving kernels of different warp counts (forcing rebuilds) and
// repeating seeds on a shared GPU must reproduce the results of fresh
// single-use GPUs, fast-forwarded or not.
func TestFastForwardIdenticalAcrossReuse(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Defense = mechanism.RSSRTS(8)
	shared, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	kerns := []*Kernel{randomKernel(1, 2, 3), randomKernel(2, 5, 2), randomKernel(3, 2, 4)}
	for round := 0; round < 2; round++ {
		for ki, kern := range kerns {
			seed := uint64(100*round + ki)
			got, err := shared.Run(kern, seed)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Run(kern, seed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("round %d kernel %d: shared-GPU result differs from fresh-GPU result", round, ki)
			}
		}
	}
}

// TestFastForwardSkipsMostCycles pins the optimization itself: on a
// latency-bound single-warp kernel (each load coalesces to one
// transaction, so the machine sits idle for the full memory round
// trip) the event-driven core must elide the majority of cycles, not
// just a token few.
func TestFastForwardSkipsMostCycles(t *testing.T) {
	k := &Kernel{Label: "pointer-chase"}
	wp := &WarpProgram{ID: 0}
	for i := 0; i < 20; i++ {
		addrs := make([]uint64, 32)
		for t := range addrs {
			addrs[t] = uint64(i) * 64 // whole warp shares one block
		}
		wp.Instrs = append(wp.Instrs, Instr{Kind: Load, Addrs: addrs})
	}
	k.Warps = append(k.Warps, wp)

	g, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run(k, 9)
	if err != nil {
		t.Fatal(err)
	}
	if g.SkippedCycles*2 < res.Cycles {
		t.Fatalf("skipped only %d of %d cycles; expected > half on a latency-bound kernel",
			g.SkippedCycles, res.Cycles)
	}
}
