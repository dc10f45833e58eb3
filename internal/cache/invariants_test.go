package cache

import (
	"testing"

	"emissary/internal/core"
	"emissary/internal/rng"
)

// checkInvariants asserts the structural properties of the hierarchy:
// the private caches are subsets of the inclusive L2, and the
// exclusive victim L3 is disjoint from L2.
func checkInvariants(t *testing.T, h *Hierarchy) {
	t.Helper()
	checkSubset := func(inner, outer *Cache, name string) {
		for s := 0; s < inner.sets; s++ {
			for w := 0; w < inner.ways; w++ {
				l := inner.line(s, w)
				if !l.Valid {
					continue
				}
				addr := inner.lineAddr(s, l.Tag)
				if !outer.Contains(addr) {
					t.Fatalf("inclusion violated: %s holds %#x but L2 does not", name, addr)
				}
			}
		}
	}
	checkSubset(h.L1I, h.L2, "L1I")
	checkSubset(h.L1D, h.L2, "L1D")
	for s := 0; s < h.L2.sets; s++ {
		for w := 0; w < h.L2.ways; w++ {
			l := h.L2.line(s, w)
			if !l.Valid {
				continue
			}
			addr := h.L2.lineAddr(s, l.Tag)
			if h.L3.Contains(addr) {
				t.Fatalf("exclusivity violated: %#x resident in both L2 and L3", addr)
			}
		}
	}
}

// driveRandom pushes a random mixture of instruction fetches and data
// accesses through the hierarchy.
func driveRandom(t *testing.T, h *Hierarchy, ops int, seed uint64) {
	t.Helper()
	r := rng.NewXoshiro256(seed)
	type pend struct {
		line uint64
		src  Source
	}
	var inflight []pend
	for i := 0; i < ops; i++ {
		switch {
		case r.Bool(0.5):
			// Instruction fetch over a 3000-line code region.
			line := uint64(0x100000 + r.Intn(3000))
			busy := false
			for _, p := range inflight {
				if p.line == line {
					busy = true
					break
				}
			}
			if busy {
				break
			}
			res := h.ProbeFetch(line)
			if res.NeedFill {
				inflight = append(inflight, pend{line, res.Source})
			}
		case r.Bool(0.5) && len(inflight) > 0:
			// Complete an outstanding fetch (random starvation flag).
			p := inflight[0]
			inflight = inflight[1:]
			h.CompleteFetch(p.line, p.src, r.Bool(0.2))
		default:
			// Data access over a 4000-line heap.
			h.AccessData(uint64(0x900000+r.Intn(4000)), r.Bool(0.3))
		}
	}
	for _, p := range inflight {
		h.CompleteFetch(p.line, p.src, false)
	}
}

func TestHierarchyInvariantsUnderRandomTraffic(t *testing.T) {
	for _, pol := range []string{"TPLRU", "P(8):S&E", "P(8):S&E&R(1/32)", "DRRIP", "M:0", "PDP", "DCLIP", "GHRP", "P(8):S+GHRP"} {
		t.Run(pol, func(t *testing.T) {
			h := NewHierarchy(DefaultConfig(core.MustParsePolicy(pol)))
			driveRandom(t, h, 60_000, 7)
			checkInvariants(t, h)
		})
	}
}

func TestHierarchyInvariantsSmallCaches(t *testing.T) {
	// Tiny caches maximize eviction pressure on every edge.
	cfg := DefaultConfig(core.MustParsePolicy("P(4):S&E"))
	cfg.L1I = LevelConfig{SizeKB: 2, Ways: 2, HitLatency: 2, NLP: true}
	cfg.L1D = LevelConfig{SizeKB: 2, Ways: 2, HitLatency: 2, NLP: true}
	cfg.L2 = LevelConfig{SizeKB: 16, Ways: 8, HitLatency: 12, NLP: true}
	cfg.L3 = LevelConfig{SizeKB: 32, Ways: 8, HitLatency: 32, NLP: true}
	h := NewHierarchy(cfg)
	driveRandom(t, h, 80_000, 13)
	checkInvariants(t, h)
}

func TestPriorityBitsOnlyOnInstructionLines(t *testing.T) {
	h := NewHierarchy(DefaultConfig(core.MustParsePolicy("P(8):S&E")))
	driveRandom(t, h, 60_000, 21)
	for i := 0; i < h.L2.sets*h.L2.ways; i++ {
		if l := h.L2.line(i/h.L2.ways, i%h.L2.ways); l.Valid && l.Priority && !l.Instr {
			t.Fatalf("data line %d carries a P bit", i)
		}
	}
}

func TestResetPrioritiesClearsHierarchy(t *testing.T) {
	h := NewHierarchy(DefaultConfig(core.MustParsePolicy("P(8):S&E")))
	driveRandom(t, h, 40_000, 33)
	h.ResetPriorities()
	for _, c := range []*Cache{h.L1I, h.L2} {
		for i := 0; i < c.sets*c.ways; i++ {
			if l := c.line(i/c.ways, i%c.ways); l.Valid && l.Priority {
				t.Fatalf("%s line %d still high-priority after reset", c.Name(), i)
			}
		}
	}
	census := h.L2.PriorityCensus()
	for n, sets := range census {
		if n > 0 && sets != 0 {
			t.Fatalf("census shows %d sets with %d protected lines after reset", sets, n)
		}
	}
}

func TestHierarchyDeterministicUnderSameSeed(t *testing.T) {
	run := func() (uint64, uint64) {
		h := NewHierarchy(DefaultConfig(core.MustParsePolicy("P(8):S&E&R(1/32)")))
		driveRandom(t, h, 30_000, 5)
		return h.L2.InstrStats.Misses, h.MemReads
	}
	m1, r1 := run()
	m2, r2 := run()
	if m1 != m2 || r1 != r2 {
		t.Errorf("nondeterministic hierarchy: (%d,%d) vs (%d,%d)", m1, r1, m2, r2)
	}
}
