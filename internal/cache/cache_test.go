package cache

import (
	"testing"
	"testing/quick"

	"emissary/internal/core"
	"emissary/internal/policy"
)

func newTestCache(sets, ways int) *Cache {
	pol := policy.NewRecency("LRU", policy.NewTrueLRU(sets, ways))
	return NewCache("test", sets, ways, pol)
}

func TestCacheHitMissCounting(t *testing.T) {
	c := newTestCache(4, 2)
	if c.Access(0x100, true) {
		t.Fatal("cold access hit")
	}
	c.Fill(0x100, FillSpec{Instr: true})
	if !c.Access(0x100, true) {
		t.Fatal("access after fill missed")
	}
	if c.InstrStats.Misses != 1 || c.InstrStats.Hits != 1 {
		t.Errorf("instr stats = %+v", c.InstrStats)
	}
	if c.DataStats.Accesses() != 0 {
		t.Errorf("data stats moved: %+v", c.DataStats)
	}
}

func TestCacheSetConflictEviction(t *testing.T) {
	c := newTestCache(4, 2)
	// Three lines mapping to set 1.
	a, b, d := uint64(1), uint64(5), uint64(9)
	c.Fill(a, FillSpec{})
	c.Fill(b, FillSpec{})
	ev := c.Fill(d, FillSpec{})
	if !ev.Victim {
		t.Fatal("no victim on full set")
	}
	if ev.LineAddr != a {
		t.Errorf("victim = %#x, want %#x (LRU)", ev.LineAddr, a)
	}
	if c.Contains(a) {
		t.Error("evicted line still present")
	}
	if !c.Contains(b) || !c.Contains(d) {
		t.Error("resident lines missing")
	}
}

func TestCacheFillIdempotentRefreshes(t *testing.T) {
	c := newTestCache(4, 2)
	c.Fill(0x40, FillSpec{})
	ev := c.Fill(0x40, FillSpec{Dirty: true, Priority: true})
	if ev.Victim {
		t.Error("refill of present line evicted something")
	}
	l, ok := c.Probe(0x40)
	if !ok || !l.Dirty || !l.Priority {
		t.Errorf("refill did not merge metadata: %+v", l)
	}
}

func TestCacheWritebackCounting(t *testing.T) {
	c := newTestCache(1, 1)
	c.Fill(0, FillSpec{Dirty: true})
	c.Fill(1, FillSpec{})
	if c.Writebacks != 1 {
		t.Errorf("Writebacks = %d, want 1", c.Writebacks)
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := newTestCache(4, 2)
	c.Fill(0x7, FillSpec{Instr: true, Priority: true})
	l, ok := c.Invalidate(0x7)
	if !ok || !l.Priority || !l.Instr {
		t.Errorf("Invalidate returned %+v, %v", l, ok)
	}
	if c.Contains(0x7) {
		t.Error("line present after invalidate")
	}
	if _, ok := c.Invalidate(0x7); ok {
		t.Error("double invalidate succeeded")
	}
}

func TestCacheRaisePriority(t *testing.T) {
	c := newTestCache(4, 2)
	c.Fill(0x3, FillSpec{Instr: true})
	c.RaisePriority(0x3)
	if l, _ := c.Probe(0x3); !l.Priority {
		t.Error("RaisePriority did not set P")
	}
	// Raising priority on an absent line is a no-op.
	c.RaisePriority(0x999)
}

func TestCacheResetPriorities(t *testing.T) {
	c := newTestCache(4, 2)
	c.Fill(0x1, FillSpec{Instr: true, Priority: true})
	c.Fill(0x2, FillSpec{Instr: true, Priority: true})
	c.ResetPriorities()
	for _, a := range []uint64{1, 2} {
		if l, _ := c.Probe(a); l.Priority {
			t.Errorf("line %#x still high-priority after reset", a)
		}
	}
}

func TestCachePriorityCensus(t *testing.T) {
	c := newTestCache(2, 4)
	// Set 0: two high-priority lines; set 1: none.
	c.Fill(0, FillSpec{Priority: true})
	c.Fill(2, FillSpec{Priority: true})
	c.Fill(4, FillSpec{})
	c.Fill(1, FillSpec{})
	census := c.PriorityCensus()
	if census[0] != 1 || census[2] != 1 {
		t.Errorf("census = %v, want one set with 0 and one with 2", census)
	}
}

func TestCacheValidLines(t *testing.T) {
	c := newTestCache(4, 2)
	c.Fill(0, FillSpec{Instr: true})
	c.Fill(1, FillSpec{})
	c.Fill(2, FillSpec{Instr: true})
	i, d := c.ValidLines()
	if i != 2 || d != 1 {
		t.Errorf("ValidLines = %d,%d want 2,1", i, d)
	}
}

func TestCacheGeometryPanics(t *testing.T) {
	for _, bad := range []struct{ sets, ways int }{{0, 2}, {3, 2}, {4, 0}, {4, 33}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCache(%d,%d) did not panic", bad.sets, bad.ways)
				}
			}()
			NewCache("bad", bad.sets, bad.ways, policy.NewRecency("LRU", policy.NewTrueLRU(1, 1)))
		}()
	}
}

func TestCachePropertyNoDuplicateTags(t *testing.T) {
	if err := quick.Check(func(addrs []uint16) bool {
		c := newTestCache(8, 4)
		for _, a := range addrs {
			c.Fill(uint64(a), FillSpec{})
		}
		// No line address may appear twice.
		seen := map[uint64]bool{}
		for s := 0; s < c.Sets(); s++ {
			for w := 0; w < c.Ways(); w++ {
				l := c.line(s, w)
				if !l.Valid {
					continue
				}
				addr := c.lineAddr(s, l.Tag)
				if seen[addr] {
					return false
				}
				seen[addr] = true
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestCachePropertyFillThenContains(t *testing.T) {
	if err := quick.Check(func(a uint32) bool {
		c := newTestCache(16, 2)
		c.Fill(uint64(a), FillSpec{})
		return c.Contains(uint64(a))
	}, nil); err != nil {
		t.Error(err)
	}
}

func defaultHierarchy(l2 string) *Hierarchy {
	cfg := DefaultConfig(core.MustParsePolicy(l2))
	return NewHierarchy(cfg)
}

func TestHierarchyColdFetchFromMemory(t *testing.T) {
	h := defaultHierarchy("TPLRU")
	res := h.ProbeFetch(0x1000)
	if res.Source != SrcMem || !res.NeedFill {
		t.Fatalf("cold fetch: %+v", res)
	}
	if res.Latency != h.Config().MemLatency {
		t.Errorf("latency = %d, want %d", res.Latency, h.Config().MemLatency)
	}
	h.CompleteFetch(0x1000, res.Source, false)
	if !h.L1I.Contains(0x1000) || !h.L2.Contains(0x1000) {
		t.Error("line not installed in L1I+L2")
	}
	if h.L3.Contains(0x1000) {
		t.Error("exclusive L3 holds a line resident in L2")
	}
	// Second access hits L1I.
	res = h.ProbeFetch(0x1000)
	if res.Source != SrcL1 || res.NeedFill {
		t.Errorf("warm fetch: %+v", res)
	}
}

func TestHierarchyL2HitPath(t *testing.T) {
	h := defaultHierarchy("TPLRU")
	r := h.ProbeFetch(0x2000)
	h.CompleteFetch(0x2000, r.Source, false)
	// Evict from L1I by filling conflicting lines (L1I: 64 sets, 8 ways).
	for i := 1; i <= 8; i++ {
		addr := 0x2000 + uint64(i*64)
		rr := h.ProbeFetch(addr)
		h.CompleteFetch(addr, rr.Source, false)
	}
	if h.L1I.Contains(0x2000) {
		t.Fatal("line still in L1I; conflict fills insufficient")
	}
	res := h.ProbeFetch(0x2000)
	if res.Source != SrcL2 {
		t.Fatalf("expected L2 hit, got %v", res.Source)
	}
	if res.Latency != h.Config().L2.HitLatency {
		t.Errorf("latency = %d", res.Latency)
	}
}

func TestHierarchyPriorityFlowL1IEvictionToL2(t *testing.T) {
	h := defaultHierarchy("P(8):S")
	r := h.ProbeFetch(0x3000)
	h.CompleteFetch(0x3000, r.Source, true) // starved: high priority
	if l, _ := h.L1I.Probe(0x3000); !l.Priority {
		t.Fatal("L1I line did not get P=1")
	}
	// EMISSARY defers the L2 bit until L1I eviction.
	if l, _ := h.L2.Probe(0x3000); l.Priority {
		t.Fatal("L2 line got P=1 before L1I eviction")
	}
	// Force L1I eviction via conflicting fills.
	for i := 1; i <= 8; i++ {
		addr := 0x3000 + uint64(i*64)
		rr := h.ProbeFetch(addr)
		h.CompleteFetch(addr, rr.Source, false)
	}
	if h.L1I.Contains(0x3000) {
		t.Fatal("line still in L1I")
	}
	if l, ok := h.L2.Probe(0x3000); !ok || !l.Priority {
		t.Errorf("L2 copy P bit after L1I eviction: present=%v line=%+v", ok, l)
	}
}

func TestHierarchyMInsertGetsPriorityAtFill(t *testing.T) {
	h := defaultHierarchy("M:S")
	r := h.ProbeFetch(0x4000)
	h.CompleteFetch(0x4000, r.Source, true)
	if l, ok := h.L2.Probe(0x4000); !ok || !l.Priority {
		t.Errorf("M-treatment L2 fill priority: %+v %v", l, ok)
	}
}

func TestHierarchyInheritedPriorityOnRefetch(t *testing.T) {
	h := defaultHierarchy("P(8):S")
	r := h.ProbeFetch(0x5000)
	h.CompleteFetch(0x5000, r.Source, true)
	// Evict from L1I so the P bit lands in L2.
	for i := 1; i <= 8; i++ {
		addr := 0x5000 + uint64(i*64)
		rr := h.ProbeFetch(addr)
		h.CompleteFetch(addr, rr.Source, false)
	}
	// Refetch: L2 hit; the L1I copy must inherit P=1 even though this
	// miss did not starve.
	res := h.ProbeFetch(0x5000)
	if res.Source != SrcL2 {
		t.Fatalf("source = %v, want L2", res.Source)
	}
	h.CompleteFetch(0x5000, res.Source, false)
	if l, _ := h.L1I.Probe(0x5000); !l.Priority {
		t.Error("refetched L1I copy did not inherit P=1")
	}
}

func TestHierarchyExclusiveL3VictimFlow(t *testing.T) {
	cfg := DefaultConfig(core.MustParsePolicy("TPLRU"))
	cfg.L1I.NLP = false
	cfg.L1D.NLP = false
	cfg.L2.NLP = false
	cfg.L3.NLP = false
	h := NewHierarchy(cfg)
	// Fill 17 lines into one L2 set (1024 sets): line addresses k*1024.
	var first uint64 = 0
	for i := 0; i <= 16; i++ {
		addr := uint64(i) * 1024
		r := h.ProbeFetch(addr)
		h.CompleteFetch(addr, r.Source, false)
	}
	if h.L2.Contains(first) {
		t.Fatal("LRU line survived 16 conflicting fills")
	}
	if !h.L3.Contains(first) {
		t.Fatal("L2 victim not installed in exclusive L3")
	}
	// Refetching moves it back L3 -> L2 with SFL set.
	res := h.ProbeFetch(first)
	if res.Source != SrcL3 {
		t.Fatalf("source = %v, want L3", res.Source)
	}
	h.CompleteFetch(first, res.Source, false)
	if h.L3.Contains(first) {
		t.Error("line still in L3 after exclusive move to L2")
	}
	if l, ok := h.L2.Probe(first); !ok || !l.SFL {
		t.Errorf("L2 copy SFL: %+v %v", l, ok)
	}
}

func TestHierarchyInclusionBackInvalidation(t *testing.T) {
	cfg := DefaultConfig(core.MustParsePolicy("TPLRU"))
	cfg.L1I.NLP = false
	cfg.L2.NLP = false
	cfg.L3.NLP = false
	h := NewHierarchy(cfg)
	// Land a line in L1I+L2, then evict it from L2 with conflicting
	// fills; inclusion must remove the L1I copy.
	r := h.ProbeFetch(0)
	h.CompleteFetch(0, r.Source, false)
	for i := 1; i <= 16; i++ {
		addr := uint64(i) * 1024
		rr := h.ProbeFetch(addr)
		h.CompleteFetch(addr, rr.Source, false)
	}
	if h.L2.Contains(0) {
		t.Fatal("line survived in L2")
	}
	if h.L1I.Contains(0) {
		t.Error("inclusion violated: L1I holds a line L2 evicted")
	}
}

func TestHierarchyDataPath(t *testing.T) {
	h := defaultHierarchy("TPLRU")
	lat := h.AccessData(0x9000, false)
	if lat != h.Config().MemLatency {
		t.Errorf("cold load latency = %d", lat)
	}
	if !h.L1D.Contains(0x9000) || !h.L2.Contains(0x9000) {
		t.Error("data line not installed")
	}
	lat = h.AccessData(0x9000, true)
	if lat != h.Config().L1D.HitLatency {
		t.Errorf("warm store latency = %d", lat)
	}
	if l, _ := h.L1D.Probe(0x9000); !l.Dirty {
		t.Error("store did not dirty the line")
	}
}

func TestHierarchyIdealL2IMode(t *testing.T) {
	cfg := DefaultConfig(core.MustParsePolicy("TPLRU"))
	cfg.IdealL2I = true
	cfg.L2.NLP = false
	cfg.L1I.NLP = false
	cfg.L3.NLP = false
	h := NewHierarchy(cfg)
	// Compulsory miss: full memory latency.
	r := h.ProbeFetch(0)
	if r.Latency != cfg.MemLatency {
		t.Errorf("compulsory miss latency = %d, want %d", r.Latency, cfg.MemLatency)
	}
	h.CompleteFetch(0, r.Source, false)
	// Evict from L2 (and so L1I) with 16 conflicting fills.
	for i := 1; i <= 16; i++ {
		addr := uint64(i) * 1024
		rr := h.ProbeFetch(addr)
		h.CompleteFetch(addr, rr.Source, false)
	}
	if h.L2.Contains(0) {
		t.Fatal("line survived in L2")
	}
	res := h.ProbeFetch(0)
	if res.Source == SrcL1 || res.Source == SrcL2 {
		t.Fatalf("expected L2 miss, got %v", res.Source)
	}
	if res.Latency != cfg.L2.HitLatency {
		t.Errorf("ideal capacity-miss latency = %d, want %d", res.Latency, cfg.L2.HitLatency)
	}
}

func TestHierarchyNLPInstrPrefetch(t *testing.T) {
	h := defaultHierarchy("TPLRU")
	r := h.ProbeFetch(0x100)
	h.CompleteFetch(0x100, r.Source, false)
	// The L1I NLP should have pulled the next line.
	if !h.L1I.Contains(0x101) {
		t.Error("L1I NLP did not prefetch next line")
	}
	if h.L1I.PrefetchFills == 0 {
		t.Error("prefetch fills not counted")
	}
}

func TestHierarchyCompulsoryCounting(t *testing.T) {
	h := defaultHierarchy("TPLRU")
	r := h.ProbeFetch(0x100)
	h.CompleteFetch(0x100, r.Source, false)
	if h.CompulsoryL2IMisses != 1 {
		t.Errorf("CompulsoryL2IMisses = %d, want 1", h.CompulsoryL2IMisses)
	}
}

func TestHierarchySFLPromotion(t *testing.T) {
	cfg := DefaultConfig(core.MustParsePolicy("TPLRU"))
	cfg.L1I.NLP = false
	cfg.L1D.NLP = false
	cfg.L2.NLP = false
	cfg.L3.NLP = false
	h := NewHierarchy(cfg)
	// Build an SFL line: memory fill, evict to L3, refetch (SFL=1),
	// then evict again; the L3 re-insertion should be promoted.
	seqFill := func(addr uint64) {
		r := h.ProbeFetch(addr)
		h.CompleteFetch(addr, r.Source, false)
	}
	seqFill(0)
	for i := 1; i <= 16; i++ {
		seqFill(uint64(i) * 1024)
	}
	seqFill(0) // back from L3, SFL=1 in L2
	if l, _ := h.L2.Probe(0); !l.SFL {
		t.Fatal("refetched line lacks SFL")
	}
	for i := 17; i <= 33; i++ {
		seqFill(uint64(i) * 1024)
	}
	if h.L2.Contains(0) {
		t.Fatal("line still in L2")
	}
	if !h.L3.Contains(0) {
		t.Error("SFL victim not in L3")
	}
}

func TestLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 64: 6, 1024: 10}
	for n, want := range cases {
		if got := log2(n); got != want {
			t.Errorf("log2(%d) = %d, want %d", n, got, want)
		}
	}
}
