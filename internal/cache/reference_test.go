package cache_test

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"emissary/internal/cache"
	"emissary/internal/core"
	"emissary/internal/policy"
	"emissary/internal/rng"
	"emissary/internal/stats"
)

// counters is every statistic a Cache keeps.
type counters struct {
	Instr, Data   stats.CacheCounters
	PrefetchFills uint64
	BackInvals    uint64
	Writebacks    uint64
	Promotions    uint64
	HighEvictions uint64
	HighBackInval uint64
}

func countersOf(c *cache.Cache) counters {
	return counters{
		Instr:         c.InstrStats,
		Data:          c.DataStats,
		PrefetchFills: c.PrefetchFills,
		BackInvals:    c.BackInvals,
		Writebacks:    c.Writebacks,
		Promotions:    c.Promotions,
		HighEvictions: c.HighEvictions,
		HighBackInval: c.HighBackInval,
	}
}

// refCache is the array-of-structs cache the dense tag array replaced:
// one cache.Line per way, a linear scan of the set's lines per lookup,
// and a SetView rebuilt from the lines with policy.ViewOf for every
// policy callback. It shares no state or code with Cache, and is the
// model TestCacheMatchesReference checks Cache against.
type refCache struct {
	sets, ways int
	setShift   uint
	lines      []cache.Line
	scratch    []policy.LineView
	pol        policy.Policy
	stats      counters
}

func newRefCache(sets, ways int, pol policy.Policy) *refCache {
	return &refCache{
		sets:     sets,
		ways:     ways,
		setShift: uint(bits.TrailingZeros(uint(sets))),
		lines:    make([]cache.Line, sets*ways),
		scratch:  make([]policy.LineView, ways),
		pol:      pol,
	}
}

func (r *refCache) set(a uint64) int { return int(a & uint64(r.sets-1)) }

// find scans a's set for a valid line with a's tag.
func (r *refCache) find(a uint64) (s, w int) {
	s = r.set(a)
	for w := 0; w < r.ways; w++ {
		if l := r.lines[s*r.ways+w]; l.Valid && l.Tag == a>>r.setShift {
			return s, w
		}
	}
	return s, -1
}

// view derives set s's SetView from its lines.
func (r *refCache) view(s int) policy.SetView {
	for w := range r.scratch {
		l := r.lines[s*r.ways+w]
		r.scratch[w] = policy.LineView{Valid: l.Valid, Priority: l.Priority, Instr: l.Instr}
	}
	return policy.ViewOf(r.scratch)
}

func (r *refCache) Access(a uint64, instr bool) bool {
	cs := &r.stats.Data
	if instr {
		cs = &r.stats.Instr
	}
	s, w := r.find(a)
	if w < 0 {
		cs.Misses++
		return false
	}
	cs.Hits++
	r.pol.OnHit(s, w, r.view(s))
	return true
}

func (r *refCache) Touch(a uint64) {
	if s, w := r.find(a); w >= 0 {
		r.pol.OnHit(s, w, r.view(s))
	}
}

func (r *refCache) PromoteMRU(a uint64) { r.Touch(a) }

func (r *refCache) MarkDirty(a uint64) {
	if s, w := r.find(a); w >= 0 {
		r.lines[s*r.ways+w].Dirty = true
	}
}

func (r *refCache) Probe(a uint64) (cache.Line, bool) {
	if s, w := r.find(a); w >= 0 {
		return r.lines[s*r.ways+w], true
	}
	return cache.Line{}, false
}

func (r *refCache) Fill(a uint64, spec cache.FillSpec) cache.Eviction {
	if spec.Prefetch {
		r.stats.PrefetchFills++
	}
	s := r.set(a)
	set := r.lines[s*r.ways : (s+1)*r.ways]
	spare := -1
	for w := range set {
		if !set[w].Valid {
			if spare < 0 {
				spare = w
			}
			continue
		}
		if set[w].Tag == a>>r.setShift {
			set[w].Dirty = set[w].Dirty || spec.Dirty
			set[w].Priority = set[w].Priority || spec.Priority
			return cache.Eviction{}
		}
	}
	var ev cache.Eviction
	way := spare
	if way < 0 {
		way = r.pol.Victim(s, r.view(s), policy.LineView{Valid: true, Priority: spec.Priority, Instr: spec.Instr})
		old := set[way]
		ev = cache.Eviction{Victim: true, LineAddr: old.Tag<<r.setShift | uint64(s), Line: old}
		if old.Dirty {
			r.stats.Writebacks++
		}
		if old.Priority {
			r.stats.HighEvictions++
		}
		r.pol.OnInvalidate(s, way)
	}
	set[way] = cache.Line{Tag: a >> r.setShift, Valid: true, Dirty: spec.Dirty, Instr: spec.Instr, Priority: spec.Priority, SFL: spec.SFL}
	r.pol.OnFill(s, way, r.view(s))
	return ev
}

func (r *refCache) Invalidate(a uint64) (cache.Line, bool) {
	s, w := r.find(a)
	if w < 0 {
		return cache.Line{}, false
	}
	l := r.lines[s*r.ways+w]
	if l.Priority {
		r.stats.HighBackInval++
	}
	r.lines[s*r.ways+w] = cache.Line{}
	r.pol.OnInvalidate(s, w)
	r.stats.BackInvals++
	return l, true
}

func (r *refCache) RaisePriority(a uint64) {
	s, w := r.find(a)
	if w < 0 || r.lines[s*r.ways+w].Priority {
		return
	}
	r.lines[s*r.ways+w].Priority = true
	r.stats.Promotions++
	r.pol.OnPriorityUpdate(s, w, r.view(s))
}

func (r *refCache) ResetPriorities() {
	for i := range r.lines {
		r.lines[i].Priority = false
	}
}

func (r *refCache) census() []int {
	census := make([]int, r.ways+1)
	for s := 0; s < r.sets; s++ {
		n := 0
		for _, l := range r.lines[s*r.ways : (s+1)*r.ways] {
			if l.Valid && l.Priority {
				n++
			}
		}
		census[n]++
	}
	return census
}

func (r *refCache) validLines() (instr, data int) {
	for _, l := range r.lines {
		switch {
		case l.Valid && l.Instr:
			instr++
		case l.Valid:
			data++
		}
	}
	return
}

// TestCacheMatchesReference drives one fixed-seed stream of every
// Cache operation through Cache and through refCache, each with its
// own instance of the same policy, for the ten benchmark policies at
// the paper's L2 geometry and at a small one where sets fill and
// evict constantly. After every operation it compares the return
// values (hit, Eviction including its Line, Probe's Line) and every
// counter; at the end, the priority census and the valid-line counts.
func TestCacheMatchesReference(t *testing.T) {
	for _, g := range []struct{ sets, ways, ops int }{{1024, 16, 200_000}, {8, 4, 20_000}} {
		for _, pol := range benchPolicies {
			t.Run(fmt.Sprintf("%dx%d/%s", g.sets, g.ways, pol), func(t *testing.T) {
				spec, err := core.ParsePolicy(pol)
				if err != nil {
					t.Fatal(err)
				}
				c := cache.NewCache("dense", g.sets, g.ways, spec.Build(g.sets, g.ways, 1))
				ref := newRefCache(g.sets, g.ways, spec.Build(g.sets, g.ways, 1))
				r := rng.NewXoshiro256(0x5eed)
				span := uint64(g.sets * g.ways * 4)
				for i := 0; i < g.ops; i++ {
					a := r.Uint64() % span
					var op string
					switch k := r.Intn(1000); {
					case k < 300:
						op = "Access"
						instr := r.Bool(0.5)
						if got, want := c.Access(a, instr), ref.Access(a, instr); got != want {
							t.Fatalf("op %d: Access(%#x) = %v, reference %v", i, a, got, want)
						}
					case k < 600:
						op = "Fill"
						spec := cache.FillSpec{
							Instr:    r.Bool(0.5),
							Priority: r.Bool(0.125),
							SFL:      r.Bool(0.25),
							Dirty:    r.Bool(0.25),
							Prefetch: r.Bool(0.25),
						}
						if got, want := c.Fill(a, spec), ref.Fill(a, spec); got != want {
							t.Fatalf("op %d: Fill(%#x, %+v) = %+v, reference %+v", i, a, spec, got, want)
						}
					case k < 650:
						op = "Touch"
						c.Touch(a)
						ref.Touch(a)
					case k < 700:
						op = "MarkDirty"
						c.MarkDirty(a)
						ref.MarkDirty(a)
					case k < 780:
						op = "Invalidate"
						gl, gok := c.Invalidate(a)
						wl, wok := ref.Invalidate(a)
						if gl != wl || gok != wok {
							t.Fatalf("op %d: Invalidate(%#x) = %+v %v, reference %+v %v", i, a, gl, gok, wl, wok)
						}
					case k < 860:
						op = "RaisePriority"
						c.RaisePriority(a)
						ref.RaisePriority(a)
					case k < 910:
						op = "PromoteMRU"
						c.PromoteMRU(a)
						ref.PromoteMRU(a)
					case k < 999:
						op = "Probe"
						gl, gok := c.Probe(a)
						wl, wok := ref.Probe(a)
						if gl != wl || gok != wok {
							t.Fatalf("op %d: Probe(%#x) = %+v %v, reference %+v %v", i, a, gl, gok, wl, wok)
						}
					default:
						op = "ResetPriorities"
						c.ResetPriorities()
						ref.ResetPriorities()
					}
					if got := countersOf(c); got != ref.stats {
						t.Fatalf("op %d (%s %#x): counters %+v, reference %+v", i, op, a, got, ref.stats)
					}
				}
				census := c.FillPriorityCensus(make([]int, g.ways+1))
				if want := ref.census(); !slices.Equal(census, want) {
					t.Errorf("priority census %v, reference %v", census, want)
				}
				gi, gd := c.ValidLines()
				if wi, wd := ref.validLines(); gi != wi || gd != wd {
					t.Errorf("ValidLines = %d, %d; reference %d, %d", gi, gd, wi, wd)
				}
				if gi+gd == 0 || census[0] == g.sets {
					t.Errorf("stream left %d lines and %d sets without a P bit: too weak to compare", gi+gd, census[0])
				}
			})
		}
	}
}
