// Package cache implements the simulated memory hierarchy: generic
// set-associative caches with pluggable replacement policies, and the
// four-level hierarchy of the paper's Alderlake-like machine model
// (Table 4): private L1I and L1D, a unified inclusive L2 running the
// policy under study, an exclusive victim L3 with DRRIP and SFL-bit
// MRU re-insertion, next-line prefetchers, and a fixed-latency DRAM.
package cache

import (
	"math/bits"

	"emissary/internal/policy"
	"emissary/internal/stats"
)

// Line is one cache line's state, as Probe, Invalidate and Eviction
// report it. The cache itself stores lines as a tag array plus per-set
// masks (see Cache).
type Line struct {
	Tag      uint64
	Valid    bool
	Dirty    bool
	Instr    bool // line was filled by an instruction fetch
	Priority bool // EMISSARY P bit
	SFL      bool // served-from-last-level (L2 only): filled from L3
}

// setState is one set's line state apart from its tags: bit w of each
// mask describes way w. high, instr, dirty and sfl are subsets of
// valid; an invalid way has no bit set in any of them.
type setState struct {
	valid uint32
	high  uint32 // EMISSARY P bit
	instr uint32
	dirty uint32
	sfl   uint32
}

// drop clears every bit of the ways in bit.
func (st *setState) drop(bit uint32) {
	st.valid &^= bit
	st.high &^= bit
	st.instr &^= bit
	st.dirty &^= bit
	st.sfl &^= bit
}

// with returns mask with bit set when on and cleared otherwise.
func with(mask, bit uint32, on bool) uint32 {
	if on {
		return mask | bit
	}
	return mask &^ bit
}

// Cache is a set-associative cache. Addresses given to the cache are
// line addresses (byte address >> lineShift); the cache derives the
// set index and tag itself.
//
// Storage is a dense tag array plus one setState of masks per set.
// The masks are the line state itself, so the policy's SetView is a
// copy of three of them and is never re-derived. A lookup compares
// tags only and checks the valid bit on a match; a fill takes its free
// way from the valid mask. Every operation scans at most one set once,
// and the per-access loop is allocation free (see DESIGN.md §9,
// "Hot-path invariants").
type Cache struct {
	name string
	sets int
	ways int

	// Precomputed geometry: the set index is lineAddr&setMask and the
	// tag is lineAddr>>setShift. Computing log2(sets) lazily on every
	// access used to dominate the lookup cost.
	setShift uint
	setMask  uint64

	// tags[s*ways+w] is the tag of way w of set s; it means nothing
	// unless the way's valid bit is set.
	tags  []uint64
	state []setState
	pol   policy.Policy

	// Demand statistics split by request class.
	InstrStats stats.CacheCounters
	DataStats  stats.CacheCounters
	// Prefetch fills and inclusion-forced invalidations.
	PrefetchFills uint64
	BackInvals    uint64
	Writebacks    uint64
	// Priority-bit lifecycle statistics.
	Promotions    uint64 // RaisePriority calls that set a new P bit
	HighEvictions uint64 // victims that carried P=1
	HighBackInval uint64 // P=1 lines removed by Invalidate
}

// NewCache builds a cache with the given geometry and policy. Sets
// must be a power of two: the set index masks with sets-1, so any
// other geometry would silently alias distinct sets onto the same
// index and corrupt every downstream statistic. Way counts are bounded by the
// 32-bit occupancy masks (matching policy.checkGeometry).
func NewCache(name string, sets, ways int, pol policy.Policy) *Cache {
	if sets <= 0 || sets&(sets-1) != 0 {
		violated("%s: sets must be a power of two, got %d", name, sets)
	}
	if ways <= 0 || ways > 32 {
		violated("%s: bad way count %d", name, ways)
	}
	return &Cache{
		name:     name,
		sets:     sets,
		ways:     ways,
		setShift: uint(log2(sets)),
		setMask:  uint64(sets - 1),
		tags:     make([]uint64, sets*ways),
		state:    make([]setState, sets),
		pol:      pol,
	}
}

// Reset returns the cache to its post-construction state — every line
// invalid, every statistic zero — and swaps in the (already reset)
// replacement policy for the next run. Geometry is untouched: callers
// guarantee the new run uses the same sets/ways (Hierarchy.Reset
// checks and falls back to fresh construction otherwise). It
// allocates nothing, which is what makes warm-pool reuse a pure win
// over reconstruction.
//
//vet:hot
func (c *Cache) Reset(pol policy.Policy) {
	clear(c.tags)
	clear(c.state)
	c.pol = pol
	c.InstrStats = stats.CacheCounters{}
	c.DataStats = stats.CacheCounters{}
	c.PrefetchFills = 0
	c.BackInvals = 0
	c.Writebacks = 0
	c.Promotions = 0
	c.HighEvictions = 0
	c.HighBackInval = 0
}

// Name returns the cache's name.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Policy returns the replacement policy.
func (c *Cache) Policy() policy.Policy { return c.pol }

func log2(n int) int {
	k := 0
	for 1<<uint(k) < n {
		k++
	}
	return k
}

// locate derives the set geometry once and scans the set's tags once,
// returning the set index and the valid way holding lineAddr (-1 on
// miss). Every lookup entry point funnels through here so no
// operation derives the set or tag twice, and none scans a set more
// than once.
//
//vet:hot
func (c *Cache) locate(lineAddr uint64) (s, way int) {
	s = int(lineAddr & c.setMask)
	t := lineAddr >> c.setShift
	valid := c.state[s].valid
	base := s * c.ways
	for w, tag := range c.tags[base : base+c.ways] {
		if tag == t && valid&(1<<uint(w)) != 0 {
			return s, w
		}
	}
	return s, -1
}

// line returns way w of set s; an invalid way reads as the zero Line.
func (c *Cache) line(s, w int) Line {
	st := &c.state[s]
	bit := uint32(1) << uint(w)
	if st.valid&bit == 0 {
		return Line{}
	}
	return Line{
		Tag:      c.tags[s*c.ways+w],
		Valid:    true,
		Dirty:    st.dirty&bit != 0,
		Instr:    st.instr&bit != 0,
		Priority: st.high&bit != 0,
		SFL:      st.sfl&bit != 0,
	}
}

// view is the policy's view of set s: a copy of three of its masks.
func (c *Cache) view(s int) policy.SetView {
	st := &c.state[s]
	return policy.SetView{Valid: st.valid, High: st.high, Instr: st.instr}
}

// Contains reports presence without side effects.
func (c *Cache) Contains(lineAddr uint64) bool {
	_, w := c.locate(lineAddr)
	return w >= 0
}

// Probe reports presence and the line state without side effects.
func (c *Cache) Probe(lineAddr uint64) (Line, bool) {
	if s, w := c.locate(lineAddr); w >= 0 {
		return c.line(s, w), true
	}
	return Line{}, false
}

// Access performs a demand access: on hit it updates recency and
// statistics and returns true; on miss it only counts the miss.
// Callers fill the line separately (possibly later) via Fill.
//
//vet:hot
func (c *Cache) Access(lineAddr uint64, instr bool) bool {
	return c.access(lineAddr, instr, false)
}

// access is Access that also marks a hit line dirty when store is
// set, so a store hit needs one lookup. Policies never see the dirty
// bit, so OnHit is called exactly as for a load.
//
//vet:hot
func (c *Cache) access(lineAddr uint64, instr, store bool) bool {
	s, w := c.locate(lineAddr)
	counters := &c.DataStats
	if instr {
		counters = &c.InstrStats
	}
	if w < 0 {
		counters.Misses++
		return false
	}
	counters.Hits++
	if store {
		c.state[s].dirty |= 1 << uint(w)
	}
	c.pol.OnHit(s, w, c.view(s))
	return true
}

// Touch updates recency on a line known to be present, without
// counting statistics (used when a store hits a line a load already
// touched this cycle, and similar bookkeeping).
func (c *Cache) Touch(lineAddr uint64) {
	if s, w := c.locate(lineAddr); w >= 0 {
		c.pol.OnHit(s, w, c.view(s))
	}
}

// MarkDirty sets the dirty bit on a present line.
func (c *Cache) MarkDirty(lineAddr uint64) {
	if s, w := c.locate(lineAddr); w >= 0 {
		c.state[s].dirty |= 1 << uint(w)
	}
}

// FillSpec describes the line being installed by Fill.
type FillSpec struct {
	Instr    bool
	Priority bool // selection outcome (M-treatment) or inherited P bit
	SFL      bool
	Dirty    bool
	Prefetch bool // fill initiated by a prefetcher (statistics only)
}

// Eviction describes a line displaced by Fill, when Victim is true.
type Eviction struct {
	Victim   bool
	LineAddr uint64
	Line     Line
}

// Fill installs lineAddr, evicting a victim if the set is full.
// If the line is already present, its metadata is refreshed instead
// (a fill racing a fill; the priority bit is only ever raised).
//
//vet:hot
func (c *Cache) Fill(lineAddr uint64, spec FillSpec) Eviction {
	ev, _ := c.fill(lineAddr, spec)
	return ev
}

// fill is Fill that also returns the way now holding lineAddr.
//
//vet:hot
func (c *Cache) fill(lineAddr uint64, spec FillSpec) (Eviction, int) {
	s, hit := c.locate(lineAddr)
	if hit < 0 {
		return c.install(s, lineAddr, spec)
	}
	if spec.Prefetch {
		c.PrefetchFills++
	}
	st := &c.state[s]
	bit := uint32(1) << uint(hit)
	if spec.Dirty {
		st.dirty |= bit
	}
	if spec.Priority {
		st.high |= bit
	}
	return Eviction{}, hit
}

// insert is Fill for a line the caller has just looked up and missed
// here, with nothing installed in this cache since: it skips the
// lookup, whose answer is known.
//
//vet:hot
func (c *Cache) insert(lineAddr uint64, spec FillSpec) Eviction {
	ev, _ := c.install(int(lineAddr&c.setMask), lineAddr, spec)
	return ev
}

// install places lineAddr, absent from its set s, in the set's lowest
// free way, or in the policy's victim's way when the set is full, and
// returns the eviction and the way.
//
//vet:hot
func (c *Cache) install(s int, lineAddr uint64, spec FillSpec) (Eviction, int) {
	if spec.Prefetch {
		c.PrefetchFills++
	}
	st := &c.state[s]
	// The free way is the lowest clear bit of valid; a full set has
	// none below ways.
	way := bits.TrailingZeros32(^st.valid)
	var ev Eviction
	if way >= c.ways {
		incoming := policy.LineView{Valid: true, Priority: spec.Priority, Instr: spec.Instr}
		way = c.pol.Victim(s, c.view(s), incoming)
		if way < 0 || way >= c.ways {
			violated("%s: policy %s returned bad victim %d", c.name, c.pol.Name(), way)
		}
		old := c.line(s, way)
		ev = Eviction{Victim: true, LineAddr: c.lineAddr(s, old.Tag), Line: old}
		if old.Dirty {
			c.Writebacks++
		}
		if old.Priority {
			c.HighEvictions++
		}
		c.pol.OnInvalidate(s, way)
	}

	c.tags[s*c.ways+way] = lineAddr >> c.setShift
	bit := uint32(1) << uint(way)
	st.valid |= bit
	st.high = with(st.high, bit, spec.Priority)
	st.instr = with(st.instr, bit, spec.Instr)
	st.dirty = with(st.dirty, bit, spec.Dirty)
	st.sfl = with(st.sfl, bit, spec.SFL)
	c.pol.OnFill(s, way, c.view(s))
	return ev, way
}

// lineAddr reconstructs a line address from set and tag.
func (c *Cache) lineAddr(s int, tag uint64) uint64 {
	return tag<<c.setShift | uint64(s)
}

// Invalidate removes a line (back-invalidation / exclusive-move),
// returning its state.
func (c *Cache) Invalidate(lineAddr uint64) (Line, bool) {
	s, w := c.locate(lineAddr)
	if w < 0 {
		return Line{}, false
	}
	l := c.line(s, w)
	if l.Priority {
		c.HighBackInval++
	}
	c.state[s].drop(1 << uint(w))
	c.pol.OnInvalidate(s, w)
	c.BackInvals++
	return l, true
}

// RaisePriority sets the P bit on a present line (an L1I eviction
// communicating its priority to the L2 copy). The bit is never
// lowered while the line is resident.
func (c *Cache) RaisePriority(lineAddr uint64) {
	s, w := c.locate(lineAddr)
	if w < 0 {
		return
	}
	st := &c.state[s]
	bit := uint32(1) << uint(w)
	if st.high&bit != 0 {
		return
	}
	st.high |= bit
	c.Promotions++
	c.pol.OnPriorityUpdate(s, w, c.view(s))
}

// PromoteMRU makes a present line the most recently used of its class
// (used for the SFL-bit MRU insertion into L3).
func (c *Cache) PromoteMRU(lineAddr uint64) {
	if _, w := c.locate(lineAddr); w >= 0 {
		c.promoteWay(lineAddr, w)
	}
}

// promoteWay is PromoteMRU for a line known to be at way w: the way a
// fill has just returned.
func (c *Cache) promoteWay(lineAddr uint64, w int) {
	s := int(lineAddr & c.setMask)
	c.pol.OnHit(s, w, c.view(s))
}

// ResetPriorities clears every P bit (§6's periodic reset mechanism).
func (c *Cache) ResetPriorities() {
	for s := range c.state {
		c.state[s].high = 0
	}
}

// PriorityCensus returns, for each possible count 0..ways, how many
// sets currently hold that many high-priority lines (Figure 8).
func (c *Cache) PriorityCensus() []int {
	return c.FillPriorityCensus(make([]int, c.ways+1))
}

// FillPriorityCensus is PriorityCensus into caller-owned storage: buf
// must hold at least ways+1 entries; the census is written into its
// first ways+1 slots (zeroed first) and that prefix is returned. Warm
// sweeps use it to keep the census off the per-job allocation path.
//
//vet:hot
func (c *Cache) FillPriorityCensus(buf []int) []int {
	census := buf[:c.ways+1]
	clear(census)
	for s := range c.state {
		census[bits.OnesCount32(c.state[s].high)]++
	}
	return census
}

// ValidLines counts resident lines, split by class.
func (c *Cache) ValidLines() (instr, data int) {
	for s := range c.state {
		st := &c.state[s]
		instr += bits.OnesCount32(st.instr)
		data += bits.OnesCount32(st.valid &^ st.instr)
	}
	return
}
