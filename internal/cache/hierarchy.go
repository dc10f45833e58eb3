package cache

import (
	"emissary/internal/core"
	"emissary/internal/policy"
)

// Source identifies the level that serves a request.
type Source int

// Request sources, nearest first.
const (
	SrcL1 Source = iota
	SrcL2
	SrcL3
	SrcMem
)

// String implements fmt.Stringer.
func (s Source) String() string {
	switch s {
	case SrcL1:
		return "L1"
	case SrcL2:
		return "L2"
	case SrcL3:
		return "L3"
	default:
		return "Mem"
	}
}

// LevelConfig describes one cache level.
type LevelConfig struct {
	SizeKB     int
	Ways       int
	HitLatency int
	NLP        bool // next-line prefetcher enabled
}

func (lc LevelConfig) sets(lineSize int) int {
	return lc.SizeKB * 1024 / lineSize / lc.Ways
}

// Config describes the whole hierarchy. DefaultConfig gives the
// paper's Alderlake-like machine model (Table 4).
type Config struct {
	LineSize   int
	L1I        LevelConfig
	L1D        LevelConfig
	L2         LevelConfig
	L3         LevelConfig
	MemLatency int

	// L2Policy is the replacement policy under study at the unified L2.
	L2Policy core.Spec
	// L1TrueLRU uses exact LRU instead of TPLRU in the L1s and L3
	// (the Figure 1 configuration).
	L1TrueLRU bool
	// IdealL2I serves non-compulsory L2 instruction misses at L2 hit
	// latency: the unrealizable zero-cycle-miss-penalty model of §5.6.
	IdealL2I bool
	// Seed decorrelates the stochastic policies.
	Seed uint64
}

// DefaultConfig returns the Table 4 machine model with the given L2
// policy.
func DefaultConfig(l2 core.Spec) Config {
	return Config{
		LineSize:   64,
		L1I:        LevelConfig{SizeKB: 32, Ways: 8, HitLatency: 2, NLP: true},
		L1D:        LevelConfig{SizeKB: 64, Ways: 8, HitLatency: 2, NLP: true},
		L2:         LevelConfig{SizeKB: 1024, Ways: 16, HitLatency: 12, NLP: true},
		L3:         LevelConfig{SizeKB: 2048, Ways: 16, HitLatency: 32, NLP: true},
		MemLatency: 200,
		L2Policy:   l2,
	}
}

// Hierarchy is the simulated memory system. The instruction side is
// two-phase — ProbeFetch at request issue computes the serving level
// and latency, CompleteFetch at fill time installs lines with the
// mode-selection outcome — because EMISSARY's priority bit depends on
// starvation observed while the miss is in flight. The data side is
// single-phase.
type Hierarchy struct {
	cfg Config
	// lineShift is log2(line size), precomputed once — the back-end
	// shifts every load/store address by it.
	lineShift uint

	L1I *Cache
	L1D *Cache
	L2  *Cache
	L3  *Cache

	// seenInstr records instruction lines that have been in L2 before,
	// to classify compulsory vs capacity/conflict misses (ideal mode
	// and statistics).
	seenInstr map[uint64]struct{}

	// CompulsoryL2IMisses and DemandL2IMisses partition the L2
	// instruction misses.
	CompulsoryL2IMisses uint64

	// MemReads counts requests served by DRAM.
	MemReads uint64

	// polCache retains every policy instance this hierarchy has built,
	// keyed by level, spec and geometry, so Reset can restore one via
	// ResetState instead of reallocating its state arrays. The level
	// tag keeps two levels with coincidentally identical (spec,
	// geometry) from sharing mutable policy state.
	polCache map[polKey]policy.Policy
}

// polKey identifies a cached policy instance (see Hierarchy.polCache).
type polKey struct {
	level      string
	spec       core.Spec
	sets, ways int
}

// policyFor returns a policy for the level, reusing (and resetting) a
// previously built instance when the spec and geometry match, building
// and caching a fresh one otherwise. Every policy the module builds
// implements policy.Resetter; a foreign one that doesn't is rebuilt.
func (h *Hierarchy) policyFor(level string, spec core.Spec, sets, ways int, seed uint64) policy.Policy {
	k := polKey{level: level, spec: spec, sets: sets, ways: ways}
	if p, ok := h.polCache[k]; ok {
		if r, ok := p.(policy.Resetter); ok {
			r.ResetState(seed)
			return p
		}
	}
	p := spec.Build(sets, ways, seed)
	h.polCache[k] = p
	return p
}

// l3Spec is the L3 policy spec for a config: DRRIP normally, plain
// true-LRU recency in the Figure 1 configuration.
func (cfg Config) l3Spec() core.Spec {
	if cfg.L1TrueLRU {
		return core.Spec{Treatment: core.TreatRecency, TrueLRU: true}
	}
	return core.Spec{Treatment: core.TreatDRRIP}
}

// NewHierarchy builds the hierarchy for a config.
func NewHierarchy(cfg Config) *Hierarchy {
	ls := cfg.LineSize
	h := &Hierarchy{
		cfg:       cfg,
		lineShift: uint(log2(cfg.LineSize)),
		seenInstr: make(map[uint64]struct{}),
		polCache:  make(map[polKey]policy.Policy),
	}
	baseSpec := core.Spec{Treatment: core.TreatRecency, TrueLRU: cfg.L1TrueLRU}
	h.L1I = NewCache("L1I", cfg.L1I.sets(ls), cfg.L1I.Ways, h.policyFor("L1I", baseSpec, cfg.L1I.sets(ls), cfg.L1I.Ways, cfg.Seed+1))
	h.L1D = NewCache("L1D", cfg.L1D.sets(ls), cfg.L1D.Ways, h.policyFor("L1D", baseSpec, cfg.L1D.sets(ls), cfg.L1D.Ways, cfg.Seed+2))
	h.L2 = NewCache("L2", cfg.L2.sets(ls), cfg.L2.Ways, h.policyFor("L2", cfg.L2Policy, cfg.L2.sets(ls), cfg.L2.Ways, cfg.Seed+3))
	h.L3 = NewCache("L3", cfg.L3.sets(ls), cfg.L3.Ways, h.policyFor("L3", cfg.l3Spec(), cfg.L3.sets(ls), cfg.L3.Ways, cfg.Seed+4))
	return h
}

// Reset re-targets the hierarchy at cfg for a fresh run, reusing every
// allocation: caches are zeroed in place (Cache.Reset) and policies
// are restored via the polCache/ResetState path, so a warm run is
// byte-identical to cold construction with the same config. It reports
// false — leaving the hierarchy untouched — when cfg's geometry (line
// size, per-level sets or ways) differs from the one this hierarchy
// was built with; callers then fall back to NewHierarchy. Everything
// non-geometric (seed, policies, NLP, latencies, ideal mode) may
// change freely between runs.
func (h *Hierarchy) Reset(cfg Config) bool {
	ls := cfg.LineSize
	old := h.cfg
	if ls != old.LineSize ||
		cfg.L1I.sets(ls) != old.L1I.sets(old.LineSize) || cfg.L1I.Ways != old.L1I.Ways ||
		cfg.L1D.sets(ls) != old.L1D.sets(old.LineSize) || cfg.L1D.Ways != old.L1D.Ways ||
		cfg.L2.sets(ls) != old.L2.sets(old.LineSize) || cfg.L2.Ways != old.L2.Ways ||
		cfg.L3.sets(ls) != old.L3.sets(old.LineSize) || cfg.L3.Ways != old.L3.Ways {
		return false
	}
	h.cfg = cfg
	baseSpec := core.Spec{Treatment: core.TreatRecency, TrueLRU: cfg.L1TrueLRU}
	h.L1I.Reset(h.policyFor("L1I", baseSpec, cfg.L1I.sets(ls), cfg.L1I.Ways, cfg.Seed+1))
	h.L1D.Reset(h.policyFor("L1D", baseSpec, cfg.L1D.sets(ls), cfg.L1D.Ways, cfg.Seed+2))
	h.L2.Reset(h.policyFor("L2", cfg.L2Policy, cfg.L2.sets(ls), cfg.L2.Ways, cfg.Seed+3))
	h.L3.Reset(h.policyFor("L3", cfg.l3Spec(), cfg.L3.sets(ls), cfg.L3.Ways, cfg.Seed+4))
	clear(h.seenInstr)
	h.CompulsoryL2IMisses = 0
	h.MemReads = 0
	return true
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// FetchResult describes the outcome of an instruction line request.
type FetchResult struct {
	Latency int
	Source  Source
	// NeedFill is true when the caller must invoke CompleteFetch once
	// the request's starvation outcome is known (any L1I miss).
	NeedFill bool
}

// ProbeFetch is phase one of an instruction line request: it looks up
// the hierarchy, accounts hit/miss statistics at each probed level,
// and returns the serving level and total latency. It does not install
// any line. The caller must not issue a second ProbeFetch for the
// same line while a fill is outstanding (MSHR merging is the
// front-end's job).
func (h *Hierarchy) ProbeFetch(lineAddr uint64) FetchResult {
	if h.L1I.Access(lineAddr, true) {
		return FetchResult{Latency: h.cfg.L1I.HitLatency, Source: SrcL1}
	}
	if h.L2.Access(lineAddr, true) {
		return FetchResult{Latency: h.cfg.L2.HitLatency, Source: SrcL2, NeedFill: true}
	}
	compulsory := true
	if _, ok := h.seenInstr[lineAddr]; ok {
		compulsory = false
	} else {
		h.seenInstr[lineAddr] = struct{}{}
		h.CompulsoryL2IMisses++
	}
	if h.cfg.L2.NLP {
		h.prefetchInstrL2(lineAddr + 1)
	}
	if h.L3.Access(lineAddr, true) {
		lat := h.cfg.L3.HitLatency
		if h.cfg.IdealL2I && !compulsory {
			lat = h.cfg.L2.HitLatency
		}
		return FetchResult{Latency: lat, Source: SrcL3, NeedFill: true}
	}
	h.MemReads++
	lat := h.cfg.MemLatency
	if h.cfg.IdealL2I && !compulsory {
		lat = h.cfg.L2.HitLatency
	}
	return FetchResult{Latency: lat, Source: SrcMem, NeedFill: true}
}

// CompleteFetch is phase two: it installs the line with the
// mode-selection outcome. highPriority is the evaluated selection
// equation for this miss (always false for non-bimodal L2 policies).
func (h *Hierarchy) CompleteFetch(lineAddr uint64, src Source, highPriority bool) {
	inherited := false
	spec := FillSpec{Instr: true, Priority: h.l2InsertPriority(highPriority)}
	switch src {
	case SrcL1:
		return // hits need no fill
	case SrcL2:
		if l, ok := h.L2.Probe(lineAddr); ok {
			inherited = l.Priority
		} else {
			// The line was evicted from L2 between probe and fill;
			// reinstall it so the L1I fill preserves inclusion.
			h.spillL2(h.L2.insert(lineAddr, h.reclaimL3(lineAddr, spec)))
		}
	case SrcL3:
		h.L3.Invalidate(lineAddr) // exclusive move L3 -> L2
		spec.SFL = true
		h.spillL2(h.L2.Fill(lineAddr, spec))
	case SrcMem:
		h.spillL2(h.L2.Fill(lineAddr, h.reclaimL3(lineAddr, spec)))
	}
	h.fillL1I(lineAddr, highPriority || inherited)
	if h.cfg.L1I.NLP {
		h.prefetchInstrL1I(lineAddr + 1)
	}
}

// l2InsertPriority maps the selection outcome onto the L2 insertion's
// priority metadata. The M treatment consumes it at insertion; the
// P treatment defers priority to the L1I eviction (§3: "a line's
// priority is only communicated to L2 once it is evicted from the L1I
// cache"), so EMISSARY L2 insertions start low-priority.
func (h *Hierarchy) l2InsertPriority(selected bool) bool {
	if h.cfg.L2Policy.PersistentPriority() {
		return false
	}
	return selected
}

// fillL1I installs an instruction line in L1I, carrying the evicted
// line's P bit into its L2 copy.
func (h *Hierarchy) fillL1I(lineAddr uint64, priority bool) {
	ev := h.L1I.Fill(lineAddr, FillSpec{Instr: true, Priority: priority})
	if ev.Victim && ev.Line.Priority {
		h.L2.RaisePriority(ev.LineAddr)
	}
}

// reclaimL3 is the exclusivity safety net for an instruction fill
// that was outstanding: meanwhile a racing prefetch or fill may have
// installed the line in L2 and then evicted it into L3. It removes any
// L3 copy and returns spec with that copy's dirtiness and SFL origin.
func (h *Hierarchy) reclaimL3(lineAddr uint64, spec FillSpec) FillSpec {
	if l, ok := h.L3.Invalidate(lineAddr); ok {
		spec.Dirty = spec.Dirty || l.Dirty
		spec.SFL = true
	}
	return spec
}

// spillL2 finishes a fill of the (inclusive) L2: the victim it
// displaced, if any, is back-invalidated from the L1s and moved into
// the exclusive L3. Each L2 fill has first made sure L3 holds no copy
// of the line it installs: it has just invalidated or missed the line
// there, or called reclaimL3. A fill that has just missed the line in
// L2 uses L2.insert; one that may race an earlier fill uses L2.Fill.
func (h *Hierarchy) spillL2(ev Eviction) {
	if !ev.Victim {
		return
	}
	// Inclusion: remove the victim from the private caches. A dirty
	// L1D copy folds its data into the victim on its way out.
	if l, ok := h.L1I.Invalidate(ev.LineAddr); ok && l.Priority {
		ev.Line.Priority = true
	}
	if l, ok := h.L1D.Invalidate(ev.LineAddr); ok && l.Dirty {
		ev.Line.Dirty = true
	}
	// Victim cache: every L2 eviction is installed in L3. SFL lines
	// re-enter at MRU (§5.1), promoted at the way the fill chose.
	_, way := h.L3.fill(ev.LineAddr, FillSpec{Instr: ev.Line.Instr, Dirty: ev.Line.Dirty})
	if ev.Line.SFL {
		h.L3.promoteWay(ev.LineAddr, way)
	}
}

// prefetchInstrL2 is the L2 next-line prefetcher for the instruction
// stream: it pulls the next line into L2 (from L3 or memory) without
// modeling prefetch latency.
func (h *Hierarchy) prefetchInstrL2(lineAddr uint64) {
	if !h.L2.Contains(lineAddr) {
		h.prefetchInstrL2Miss(lineAddr)
	}
}

// prefetchInstrL2Miss is prefetchInstrL2 for a line the caller has
// just missed in L2. An L3 copy moves up with its SFL origin but not
// its dirtiness; the new L2 copy is low priority.
func (h *Hierarchy) prefetchInstrL2Miss(lineAddr uint64) {
	spec := FillSpec{Instr: true, Prefetch: true}
	if _, ok := h.L3.Invalidate(lineAddr); ok {
		spec.SFL = true
	} else {
		h.MemReads++
	}
	h.spillL2(h.L2.insert(lineAddr, spec))
}

// prefetchInstrL1I pulls the next line into L1I (filling L2 on the way
// to preserve inclusion). One L2 probe answers both questions: whether
// L2 must be filled first, and which P bit the L1I copy inherits (a
// line the prefetch just brought into L2 has none).
func (h *Hierarchy) prefetchInstrL1I(lineAddr uint64) {
	if h.L1I.Contains(lineAddr) {
		return
	}
	l2, ok := h.L2.Probe(lineAddr)
	if !ok {
		h.prefetchInstrL2Miss(lineAddr)
	}
	// Filling L2 only removed lines from L1I, so lineAddr is still
	// absent there.
	ev := h.L1I.insert(lineAddr, FillSpec{Instr: true, Priority: l2.Priority, Prefetch: true})
	if ev.Victim && ev.Line.Priority {
		h.L2.RaisePriority(ev.LineAddr)
	}
}

// AccessData performs a load or store and returns its latency. A
// store dirties the L1D line inside the lookup that finds it, or
// inside the fill that installs it.
func (h *Hierarchy) AccessData(lineAddr uint64, store bool) int {
	lat := h.cfg.L1D.HitLatency
	if !h.L1D.access(lineAddr, false, store) {
		lat = h.dataMiss(lineAddr, FillSpec{Dirty: store})
	}
	// The next-line prefetcher trains on every access, which is what
	// lets it cover streaming patterns.
	if h.cfg.L1D.NLP {
		h.prefetchDataL1D(lineAddr + 1)
	}
	return lat
}

// dataMiss walks the outer levels for a data request, installing the
// line in L2 and L1D, and returns the serving latency. l1d is the L1D
// fill's spec: Dirty for a store, Prefetch for the prefetcher.
func (h *Hierarchy) dataMiss(lineAddr uint64, l1d FillSpec) int {
	spec := FillSpec{Prefetch: l1d.Prefetch}
	lat := h.cfg.MemLatency
	switch {
	case h.L2.Access(lineAddr, false):
		lat = h.cfg.L2.HitLatency
	case h.L3.Access(lineAddr, false):
		lat = h.cfg.L3.HitLatency
		if l, ok := h.L3.Invalidate(lineAddr); ok {
			spec.Dirty = l.Dirty
		}
		spec.SFL = true
		h.spillL2(h.L2.insert(lineAddr, spec))
	default:
		// The L3 lookup just missed, so there is no copy to reclaim.
		h.MemReads++
		h.spillL2(h.L2.insert(lineAddr, spec))
	}
	// Fill L1D, which the caller has just missed and the L2 fill only
	// removed lines from; a dirty victim writes back into the
	// (inclusive) L2.
	ev := h.L1D.insert(lineAddr, l1d)
	if ev.Victim && ev.Line.Dirty {
		h.L2.MarkDirty(ev.LineAddr)
	}
	return lat
}

// prefetchDataL1D is the L1D next-line prefetcher.
func (h *Hierarchy) prefetchDataL1D(lineAddr uint64) {
	if h.L1D.Contains(lineAddr) {
		return
	}
	h.dataMiss(lineAddr, FillSpec{Prefetch: true})
}

// LineShift returns log2(line size) for address arithmetic.
func (h *Hierarchy) LineShift() uint { return h.lineShift }

// ResetPriorities clears P bits hierarchy-wide (§6).
func (h *Hierarchy) ResetPriorities() {
	h.L1I.ResetPriorities()
	h.L2.ResetPriorities()
}
