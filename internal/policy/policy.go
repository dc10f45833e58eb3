// Package policy defines the cache replacement-policy framework and
// implements every prior-work policy the paper compares against:
// true LRU, tree pseudo-LRU (TPLRU), LIP/BIP-style bimodal insertion
// (the M-treatment family), SRRIP/BRRIP/DRRIP, PDP and DCLIP.
//
// The EMISSARY P(N) family — the paper's contribution — lives in
// internal/core and builds on the recency bases exported here.
//
// A cache owns its line metadata and presents it to the policy as a
// SetView per set: occupancy masks, one bit per way, that the cache
// keeps as its line state. Policies keep whatever recency state they
// need (stamps, tree bits, RRPVs) indexed by (set, way).
package policy

import (
	"fmt"
	"math/bits"
)

// LineView describes one line: the incoming line of a Victim call, and
// the per-way input of ViewOf.
type LineView struct {
	Valid    bool
	Priority bool // EMISSARY P bit (false for all non-EMISSARY policies)
	Instr    bool // line holds instructions (vs data)
}

// SetView is the read-only view of one cache set passed to every
// policy callback: occupancy masks in which bit w describes way w. The
// masks are the cache's own line state (DESIGN.md §9), so a policy
// reads a line's class with one bit test, e.g. view.High&(1<<way), and
// never scans the ways.
type SetView struct {
	// Valid is the mask of valid ways.
	Valid uint32
	// High is the mask of valid ways whose Priority bit is set.
	High uint32
	// Instr is the mask of valid ways holding instruction lines.
	Instr uint32
}

// Low returns the mask of valid low-priority ways.
func (v SetView) Low() uint32 { return v.Valid &^ v.High }

// Data returns the mask of valid data (non-instruction) ways.
func (v SetView) Data() uint32 { return v.Valid &^ v.Instr }

// HighCount returns the number of valid high-priority ways.
func (v SetView) HighCount() int { return bits.OnesCount32(v.High) }

// ViewOf derives a SetView's masks from per-way line metadata (way w
// is lines[w]). The cache keeps its masks directly and never calls
// this; ViewOf serves tests and reference models.
func ViewOf(lines []LineView) SetView {
	var v SetView
	for w, l := range lines {
		if !l.Valid {
			continue
		}
		bit := uint32(1) << uint(w)
		v.Valid |= bit
		if l.Priority {
			v.High |= bit
		}
		if l.Instr {
			v.Instr |= bit
		}
	}
	return v
}

// Policy is the interface caches use to drive replacement decisions.
//
// The cache guarantees:
//   - Victim is called only when every way in the set is valid;
//   - OnFill is called after the new line is installed, so view's
//     bits for way describe it;
//   - High and Instr are subsets of Valid, and no bit at or above
//     `ways` is set.
type Policy interface {
	// Name returns the policy's notation string (e.g. "M:R(1/32)").
	Name() string
	// OnHit is invoked when an access hits way in set.
	OnHit(set, way int, view SetView)
	// OnFill is invoked after a miss fill installs a line at way.
	OnFill(set, way int, view SetView)
	// Victim picks the way to evict for an incoming fill described by
	// incoming. It must return a valid way index. No policy in this
	// module consults incoming.
	Victim(set int, view SetView, incoming LineView) int
	// OnInvalidate is invoked when a line is removed without
	// replacement (back-invalidation, flush).
	OnInvalidate(set, way int)
	// OnPriorityUpdate is invoked when a line's Priority bit changes
	// while resident (an L1I eviction writing its P bit into L2).
	OnPriorityUpdate(set, way int, view SetView)
}

// RecencyBase is the recency-tracking substrate shared by the
// M-treatment family and by EMISSARY's P(N) treatment: either true LRU
// or tree pseudo-LRU. VictimAmong restricts the choice to the ways set
// in mask, returning -1 if the mask is empty of valid candidates.
type RecencyBase interface {
	// Touch marks way as most recently used.
	Touch(set, way int)
	// MakeLRU marks way as the next victim (LIP-style insertion).
	MakeLRU(set, way int)
	// Victim returns the least recently used way.
	Victim(set int) int
	// VictimAmong returns the least recently used way among those set
	// in mask, or -1 if mask is zero.
	VictimAmong(set int, mask uint32) int
}

// Resetter is implemented by every policy (and recency base) in this
// module: ResetState restores the exact post-construction state for
// the given seed, without allocating, so a warm-pooled cache can reuse
// a policy instance across simulations with byte-identical results.
// Policies that never draw randomness ignore the seed.
type Resetter interface {
	ResetState(seed uint64)
}

// maskAll returns a mask with the low `ways` bits set.
func maskAll(ways int) uint32 { return (1 << uint(ways)) - 1 }

// checkGeometry panics when a policy is constructed with a geometry it
// cannot support.
func checkGeometry(sets, ways int) {
	if sets <= 0 || ways <= 0 {
		panic(fmt.Sprintf("policy: invalid geometry %dx%d", sets, ways))
	}
	if ways > 32 {
		panic(fmt.Sprintf("policy: ways = %d exceeds mask width", ways))
	}
}
