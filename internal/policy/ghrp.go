package policy

import (
	"math/bits"

	"emissary/internal/rng"
)

// GHRP implements a compact variant of Global History Reuse Prediction
// (Ajorpaz et al., ISCA 2018), the instruction-cache dead-block policy
// the paper discusses in §7.2. Each resident line carries a signature
// formed from its address and the access history at its last touch; a
// table of saturating counters learns, per signature, whether lines
// die (are evicted without another reference) or live. Eviction
// prefers predicted-dead lines, falling back to recency.
//
// Simplifications vs the original: signatures hash line addresses
// rather than access PCs (the simulated L2 sees line addresses), and
// the bypass decision is omitted (the inclusive hierarchy modeled here
// cannot bypass L2 fills; the paper's own EMISSARY experiments found
// bypass unhelpful for these workloads).
type GHRP struct {
	name       string
	sets, ways int

	history uint64 // global access-history register

	sigs    []uint32 // per-line signature at last touch
	touched []bool   // referenced since fill

	dead     []uint8 // 2-bit dead-on-signature counters
	deadMask uint32

	stamps *TrueLRU
}

const (
	ghrpTableLg = 12
	ghrpDeadMax = 3
	// ghrpDeadThreshold is the counter value at which a signature is
	// predicted dead.
	ghrpDeadThreshold = 2
)

// NewGHRP builds the dead-block-prediction policy.
func NewGHRP(sets, ways int) *GHRP {
	checkGeometry(sets, ways)
	return &GHRP{
		name:     "GHRP",
		sets:     sets,
		ways:     ways,
		sigs:     make([]uint32, sets*ways),
		touched:  make([]bool, sets*ways),
		dead:     make([]uint8, 1<<ghrpTableLg),
		deadMask: 1<<ghrpTableLg - 1,
		stamps:   NewTrueLRU(sets, ways),
	}
}

func (p *GHRP) idx(set, way int) int { return set*p.ways + way }

// signature mixes the line's identity with the access history.
func (p *GHRP) signature(set, way int) uint32 {
	return uint32(rng.Mix2(uint64(p.idx(set, way))<<20|uint64(set), p.history)) & p.deadMask
}

func (p *GHRP) advanceHistory(set, way int) {
	p.history = p.history<<3 ^ p.history>>41 ^ uint64(set*p.ways+way)*0x9e3779b9
}

// trainDead bumps a signature's dead counter.
func (p *GHRP) trainDead(sig uint32) {
	if p.dead[sig] < ghrpDeadMax {
		p.dead[sig]++
	}
}

// trainLive decays a signature's dead counter.
func (p *GHRP) trainLive(sig uint32) {
	if p.dead[sig] > 0 {
		p.dead[sig]--
	}
}

// Name implements Policy.
func (p *GHRP) Name() string { return p.name }

// OnHit implements Policy.
//
//vet:hot
func (p *GHRP) OnHit(set, way int, view SetView) {
	i := p.idx(set, way)
	// The previous signature proved live.
	p.trainLive(p.sigs[i])
	p.advanceHistory(set, way)
	p.sigs[i] = p.signature(set, way)
	p.touched[i] = true
	p.stamps.Touch(set, way)
}

// OnFill implements Policy.
//
//vet:hot
func (p *GHRP) OnFill(set, way int, view SetView) {
	i := p.idx(set, way)
	p.advanceHistory(set, way)
	p.sigs[i] = p.signature(set, way)
	p.touched[i] = false
	p.stamps.Touch(set, way)
}

// DeadMask returns the mask of ways within valid whose current
// signature is predicted dead (exported for the EMISSARY+GHRP hybrid).
func (p *GHRP) DeadMask(set int, valid uint32) uint32 {
	var m uint32
	base := set * p.ways
	for v := valid & maskAll(p.ways); v != 0; v &= v - 1 {
		w := bits.TrailingZeros32(v)
		if p.dead[p.sigs[base+w]] >= ghrpDeadThreshold {
			m |= 1 << uint(w)
		}
	}
	return m
}

// VictimAmong picks a victim restricted to mask (a subset of the
// set's valid ways): predicted-dead lines first, else the least
// recently used; -1 if the mask is empty. Exported for the
// EMISSARY+GHRP hybrid.
//
//vet:hot
func (p *GHRP) VictimAmong(set int, mask uint32) int {
	if mask == 0 {
		return -1
	}
	if deadMask := p.DeadMask(set, mask) & mask; deadMask != 0 {
		if v := p.stamps.VictimAmong(set, deadMask); v >= 0 {
			return v
		}
	}
	return p.stamps.VictimAmong(set, mask)
}

// Victim implements Policy.
//
//vet:hot
func (p *GHRP) Victim(set int, view SetView, incoming LineView) int {
	v := p.VictimAmong(set, view.Valid)
	if v < 0 {
		return 0
	}
	return v
}

// OnInvalidate implements Policy: an eviction of an untouched line is
// the dead-block training event.
//
//vet:hot
func (p *GHRP) OnInvalidate(set, way int) {
	i := p.idx(set, way)
	if !p.touched[i] {
		p.trainDead(p.sigs[i])
	} else {
		p.trainLive(p.sigs[i])
	}
}

// OnPriorityUpdate implements Policy.
//
//vet:hot
func (p *GHRP) OnPriorityUpdate(set, way int, view SetView) {}

// ResetState implements Resetter: history register, per-line
// signatures and touch bits, the dead-counter table, and the recency
// stamps all return to their post-construction zeros. The seed is
// ignored (GHRP is deterministic).
//
//vet:hot
func (p *GHRP) ResetState(seed uint64) {
	p.history = 0
	clear(p.sigs)
	clear(p.touched)
	clear(p.dead)
	p.stamps.ResetState(seed)
}
