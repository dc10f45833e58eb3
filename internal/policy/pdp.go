package policy

import "math/bits"

// PDP implements a static Protecting Distance Policy (Duong et al.,
// MICRO 2012). Every line carries a remaining-protecting-distance
// counter initialised to the protecting distance PD on insertion and
// on every hit; every access to a set ages the other lines. A line is
// protected while its counter is non-zero.
//
// Simplification vs the original: the original bypasses the incoming
// line when every resident line is protected; bypassing an L2 fill
// would break the inclusive hierarchy modeled here (and the paper
// itself reports bypass was not useful for these workloads), so when
// all lines are protected PDP evicts the line closest to expiry.
// The protecting distance is static (the paper's Table 3 lists
// "Static protective distance policy").
type PDP struct {
	name       string
	sets, ways int
	pd         int
	remaining  []uint16
	stamps     *TrueLRU // tie-break among expired lines
}

// DefaultProtectingDistance is the static PD used when none is given;
// chosen near the per-set access count that covers the Mid-Reuse
// bucket boundary for a 16-way set.
const DefaultProtectingDistance = 64

// NewPDP builds a static PDP policy with protecting distance pd.
func NewPDP(sets, ways, pd int) *PDP {
	checkGeometry(sets, ways)
	if pd <= 0 {
		pd = DefaultProtectingDistance
	}
	return &PDP{
		name:      "PDP",
		sets:      sets,
		ways:      ways,
		pd:        pd,
		remaining: make([]uint16, sets*ways),
		stamps:    NewTrueLRU(sets, ways),
	}
}

func (p *PDP) idx(set, way int) int { return set*p.ways + way }

// age decrements every other valid line's remaining distance,
// walking the set's precomputed valid mask.
func (p *PDP) age(set, except int, valid uint32) {
	base := set * p.ways
	for m := valid &^ (1 << uint(except)); m != 0; m &= m - 1 {
		w := bits.TrailingZeros32(m)
		if p.remaining[base+w] > 0 {
			p.remaining[base+w]--
		}
	}
}

// Name implements Policy.
func (p *PDP) Name() string { return p.name }

// OnHit implements Policy.
//
//vet:hot
func (p *PDP) OnHit(set, way int, view SetView) {
	p.remaining[p.idx(set, way)] = uint16(p.pd)
	p.stamps.Touch(set, way)
	p.age(set, way, view.Valid)
}

// OnFill implements Policy.
//
//vet:hot
func (p *PDP) OnFill(set, way int, view SetView) {
	p.remaining[p.idx(set, way)] = uint16(p.pd)
	p.stamps.Touch(set, way)
	p.age(set, way, view.Valid)
}

// Victim implements Policy: prefer the least-recently-used expired
// line; if all lines remain protected, evict the one closest to
// expiry (ties to LRU).
//
//vet:hot
func (p *PDP) Victim(set int, view SetView, incoming LineView) int {
	base := set * p.ways
	var expired uint32
	for w := 0; w < p.ways; w++ {
		if p.remaining[base+w] == 0 {
			expired |= 1 << uint(w)
		}
	}
	if expired != 0 {
		if v := p.stamps.VictimAmong(set, expired); v >= 0 {
			return v
		}
	}
	best, bestRem := 0, p.remaining[base]
	for w := 1; w < p.ways; w++ {
		if r := p.remaining[base+w]; r < bestRem {
			best, bestRem = w, r
		}
	}
	return best
}

// OnInvalidate implements Policy.
//
//vet:hot
func (p *PDP) OnInvalidate(set, way int) {
	p.remaining[p.idx(set, way)] = 0
}

// OnPriorityUpdate implements Policy.
//
//vet:hot
func (p *PDP) OnPriorityUpdate(set, way int, view SetView) {}

// ResetState implements Resetter: all protecting-distance counters and
// the tie-break stamps return to their post-construction zeros. The
// seed is ignored (PDP is deterministic).
//
//vet:hot
func (p *PDP) ResetState(seed uint64) {
	clear(p.remaining)
	p.stamps.ResetState(seed)
}
