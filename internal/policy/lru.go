package policy

// TrueLRU is an exact least-recently-used recency base. Each line
// carries a 64-bit timestamp; MRU touches use an increasing clock and
// LIP-style LRU insertions use a decreasing clock so that successive
// LRU-inserted lines are evicted oldest-insertion-first.
type TrueLRU struct {
	sets, ways int
	stamps     []int64
	mruClock   int64
	lruClock   int64
}

// NewTrueLRU returns an exact-LRU recency base for the geometry.
func NewTrueLRU(sets, ways int) *TrueLRU {
	checkGeometry(sets, ways)
	return &TrueLRU{
		sets:   sets,
		ways:   ways,
		stamps: make([]int64, sets*ways),
	}
}

func (l *TrueLRU) idx(set, way int) int { return set*l.ways + way }

// Touch implements RecencyBase.
//
//vet:hot
func (l *TrueLRU) Touch(set, way int) {
	l.mruClock++
	l.stamps[l.idx(set, way)] = l.mruClock
}

// MakeLRU implements RecencyBase.
//
//vet:hot
func (l *TrueLRU) MakeLRU(set, way int) {
	l.lruClock--
	l.stamps[l.idx(set, way)] = l.lruClock
}

// Victim implements RecencyBase.
//
//vet:hot
func (l *TrueLRU) Victim(set int) int {
	v := l.VictimAmong(set, maskAll(l.ways))
	if v < 0 {
		return 0
	}
	return v
}

// VictimAmong implements RecencyBase.
//
//vet:hot
func (l *TrueLRU) VictimAmong(set int, mask uint32) int {
	best := -1
	var bestStamp int64
	base := set * l.ways
	for w := 0; w < l.ways; w++ {
		if mask&(1<<uint(w)) == 0 {
			continue
		}
		s := l.stamps[base+w]
		if best < 0 || s < bestStamp {
			best = w
			bestStamp = s
		}
	}
	return best
}

// ResetState implements Resetter: all stamps and both clocks return to
// their post-construction zero values. The seed is ignored (true LRU is
// deterministic).
//
//vet:hot
func (l *TrueLRU) ResetState(seed uint64) {
	clear(l.stamps)
	l.mruClock = 0
	l.lruClock = 0
}

// Stamp exposes a line's recency stamp for tests.
func (l *TrueLRU) Stamp(set, way int) int64 { return l.stamps[l.idx(set, way)] }
