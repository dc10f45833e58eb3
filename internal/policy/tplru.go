package policy

import "fmt"

// TPLRU is a tree pseudo-LRU recency base (the hardware-realistic
// base used for all of the paper's main evaluations). It requires a
// power-of-two way count and keeps ways-1 tree bits per set.
//
// Convention: each internal node's bit gives the direction (0 = left,
// 1 = right) toward the pseudo-LRU victim. Touching a way flips the
// bits on its root path to point away from it; MakeLRU points them at
// it.
//
// Both updates are one masked write: NewTPLRU tabulates, per way, the
// tree bits on its root path and the values that point them toward
// it, and per heap node, the mask of leaf ways beneath it.
type TPLRU struct {
	sets, ways int
	bits       []uint16 // one word of tree bits per set, node i's bit at 1<<i (i from 1)

	// path[w] has the bit of every internal node on way w's root path;
	// toward[w] holds those bits set to point at w.
	path, toward [16]uint16
	// leaves[n] is the mask of leaf ways beneath heap node n; leaves[w+ways]
	// is way w's own bit.
	leaves [32]uint32
}

// NewTPLRU returns a tree-PLRU recency base. Ways must be a power of
// two between 2 and 16.
func NewTPLRU(sets, ways int) *TPLRU {
	checkGeometry(sets, ways)
	if ways&(ways-1) != 0 || ways < 2 || ways > 16 {
		panic(fmt.Sprintf("policy: TPLRU requires power-of-two ways in [2,16], got %d", ways))
	}
	t := &TPLRU{sets: sets, ways: ways, bits: make([]uint16, sets)}
	for w := 0; w < ways; w++ {
		t.leaves[ways+w] = 1 << uint(w)
		// Walk up from the leaf: node's bit points toward w when it
		// selects the child w's path arrived from.
		for child, node := ways+w, (ways+w)/2; node >= 1; child, node = node, node/2 {
			t.path[w] |= 1 << uint(node)
			if child&1 != 0 {
				t.toward[w] |= 1 << uint(node)
			}
		}
	}
	for n := ways - 1; n >= 1; n-- {
		t.leaves[n] = t.leaves[2*n] | t.leaves[2*n+1]
	}
	return t
}

// Touch implements RecencyBase.
//
//vet:hot
func (t *TPLRU) Touch(set, way int) {
	w := way & 15 // way < ways <= 16; the mask only drops the bounds check
	t.bits[set] = t.bits[set]&^t.path[w] | t.path[w]&^t.toward[w]
}

// MakeLRU implements RecencyBase.
//
//vet:hot
func (t *TPLRU) MakeLRU(set, way int) {
	w := way & 15 // as in Touch
	t.bits[set] = t.bits[set]&^t.path[w] | t.toward[w]
}

// Victim implements RecencyBase.
//
//vet:hot
func (t *TPLRU) Victim(set int) int {
	b := t.bits[set]
	node := 1
	for node < t.ways {
		node = node*2 + int(b>>uint(node)&1)
	}
	return node - t.ways
}

// VictimAmong implements RecencyBase. The walk follows the tree bits
// but refuses to descend into subtrees containing no masked way; the
// result is the tree-PLRU victim restricted to the mask (this is the
// "skipping any lines that do not match the priority criteria" walk
// from §4.2 of the paper).
//
//vet:hot
func (t *TPLRU) VictimAmong(set int, mask uint32) int {
	mask &= maskAll(t.ways)
	if mask == 0 {
		return -1
	}
	b := t.bits[set]
	node := 1
	for node < t.ways {
		preferred := node*2 + int(b>>uint(node)&1)
		if t.leaves[preferred&31]&mask == 0 {
			// The sibling subtree holds every masked way left.
			preferred ^= 1
		}
		node = preferred
	}
	way := node - t.ways
	if mask&(1<<uint(way)) == 0 {
		// The walk can only land outside the mask if the mask was
		// empty, which we excluded above.
		panic("policy: TPLRU VictimAmong walk escaped mask")
	}
	return way
}

// ResetState implements Resetter: every tree bit returns to its
// post-construction zero value. The seed is ignored.
//
//vet:hot
func (t *TPLRU) ResetState(seed uint64) {
	clear(t.bits)
}

// Bits exposes the raw tree bits of a set for tests.
func (t *TPLRU) Bits(set int) uint16 { return t.bits[set] }
