package main

import (
	"math"
	"time"
)

// refSpeedIndex is the host speed the end-to-end timings are scaled to:
// about what speedIndex reads on the two-vCPU host the benchmark was
// defined on when its co-tenants are quiet.
const refSpeedIndex = 70

// hostProbe measures how fast the host runs at the moment, so that a
// timing can be scaled to refSpeedIndex. Co-tenant load on a shared host
// slows the simulator by up to 40% for minutes at a time; a probe taken
// beside each timed interval slows with it, and dividing it out cut the
// ten-run spread of sim_mips about threefold where the load moved.
//
// The probe is two frozen kernels that live with the benchmark, so no
// change to the simulator can change them: a 16-way LRU cache model over
// 4 MB of tags with a hash-map lookup per access (memory-bound, like the
// simulator's caches and block index) and an xorshift loop (compute-bound).
// The speed index is 1000 times the geometric mean of their rates, in
// operations per ns.
type hostProbe struct {
	tags  []uint64
	stamp []uint32
	index map[uint64]int32
	x     uint64
	now   uint32
	sink  uint64
}

func newHostProbe() *hostProbe {
	p := &hostProbe{tags: make([]uint64, 1<<19), stamp: make([]uint32, 1<<19), index: make(map[uint64]int32), x: 1}
	for i := 0; i < 1<<17; i++ {
		p.index[uint64(i)*64] = int32(i)
	}
	// Fault the arrays in and warm the kernels, so the first reading is
	// not slowed by first-touch costs.
	clear(p.tags)
	clear(p.stamp)
	p.speedIndex()
	return p
}

// cacheModel runs n accesses of a skewed address stream: a quarter spread
// over 4M lines, the rest over a 64K-line hot set.
func (p *hostProbe) cacheModel(n int) {
	const ways = 16
	sets := uint64(len(p.tags) / ways)
	for i := 0; i < n; i++ {
		p.x ^= p.x << 13
		p.x ^= p.x >> 7
		p.x ^= p.x << 17
		line := (p.x >> 8) % (1 << 16)
		if p.x&3 == 0 {
			line = (p.x >> 8) % (1 << 22)
		}
		if v, ok := p.index[(line&(1<<17-1))*64]; ok {
			p.sink += uint64(v & 1)
		}
		p.now++
		base := (line % sets) * ways
		set, stamp := p.tags[base:base+ways], p.stamp[base:base+ways]
		victim := 0
		for w := range set {
			if set[w] == line+1 {
				victim = -1
				stamp[w] = p.now
				break
			}
			if stamp[w] < stamp[victim] {
				victim = w
			}
		}
		if victim >= 0 {
			set[victim], stamp[victim] = line+1, p.now
		}
	}
}

func (p *hostProbe) compute(n int) {
	x := p.x | 1
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	p.sink += x
}

// speedIndex times both kernels, about 60 ms on the reference host.
func (p *hostProbe) speedIndex() float64 {
	const cacheOps, computeOps = 500_000, 10_000_000
	start := time.Now()
	p.cacheModel(cacheOps)
	mid := time.Now()
	p.compute(computeOps)
	end := time.Now()
	cacheRate := cacheOps / float64(mid.Sub(start).Nanoseconds())
	computeRate := computeOps / float64(end.Sub(mid).Nanoseconds())
	return 1000 * math.Sqrt(cacheRate*computeRate)
}
