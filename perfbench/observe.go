package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"

	"emissary/internal/branch"
	"emissary/internal/cache"
	"emissary/internal/policy"
	"emissary/internal/trace"
)

// span is one traced interval at a layer boundary. Spans of one
// simulated job share a run id; run 0 is the benchmark itself.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans in memory; they are written out once the run
// ends so that writing costs nothing while it is measured.
type tracer struct {
	epoch time.Time
	spans []span
	runs  int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now reads the monotonic clock, in ns since the tracer started.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// newRun returns a fresh run id for one simulated job.
func (t *tracer) newRun() int {
	t.runs++
	return t.runs
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, run int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: run, Name: name, Start: t.now()})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = t.now()
	return time.Duration(s.dur())
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its children cover. Overlapping children (concurrent
// work) are counted once.
func selfTimes(spans []span) []int64 {
	children := make([][]span, len(spans)+1)
	for _, s := range spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// spanTotal aggregates the spans of one name.
type spanTotal struct {
	Name          string
	Count         int
	TotalNs, Self int64
}

// spanTotals sums duration and self time by span name, in order of
// first appearance.
func spanTotals(spans []span) []spanTotal {
	self := selfTimes(spans)
	var out []spanTotal
	index := make(map[string]int)
	for i, s := range spans {
		k, ok := index[s.Name]
		if !ok {
			k = len(out)
			index[s.Name] = k
			out = append(out, spanTotal{Name: s.Name})
		}
		out[k].Count++
		out[k].TotalNs += s.dur()
		out[k].Self += self[i]
	}
	return out
}

// writeSpans writes the spans as one JSON document.
func writeSpans(w io.Writer, workload string, seed uint64, spans []span) error {
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
}

// calibrateClock returns the mean ns one extra clock read adds to a
// timed interval: the interval between two back-to-back reads.
func calibrateClock(t *tracer) float64 {
	const pairs = 1 << 17
	var sum int64
	for i := 0; i < pairs; i++ {
		t0 := t.now()
		sum += t.now() - t0
	}
	return float64(sum) / pairs
}

// sampleEvery is the observers' timing rate: every call is counted and
// one in sampleEvery is timed, which keeps two clock reads off all but
// a sliver of the calls.
const sampleEvery = 64

// callStat counts one method's calls and accumulates the time of the
// sampled ones.
type callStat struct {
	calls, sampled uint64
	ns             int64
}

// start counts a call and, for a sampled one, returns its start time.
func (s *callStat) start(t *tracer) (int64, bool) {
	s.calls++
	if s.calls%sampleEvery != 0 {
		return 0, false
	}
	return t.now(), true
}

func (s *callStat) stop(t *tracer, t0 int64) {
	s.sampled++
	s.ns += t.now() - t0
}

func (s *callStat) merge(o callStat) {
	s.calls += o.calls
	s.sampled += o.sampled
	s.ns += o.ns
}

// nsPerCall is the mean sampled time less the calibrated clock cost,
// floored at zero.
func (s callStat) nsPerCall(clockNs float64) float64 {
	if s.sampled == 0 {
		return 0
	}
	return max(float64(s.ns)/float64(s.sampled)-clockNs, 0)
}

// selfSeconds extrapolates the sampled cost to every call.
func (s callStat) selfSeconds(clockNs float64) float64 {
	return s.nsPerCall(clockNs) * float64(s.calls) / 1e9
}

// sourceStats holds the workload engine's per-method counters.
type sourceStats struct {
	nextBlock, blocksInLine, instrClass, blockInfo callStat
}

func (s *sourceStats) merge(o sourceStats) {
	s.nextBlock.merge(o.nextBlock)
	s.blocksInLine.merge(o.blocksInLine)
	s.instrClass.merge(o.instrClass)
	s.blockInfo.merge(o.blockInfo)
}

// sourceObserver wraps the workload engine handed to the core. It
// changes nothing the core sees; it counts and samples every call and,
// when rec is set, records the committed-path stream for the cache
// replay.
type sourceObserver struct {
	inner trace.Source
	clock *tracer
	stats sourceStats
	rec   *recording
}

func (o *sourceObserver) NextBlock() (trace.BlockEvent, bool) {
	var (
		ev trace.BlockEvent
		ok bool
	)
	if t0, timed := o.stats.nextBlock.start(o.clock); timed {
		ev, ok = o.inner.NextBlock()
		o.stats.nextBlock.stop(o.clock, t0)
	} else {
		ev, ok = o.inner.NextBlock()
	}
	if ok && o.rec != nil {
		o.rec.add(ev)
	}
	return ev, ok
}

func (o *sourceObserver) BlockInfo(addr uint64) (branch.BTBEntry, bool) {
	if t0, timed := o.stats.blockInfo.start(o.clock); timed {
		e, ok := o.inner.BlockInfo(addr)
		o.stats.blockInfo.stop(o.clock, t0)
		return e, ok
	}
	return o.inner.BlockInfo(addr)
}

func (o *sourceObserver) BlocksInLine(line uint64, out []branch.BTBEntry) []branch.BTBEntry {
	if t0, timed := o.stats.blocksInLine.start(o.clock); timed {
		out = o.inner.BlocksInLine(line, out)
		o.stats.blocksInLine.stop(o.clock, t0)
		return out
	}
	return o.inner.BlocksInLine(line, out)
}

func (o *sourceObserver) InstrClass(pc uint64) trace.Class {
	if t0, timed := o.stats.instrClass.start(o.clock); timed {
		c := o.inner.InstrClass(pc)
		o.stats.instrClass.stop(o.clock, t0)
		return c
	}
	return o.inner.InstrClass(pc)
}

// policyStats holds the L2 replacement policy's per-callback counters.
type policyStats struct {
	victim, onHit, onFill callStat
}

func (s *policyStats) merge(o policyStats) {
	s.victim.merge(o.victim)
	s.onHit.merge(o.onHit)
	s.onFill.merge(o.onFill)
}

// policyObserver wraps the L2 replacement policy: it forwards every
// callback unchanged, counting and sampling the three hot ones.
type policyObserver struct {
	inner policy.Policy
	clock *tracer
	stats policyStats
}

func (o *policyObserver) Name() string { return o.inner.Name() }

func (o *policyObserver) OnHit(set, way int, view policy.SetView) {
	if t0, timed := o.stats.onHit.start(o.clock); timed {
		o.inner.OnHit(set, way, view)
		o.stats.onHit.stop(o.clock, t0)
		return
	}
	o.inner.OnHit(set, way, view)
}

func (o *policyObserver) OnFill(set, way int, view policy.SetView) {
	if t0, timed := o.stats.onFill.start(o.clock); timed {
		o.inner.OnFill(set, way, view)
		o.stats.onFill.stop(o.clock, t0)
		return
	}
	o.inner.OnFill(set, way, view)
}

func (o *policyObserver) Victim(set int, view policy.SetView, incoming policy.LineView) int {
	if t0, timed := o.stats.victim.start(o.clock); timed {
		w := o.inner.Victim(set, view, incoming)
		o.stats.victim.stop(o.clock, t0)
		return w
	}
	return o.inner.Victim(set, view, incoming)
}

func (o *policyObserver) OnInvalidate(set, way int) { o.inner.OnInvalidate(set, way) }

func (o *policyObserver) OnPriorityUpdate(set, way int, view policy.SetView) {
	o.inner.OnPriorityUpdate(set, way, view)
}

// recordLimit bounds the recorded stream (about 1.8M instructions),
// which is plenty to time the cache layer per call.
const recordLimit = 1 << 18

// recBlock is one recorded committed-path block; its memory references
// are mem[previous block's memEnd:memEnd].
type recBlock struct {
	addr   uint64
	n      uint16
	memEnd uint32
}

// recording is a committed-path stream kept in flat arrays.
type recording struct {
	blocks []recBlock
	mem    []trace.MemRef
}

func (r *recording) add(ev trace.BlockEvent) {
	if len(r.blocks) >= recordLimit {
		return
	}
	r.mem = append(r.mem, ev.Mem...)
	r.blocks = append(r.blocks, recBlock{addr: ev.Addr, n: uint16(ev.NumInstrs), memEnd: uint32(len(r.mem))})
}

// replay drives the recorded stream through a fresh hierarchy the way
// the core's committed path does (each block's lines fetched and
// filled, then its loads and stores) and returns the number of
// ProbeFetch and AccessData calls and the time they took.
func (r *recording) replay(cfg cache.Config) (calls uint64, elapsed time.Duration) {
	h := cache.NewHierarchy(cfg)
	shift := h.LineShift()
	start := time.Now()
	memStart := uint32(0)
	for _, b := range r.blocks {
		last := (b.addr + 4*uint64(b.n-1)) >> shift
		for line := b.addr >> shift; line <= last; line++ {
			res := h.ProbeFetch(line)
			if res.NeedFill {
				h.CompleteFetch(line, res.Source, false)
			}
			calls++
		}
		for _, m := range r.mem[memStart:b.memEnd] {
			h.AccessData(m.Addr>>shift, m.Store)
			calls++
		}
		memStart = b.memEnd
	}
	return calls, time.Since(start)
}
