package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A traced run records spans at the three seams the benchmark can
// interpose on without editing the program: vdisk.Disk (core.*),
// simdev.Device (simdev.*) and objstore.Store (objstore.*), plus the
// NBD client's round trip (nbd.request).
//
// Parentage. nbd.request → core.* is exact: one connection per export
// and one request in flight on it. A device or backend span is the
// child of the foreground span running on the same goroutine, else of
// the "bg" root. Go offers no goroutine identity short of parsing
// runtime.Stack (1.5–8 µs, comparable to a whole 4 KiB write), so only
// requests picked by the 1-in-sampleEvery sampler pay for it on their
// device ops; backend ops take milliseconds and always pay. Every op,
// sampled or not, feeds its histogram and counters.
const (
	sampleEvery = 16
	maxSpans    = 400_000
	bgSpanID    = 1
)

type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"` // root span of the request; bgSpanID for background work
}

type tracer struct {
	workload string
	t0       time.Time
	on       atomic.Bool // recording; off during the untraced windows of a traced run

	ids         atomic.Uint64
	roots       atomic.Uint64
	sampledOpen atomic.Int32
	slots       [16]fgSlot // foreground spans open right now

	mu      sync.Mutex
	spans   []span
	dropped uint64
}

// fgSlot publishes one open foreground span to the leaf wrappers.
// id is 0 for a request the sampler passed over.
type fgSlot struct {
	goid    atomic.Int64 // 0 = free
	id, req atomic.Uint64
}

func newTracer(workload string) *tracer {
	t := &tracer{workload: workload, t0: time.Now()}
	t.ids.Store(bgSpanID)
	return t
}

// goid is the current goroutine's id, parsed from its stack header.
func goid() int64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	var id int64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// sampleRoot decides whether the next request is kept, returning its
// span id or 0.
func (t *tracer) sampleRoot() uint64 {
	if t.roots.Add(1)%sampleEvery != 0 {
		return 0
	}
	return t.ids.Add(1)
}

// fgSpan is an open foreground span (core.* or nbd.request).
type fgSpan struct {
	t      *tracer
	on     bool
	name   string
	start  time.Time
	id     uint64
	parent uint64
	req    uint64
	slot   *fgSlot
}

// beginFG opens a foreground span on goroutine g (0: do not publish it
// to leaf wrappers). id is the span's own id, 0 if unsampled; parent
// and req place it under an enclosing request.
func (t *tracer) beginFG(name string, g int64, id, parent, req uint64) fgSpan {
	if t == nil || !t.on.Load() {
		return fgSpan{}
	}
	f := fgSpan{t: t, on: true, name: name, id: id, parent: parent, req: req}
	if g != 0 {
		for i := range t.slots {
			if s := &t.slots[i]; s.goid.Load() == 0 && s.goid.CompareAndSwap(0, -1) {
				s.id.Store(id)
				s.req.Store(req)
				s.goid.Store(g)
				f.slot = s
				break
			}
		}
		if id != 0 {
			t.sampledOpen.Add(1)
		}
	}
	f.start = time.Now()
	return f
}

// end closes the span and returns its duration in ns (0 when tracing
// is off).
func (f *fgSpan) end() int64 {
	if !f.on {
		return 0
	}
	now := time.Now()
	if f.slot != nil {
		f.slot.goid.Store(0)
		if f.id != 0 {
			f.t.sampledOpen.Add(-1)
		}
	}
	if f.id != 0 {
		f.t.record(span{f.name, f.start.Sub(f.t.t0).Nanoseconds(), now.Sub(f.t.t0).Nanoseconds(), f.id, f.parent, f.req})
	}
	return now.Sub(f.start).Nanoseconds()
}

// leafSpan is an open device or backend span.
type leafSpan struct {
	t      *tracer
	on     bool
	keep   bool
	name   string
	start  time.Time
	parent uint64
	req    uint64
}

// beginLeaf opens a device or backend span. always makes it look up
// its goroutine even when no sampled request is open (backend ops).
func (t *tracer) beginLeaf(name string, always bool) leafSpan {
	if t == nil || !t.on.Load() {
		return leafSpan{}
	}
	l := leafSpan{t: t, on: true, name: name}
	if always || t.sampledOpen.Load() > 0 {
		g := goid()
		l.keep, l.parent, l.req = true, bgSpanID, bgSpanID
		for i := range t.slots {
			if s := &t.slots[i]; s.goid.Load() == g {
				l.parent, l.req = s.id.Load(), s.req.Load()
				l.keep = l.parent != 0
				break
			}
		}
	}
	l.start = time.Now()
	return l
}

func (l *leafSpan) end() int64 {
	if !l.on {
		return 0
	}
	now := time.Now()
	if l.keep {
		l.t.record(span{l.name, l.start.Sub(l.t.t0).Nanoseconds(), now.Sub(l.t.t0).Nanoseconds(), l.t.ids.Add(1), l.parent, l.req})
	}
	return now.Sub(l.start).Nanoseconds()
}

// layerTime is one layer's share of the sampled requests' time.
type layerTime struct {
	Spans   int     `json:"spans"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"` // duration minus the part child spans cover
}

// selfTimes computes, per layer (the span name up to the dot), total
// and self time over the recorded spans.
func (t *tracer) selfTimes() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[uint64][]span)
	for _, s := range t.spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	out := make(map[string]layerTime)
	for _, s := range t.spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
		covered, upto := int64(0), s.Start
		for _, c := range ch {
			lo, hi := max(c.Start, upto), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		lt := out[layer]
		lt.Spans++
		lt.TotalMS += float64(s.End-s.Start) / 1e6
		lt.SelfMS += float64(s.End-s.Start-covered) / 1e6
		out[layer] = lt
	}
	return out
}

// write dumps the spans, with the per-layer times computed from them,
// to path.
func (t *tracer) write(path string, layers map[string]layerTime) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	end := time.Since(t.t0).Nanoseconds()
	doc := struct {
		Workload    string               `json:"workload"`
		SampleEvery int                  `json:"sample_every"`
		Dropped     uint64               `json:"dropped"`
		Layers      map[string]layerTime `json:"layers"`
		Spans       []span               `json:"spans"`
	}{t.workload, sampleEvery, t.dropped, layers,
		append([]span{{"bg", 0, end, bgSpanID, 0, bgSpanID}}, t.spans...)}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
