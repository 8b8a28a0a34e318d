package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the layer's public function. Spans of one replayed operation
// share a trace ID; Parent is the index of the enclosing span (-1 for
// an operation's root).
type span struct {
	Name   string `json:"name"`
	Trace  int32  `json:"trace"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
	// Sampled spans belong to operations picked for allocation
	// counting: runtime.ReadMemStats brackets each of their leaf calls,
	// so their times are excluded from the timing figures.
	Sampled bool  `json:"sampled,omitempty"`
	Allocs  int64 `json:"allocs,omitempty"`
	Bytes   int64 `json:"bytes,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer makes
// every call a no-op, so the untraced replay runs the same code.
type tracer struct {
	t0      time.Time
	spans   []span
	stack   []int32
	trace   int32
	sampled bool
	ms      runtime.MemStats
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op opens the root span of one replayed operation; sample asks for
// allocation counts on its leaf spans.
func (t *tracer) op(name string, sample bool) int32 {
	if t == nil {
		return -1
	}
	t.trace++
	t.sampled = sample
	return t.begin(name)
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	sp := span{Name: name, Trace: t.trace, Parent: parent, Sampled: t.sampled}
	if t.sampled && parent >= 0 {
		runtime.ReadMemStats(&t.ms)
		sp.Allocs, sp.Bytes = -int64(t.ms.Mallocs), -int64(t.ms.TotalAlloc)
	}
	sp.Start = time.Since(t.t0).Nanoseconds()
	t.spans = append(t.spans, sp)
	id := int32(len(t.spans) - 1)
	t.stack = append(t.stack, id)
	return id
}

// end closes span id (the innermost open span).
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	sp := &t.spans[id]
	sp.End = time.Since(t.t0).Nanoseconds()
	if sp.Sampled && sp.Parent >= 0 {
		runtime.ReadMemStats(&t.ms)
		sp.Allocs += int64(t.ms.Mallocs)
		sp.Bytes += int64(t.ms.TotalAlloc)
	}
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTimes returns each span's duration minus the part of it covered
// by its children's intervals.
func (t *tracer) selfTimes() []int64 {
	children := make([][]int32, len(t.spans))
	for i, sp := range t.spans {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], int32(i))
		}
	}
	self := make([]int64, len(t.spans))
	for i, sp := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, reach := int64(0), sp.Start
		for _, k := range kids {
			s, e := max(t.spans[k].Start, reach), min(t.spans[k].End, sp.End)
			if e > s {
				covered += e - s
				reach = e
			}
		}
		self[i] = sp.End - sp.Start - covered
	}
	return self
}

// legSpan groups the calls one shard makes for a retrieval; it is the
// benchmark's own span, not a layer's.
const legSpan = "shard.leg"

// opTrace is one replayed operation: its root span's name and, per
// layer span name, the summed self time in microseconds and (for
// sampled operations) allocations and bytes.
type opTrace struct {
	root    string
	sampled bool
	us      map[string]float64
	legUS   float64 // self time of layer calls inside shard legs
	allocs  map[string]float64
	bytes   map[string]float64
}

// ops groups the spans by operation, in replay order.
func (t *tracer) ops() []opTrace {
	self := t.selfTimes()
	var out []opTrace
	for i, sp := range t.spans {
		if sp.Parent < 0 {
			out = append(out, opTrace{root: sp.Name, sampled: sp.Sampled,
				us: map[string]float64{}, allocs: map[string]float64{}, bytes: map[string]float64{}})
			continue
		}
		cur := &out[len(out)-1]
		if sp.Name == legSpan {
			continue
		}
		if cur.sampled {
			cur.allocs[sp.Name] += float64(sp.Allocs)
			cur.bytes[sp.Name] += float64(sp.Bytes)
		} else {
			cur.us[sp.Name] += float64(self[i]) / 1e3
			if p := sp.Parent; p >= 0 && t.spans[p].Name == legSpan {
				cur.legUS += float64(self[i]) / 1e3
			}
		}
	}
	return out
}

// layerCosts gives, for operations with the given root, each layer's
// median self time per operation over the unsampled operations that
// called it, and its mean allocations and bytes per operation over the
// sampled ones that called it: the layer's cost when it is used. (A
// hot-read retrieval answered from the gateway cache reaches no shard;
// counting it as zero would make most shard-side medians read 0.)
func layerCosts(ops []opTrace, root string) (us, allocs, bytes map[string]float64) {
	per := map[string][]float64{}
	calls := map[string]float64{}
	us, allocs, bytes = map[string]float64{}, map[string]float64{}, map[string]float64{}
	for _, o := range ops {
		if o.root != root {
			continue
		}
		if o.sampled {
			for k, v := range o.allocs {
				allocs[k] += v
				bytes[k] += o.bytes[k]
				calls[k]++
			}
			continue
		}
		for k, v := range o.us {
			per[k] = append(per[k], v)
		}
	}
	for k, xs := range per {
		if m, err := Median(xs); err == nil {
			us[k] = m
		}
	}
	for k := range allocs {
		allocs[k] /= calls[k]
		bytes[k] /= calls[k]
	}
	return us, allocs, bytes
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
