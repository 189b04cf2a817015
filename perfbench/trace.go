package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"time"
)

// tracer keeps spans in memory for the whole run and writes them out at
// exit. A span wraps one call from the benchmark into a layer (parse,
// dataplane, fwdgraph, reach, core.compare, server.handler,
// server.transport, sweep.plan, sweep.exec); the root span of every op has
// layer "op". A nil *tracer and a nil *span record nothing, which is how
// untraced ops and untraced runs pay only a nil check per call.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []*span // a span's ID is its index + 1; 0 means no parent
	nextOp int
}

// span is one timed call. Counts carry the per-span work counters (bytes
// allocated, BDD nodes and operations, devices, edges, flows).
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Op     int              `json:"op"`
	Name   string           `json:"name"`
	Layer  string           `json:"layer"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Alloc  uint64           `json:"alloc_bytes"`
	Counts map[string]int64 `json:"counts,omitempty"`

	t          *tracer
	allocStart uint64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now()}
}

// heapAllocs is the process-wide cumulative allocation counter. Spans that
// overlap other goroutines' work (the two service clients) attribute that
// work to themselves too.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func (t *tracer) begin(parent *span, name, layer string) *span {
	sp := &span{Name: name, Layer: layer, t: t, allocStart: heapAllocs()}
	t.mu.Lock()
	sp.ID = len(t.spans) + 1
	if parent != nil {
		sp.Parent, sp.Op = parent.ID, parent.Op
	} else {
		t.nextOp++
		sp.Op = t.nextOp
	}
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	sp.Start = time.Since(t.t0).Nanoseconds()
	return sp
}

// op opens the root span of one op.
func (t *tracer) op(name string) *span {
	if t == nil {
		return nil
	}
	return t.begin(nil, name, "op")
}

// lookup returns the span with the given decimal id (the header a client
// sends to the server handler), or nil.
func (t *tracer) lookup(id string) *span {
	if t == nil || id == "" {
		return nil
	}
	n, err := strconv.Atoi(id)
	if err != nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n < 1 || n > len(t.spans) {
		return nil
	}
	return t.spans[n-1]
}

// child opens a span under s; nil when s is nil (untraced op).
func (s *span) child(name, layer string) *span {
	if s == nil {
		return nil
	}
	return s.t.begin(s, name, layer)
}

func (s *span) end() {
	if s == nil {
		return
	}
	s.End = time.Since(s.t.t0).Nanoseconds()
	s.Alloc = heapAllocs() - s.allocStart
}

// count adds v to the span's named counter.
func (s *span) count(name string, v int64) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	if s.Counts == nil {
		s.Counts = make(map[string]int64)
	}
	s.Counts[name] += v
	s.t.mu.Unlock()
}

func (s *span) id() string {
	if s == nil {
		return ""
	}
	return strconv.Itoa(s.ID)
}

func (s *span) dur() int64 { return s.End - s.Start }

// layerStat aggregates the closed spans of one layer.
type layerStat struct {
	selfNs int64
	spans  int
	alloc  uint64
	counts map[string]int64
}

// summary is the per-layer view of a finished trace.
type summary struct {
	ops     int   // root spans
	opNs    int64 // their total wall time
	coverNs int64 // part of it that child (layer) spans cover
	layers  map[string]*layerStat
}

// summarize computes each layer's self time: a span's duration minus the
// time its direct children cover. Children of one span never overlap (an
// op calls its layers one after another), so the sum is the covered time.
func (t *tracer) summarize() summary {
	t.mu.Lock()
	defer t.mu.Unlock()
	childNs := make(map[int]int64)
	for _, sp := range t.spans {
		if sp.Parent != 0 {
			childNs[sp.Parent] += sp.dur()
		}
	}
	sum := summary{layers: make(map[string]*layerStat)}
	for _, sp := range t.spans {
		self := sp.dur() - childNs[sp.ID]
		if self < 0 {
			self = 0
		}
		if sp.Parent == 0 {
			sum.ops++
			sum.opNs += sp.dur()
			sum.coverNs += sp.dur() - self
		}
		ls := sum.layers[sp.Layer]
		if ls == nil {
			ls = &layerStat{counts: make(map[string]int64)}
			sum.layers[sp.Layer] = ls
		}
		ls.selfNs += self
		ls.spans++
		ls.alloc += sp.Alloc
		for k, v := range sp.Counts {
			ls.counts[k] += v
		}
	}
	return sum
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printLayers writes the self-time table of the traced ops.
func (s summary) printLayers(out io.Writer) {
	names := make([]string, 0, len(s.layers))
	for n := range s.layers {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%-18s %12s %8s %8s\n", "layer", "self_ms/op", "share", "spans")
	for _, n := range names {
		ls := s.layers[n]
		share := 0.0
		if s.opNs > 0 {
			share = float64(ls.selfNs) / float64(s.opNs)
		}
		fmt.Fprintf(out, "%-18s %12.3f %8.3f %8d\n", n, perOp(float64(ls.selfNs)/1e6, s.ops), share, ls.spans)
	}
}

func perOp(v float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return v / float64(ops)
}
