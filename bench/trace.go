package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the public call. Every span of one iteration carries the
// same Iter; Parent is the enclosing span's ID (-1 for an iteration root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Iter   int32  `json:"iter"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// rootSpan names the span that covers one whole iteration.
const rootSpan = "iter"

// tracer keeps spans in a pre-sized slice and writes them out only after
// the run. A nil *tracer records nothing, so untraced iterations pay one
// nil check per layer call. Safe for concurrent use: fleet workers and
// the paper pool open spans from several goroutines.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	iter  int32
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under parent and returns its ID.
func (t *tracer) begin(parent int32, name string) int32 {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Iter: t.iter, Name: name, Start: start})
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// span opens a span and returns the function that closes it.
func (t *tracer) span(parent int32, name string) func() {
	if t == nil {
		return func() {}
	}
	id := t.begin(parent, name)
	return func() { t.end(id) }
}

// startIter opens the root span of iteration i.
func (t *tracer) startIter(i int) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.iter = int32(i)
	t.mu.Unlock()
	return t.begin(-1, rootSpan)
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes the spans as one JSON array.
func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

// iterProfile is one traced iteration: the root's wall time and the self
// time summed per span name (the root's own self time is the glue).
type iterProfile struct {
	wall int64
	self map[string]int64
}

// selfTimes computes every span's self time — its duration minus the
// union of its children's intervals — and sums it per name within each
// iteration. Children of one parent may overlap (concurrent fleet
// workers, the two-worker experiment pool), which is why the union and
// not the sum is subtracted.
func selfTimes(spans []span) []iterProfile {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byIter := make(map[int32]*iterProfile)
	var order []int32
	for _, s := range spans {
		p := byIter[s.Iter]
		if p == nil {
			p = &iterProfile{self: make(map[string]int64)}
			byIter[s.Iter] = p
			order = append(order, s.Iter)
		}
		self := (s.End - s.Start) - covered(s, children[s.ID])
		p.self[s.Name] += self
		if s.Parent < 0 {
			p.wall += s.End - s.Start
		}
	}
	out := make([]iterProfile, 0, len(order))
	for _, it := range order {
		out = append(out, *byIter[it])
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}
