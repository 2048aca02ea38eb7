package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// span is one timed call made from the benchmark into a layer: a sampled
// public call in a traced round, a round itself, or one ledger sample.
// It holds no pointers (the name is an index into spanNames), so the
// garbage collector never scans the rings.
type span struct {
	id, parent uint64
	start, end int64 // now() nanoseconds
	name       uint32
}

// spanNames interns span names; main goroutine only.
type spanNames struct {
	ids   map[string]uint32
	names []string
}

func (n *spanNames) id(name string) uint32 {
	if id, ok := n.ids[name]; ok {
		return id
	}
	if n.ids == nil {
		n.ids = map[string]uint32{}
	}
	n.ids[name] = uint32(len(n.names))
	n.names = append(n.names, name)
	return n.ids[name]
}

// spanRing keeps the most recent spans of one goroutine in memory; it
// overwrites the oldest when full, so recording costs the same all run.
type spanRing struct {
	buf  []span
	next uint64 // spans recorded so far; buf[next%len] is the next slot
	tag  uint64 // high bits of this ring's span ids
}

func newSpanRing(owner, size int) *spanRing {
	return &spanRing{buf: make([]span, size), tag: uint64(owner+1) << 40}
}

// add records a span and returns its id.
func (r *spanRing) add(parent uint64, name uint32, start, end int64) uint64 {
	id := r.tag | r.next
	r.buf[r.next&uint64(len(r.buf)-1)] = span{id: id, parent: parent, start: start, end: end, name: name}
	r.next++
	return id
}

// set updates the times of span id, if the ring still holds it; a span
// is added when it opens and set when it closes.
func (r *spanRing) set(id uint64, start, end int64) {
	if s := &r.buf[id&uint64(len(r.buf)-1)]; s.id == id {
		s.start, s.end = start, end
	}
}

// kept returns the spans still in the ring, oldest first.
func (r *spanRing) kept() []span {
	n := uint64(len(r.buf))
	if r.next <= n {
		return r.buf[:r.next]
	}
	i := r.next % n
	return append(append([]span(nil), r.buf[i:]...), r.buf[:i]...)
}

// dropped counts the spans the ring overwrote.
func (r *spanRing) dropped() uint64 {
	return r.next - min(r.next, uint64(len(r.buf)))
}

// sampler times one public call in every mask+1: untraced it keeps the
// call's latency, traced it records a span instead.
type sampler struct {
	mask    int
	lat     []int64
	ring    *spanRing // nil when untraced
	parent  uint64
	pushTag uint32
	popTag  uint32
}

func (s *sampler) add(push bool, start, end int64) {
	if s.ring == nil {
		s.lat = append(s.lat, end-start)
		return
	}
	name := s.popTag
	if push {
		name = s.pushTag
	}
	s.ring.add(s.parent, name, start, end)
}

// writeSpans writes every kept span as one JSON line, after a first line
// holding the run's stamp. The file is replaced on each traced run of the
// workload.
func writeSpans(path string, stamp map[string]any, rings []*spanRing, names []string) (kept, dropped uint64, err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(stamp); err != nil {
		return 0, 0, err
	}
	for _, r := range rings {
		dropped += r.dropped()
		for _, s := range r.kept() {
			kept++
			fmt.Fprintf(w, `{"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n", s.id, s.parent, names[s.name], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		return 0, 0, err
	}
	return kept, dropped, f.Close()
}
