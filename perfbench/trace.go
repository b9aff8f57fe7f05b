package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"
)

// The traced run records spans from the benchmark's own calls into each
// layer's public functions: name, start, end, parent span and op id. They
// are kept in memory and written out when the run ends. Durations also go
// into per-name histograms as each span ends, so the per-layer figures
// cover every span even when the buffer that feeds the file is full.

type span struct {
	id, parent uint64
	op         uint64 // worker<<32 | position in its stream; 0 for lifecycle spans
	name       string
	start, end int64 // ns since the run began
}

// spanCap bounds the spans one recorder keeps for the trace file.
const spanCap = 1 << 16

type tracer struct {
	base time.Time
	mu   sync.Mutex
	next uint64
	// lifecycle spans (open, preload, Sync, Snapshot, Close, reopen, ...)
	life []span
	recs []*recorder
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a lifecycle span; the returned function ends it and returns
// its id. A nil tracer records nothing.
func (t *tracer) begin(name string, parent uint64) (id uint64, end func()) {
	if t == nil {
		return 0, func() {}
	}
	t.mu.Lock()
	t.next++
	id = t.next
	t.mu.Unlock()
	start := t.now()
	return id, func() {
		s := span{id: id, parent: parent, name: name, start: start, end: t.now()}
		t.mu.Lock()
		t.life = append(t.life, s)
		t.mu.Unlock()
	}
}

// recorder is one worker's span buffer; it is used by one goroutine.
type recorder struct {
	worker  uint64
	parent  uint64
	seq     uint64
	spans   []span
	dropped uint64
	lat     map[string]*hist
}

func (t *tracer) recorder(worker int, parent uint64) *recorder {
	r := &recorder{worker: uint64(worker), parent: parent, lat: map[string]*hist{}}
	t.mu.Lock()
	t.recs = append(t.recs, r)
	t.mu.Unlock()
	return r
}

// record stores one op span that ran from start to end (ns since base).
func (r *recorder) record(name string, pos int, start, end int64) {
	h := r.lat[name]
	if h == nil {
		h = &hist{}
		r.lat[name] = h
	}
	h.add(end - start)
	r.seq++
	if len(r.spans) == spanCap {
		r.dropped++
		return
	}
	r.spans = append(r.spans, span{
		id:     (r.worker+1)<<40 | r.seq,
		parent: r.parent,
		op:     r.worker<<32 | uint64(pos),
		name:   name,
		start:  start,
		end:    end,
	})
}

// latency merges every recorder's histogram of one span name.
func (t *tracer) latency(name string) *hist {
	var h hist
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range t.recs {
		if x := r.lat[name]; x != nil {
			h.merge(x)
		}
	}
	return &h
}

// write stores every kept span as one JSON object per line.
func (t *tracer) write(path string) (kept int, dropped uint64, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	all := append([]span(nil), t.life...)
	for _, r := range t.recs {
		all = append(all, r.spans...)
		dropped += r.dropped
	}
	t.mu.Unlock()
	for _, s := range all {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"op":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.id, s.parent, s.op, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, 0, fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, 0, fmt.Errorf("close trace: %w", err)
	}
	return len(all), dropped, nil
}
