package main

import (
	"fmt"

	"eunomia/internal/vclock"
	"eunomia/internal/workload"
)

// The correctness model is kept apart from the program: it is built from
// the generated inputs alone, before the timed phase, and the only state it
// updates while timing runs is each worker's own dense array, which that
// worker alone touches.

// absent marks "no value" in the model. It is the reserved tombstone value
// that no Put can store, so it never collides with a real value.
const absent = ^uint64(0)

type kv struct{ k, v uint64 }

// inputs is what every model knows: the key space, the per-writer op
// streams and what the preload stored.
type inputs struct {
	n         int
	streams   [][]op
	preloaded []bool
	deletable []bool // some stream deletes the key
	written   []bool // some stream puts or deletes the key
}

func (in *inputs) index() {
	in.deletable = make([]bool, in.n)
	in.written = make([]bool, in.n)
	for _, s := range in.streams {
		for _, o := range s {
			switch o.kind {
			case opPut:
				in.written[o.idx] = true
			case opDelete:
				in.written[o.idx] = true
				in.deletable[o.idx] = true
			}
		}
	}
}

// origin reports why v cannot be a value the store holds under idx, or ""
// if it can: either the preload stored it, or the writer named in v's low
// word put exactly this value on this key at the position it names.
func (in *inputs) origin(idx uint32, v uint64) string {
	key := keyOf(idx)
	tag, writer, pos := splitVal(v)
	if tag != tagOf(key) {
		return fmt.Sprintf("key %d returned value %#x carrying another key's tag", key, v)
	}
	if writer == 0 {
		if !in.preloaded[idx] || v != preloadVal(key) {
			return fmt.Sprintf("key %d returned preload-like value %#x it was never preloaded with", key, v)
		}
		return ""
	}
	if writer > len(in.streams) || pos >= len(in.streams[writer-1]) {
		return fmt.Sprintf("key %d returned value %#x from an unknown writer", key, v)
	}
	if o := in.streams[writer-1][pos]; o.kind != opPut || o.idx != idx || o.val != v {
		return fmt.Sprintf("key %d returned value %#x that writer %d never put on it", key, v, writer-1)
	}
	return ""
}

// expecter tells a checker what a worker knows exactly about a key at this
// moment: ok is true when the key's state is certain (val == absent means
// it must be missing), false when only origin can be checked.
type expecter interface {
	expect(w int, idx uint32) (val uint64, ok bool)
}

func checkGet(in *inputs, e expecter, w int, idx uint32, v uint64, found bool) string {
	key := keyOf(idx)
	if want, ok := e.expect(w, idx); ok {
		switch {
		case want == absent && found:
			return fmt.Sprintf("get %d: found %#x, model says absent", key, v)
		case want != absent && !found:
			return fmt.Sprintf("get %d: absent, model holds %#x", key, want)
		case found && v != want:
			return fmt.Sprintf("get %d: got %#x, model holds %#x (stale or foreign value)", key, v, want)
		}
		return ""
	}
	if !found {
		if in.preloaded[idx] && !in.deletable[idx] {
			return fmt.Sprintf("get %d: absent, but it was preloaded and nothing deletes it", key)
		}
		return ""
	}
	return in.origin(idx, v)
}

func checkDelete(e expecter, w int, idx uint32, found bool) string {
	if want, ok := e.expect(w, idx); ok && found != (want != absent) {
		return fmt.Sprintf("delete %d: reported found=%v, model says present=%v", keyOf(idx), found, want != absent)
	}
	return ""
}

// checkScan checks a count-limited scan from `from`: the answer is sorted,
// starts at from, holds at most max pairs, every pair passes origin, and
// every key whose state the model knows exactly is present with its exact
// value (or missing) across the whole interval the scan covered.
func checkScan(in *inputs, e expecter, w int, from uint64, max int, got []kv) string {
	if len(got) > max {
		return fmt.Sprintf("scan %d/%d: returned %d pairs", from, max, len(got))
	}
	for i, p := range got {
		if p.k < from || (i > 0 && p.k <= got[i-1].k) {
			return fmt.Sprintf("scan %d/%d: key %d out of order", from, max, p.k)
		}
		idx, ok := idxOf(p.k, in.n)
		if !ok {
			return fmt.Sprintf("scan %d/%d: returned key %d that no run writes", from, max, p.k)
		}
		if want, exact := e.expect(w, idx); exact && p.v != want {
			return fmt.Sprintf("scan %d/%d: key %d returned %#x, model holds %#x", from, max, p.k, p.v, want)
		}
		if msg := in.origin(idx, p.v); msg != "" {
			return "scan: " + msg
		}
	}
	// The scan covered [from, last returned key] when it filled up, and
	// everything from `from` on when it did not.
	hi := uint32(in.n - 1)
	if len(got) == max && max > 0 {
		hi, _ = idxOf(got[len(got)-1].k, in.n)
	}
	lo := uint32((from + 15) >> 4)
	if lo > 0 {
		lo--
	}
	j := 0
	for idx := lo; idx <= hi && int(idx) < in.n; idx++ {
		key := keyOf(idx)
		for j < len(got) && got[j].k < key {
			j++
		}
		want, exact := e.expect(w, idx)
		if !exact || want == absent {
			continue
		}
		if j == len(got) || got[j].k != key {
			return fmt.Sprintf("scan %d/%d: key %d (model holds %#x) missing from the covered range", from, max, key, want)
		}
	}
	return ""
}

// checkContents compares a store's whole contents, as one ascending list,
// against the contents the model expects for every key; want returns the
// candidate states of idx (absent included).
func checkContents(n int, got []kv, want func(idx uint32) []uint64) []string {
	var bad []string
	report := func(s string) {
		if len(bad) < 8 {
			bad = append(bad, s)
		}
	}
	j := 0
	for idx := uint32(0); int(idx) < n; idx++ {
		key := keyOf(idx)
		for j < len(got) && got[j].k < key {
			report(fmt.Sprintf("contents: unexpected key %d", got[j].k))
			j++
		}
		have := absent
		if j < len(got) && got[j].k == key {
			have = got[j].v
			j++
		}
		ok := false
		cands := want(idx)
		for _, c := range cands {
			ok = ok || c == have
		}
		if !ok {
			report(fmt.Sprintf("contents: key %d holds %#x, want one of %#x", key, have, cands))
		}
	}
	for ; j < len(got); j++ {
		report(fmt.Sprintf("contents: unexpected key %d", got[j].k))
	}
	return bad
}

// hostModel is the model of host-uniform. Key index idx belongs
// to class idx % (workers+2): class 0 is static (preloaded, never written),
// class w+1 is owned by worker w (only w writes it), and the last class is
// never written at all. Each worker's keys sit in a dense array.
type hostModel struct {
	inputs
	workers int
	own     [][]uint64 // own[w][idx/(workers+2)]
}

func (m *hostModel) classes() int           { return m.workers + 2 }
func (m *hostModel) class(idx uint32) int   { return int(idx) % m.classes() }
func (m *hostModel) slot(idx uint32) uint32 { return idx / uint32(m.classes()) }

func newHostModel(seed uint64, n, workers, streamLen int, mx mix) *hostModel {
	m := &hostModel{workers: workers}
	m.n = n - n%m.classes()
	m.preloaded = make([]bool, m.n)
	m.own = make([][]uint64, workers)
	for w := range m.own {
		m.own[w] = make([]uint64, m.n/m.classes())
	}
	pr := newRand(seed, 1000)
	for idx := uint32(0); int(idx) < m.n; idx++ {
		switch c := m.class(idx); {
		case c == 0:
			m.preloaded[idx] = true
		case c <= workers:
			m.preloaded[idx] = pr.IntN(2) == 0
			m.own[c-1][m.slot(idx)] = m.initial(idx)
		}
	}
	m.streams = make([][]op, workers)
	for w := range m.streams {
		r := newRand(seed, uint64(w)+1)
		s := make([]op, streamLen)
		for i := range s {
			o := op{kind: mx.draw(r), idx: uint32(r.IntN(m.n))}
			if o.kind == opPut || o.kind == opDelete {
				// Writes go to the worker's own key nearest the draw.
				o.idx = o.idx - uint32(m.class(o.idx)) + uint32(w+1)
				if int(o.idx) >= m.n {
					o.idx -= uint32(m.classes())
				}
			}
			if o.kind == opPut {
				o.val = makeVal(keyOf(o.idx), w+1, i)
			}
			s[i] = o
		}
		m.streams[w] = s
	}
	m.index()
	return m
}

func (m *hostModel) expect(w int, idx uint32) (uint64, bool) {
	switch c := m.class(idx); {
	case c == 0:
		return preloadVal(keyOf(idx)), true
	case c == w+1:
		return m.own[w][m.slot(idx)], true
	case c == m.workers+1:
		return absent, true
	}
	return 0, false
}

// apply records a completed write of worker w.
func (m *hostModel) apply(w int, o op) {
	switch o.kind {
	case opPut:
		m.own[w][m.slot(o.idx)] = o.val
	case opDelete:
		m.own[w][m.slot(o.idx)] = absent
	}
}

// contents is the exact state the model holds for every key.
func (m *hostModel) contents(idx uint32) []uint64 {
	if c := m.class(idx); c >= 1 && c <= m.workers {
		return []uint64{m.own[c-1][m.slot(idx)]}
	}
	v, _ := m.expect(0, idx)
	return []uint64{v}
}

// pairs lists the model's present pairs in key order, which the durable
// restart loads.
func (m *hostModel) pairs() []kv {
	var out []kv
	for idx := uint32(0); int(idx) < m.n; idx++ {
		if v := m.contents(idx)[0]; v != absent {
			out = append(out, kv{keyOf(idx), v})
		}
	}
	return out
}

// zipfModel is the model of paper-zipf: the keys are shared by all
// threads, which draw from one Zipfian. A key no stream writes must keep
// its preload state; a written key must end in the state left by the last
// write some thread made to it (settle computes those).
type zipfModel struct {
	inputs
	last map[uint32][]uint64 // per written key: each stream's last write (absent = delete)
}

// newZipfModel draws each thread's stream from the repository's YCSB
// generator and op stream (internal/workload, the figure harness's inputs):
// rank r is key index r, so the hottest keys are adjacent in key order.
// Every key is preloaded.
func newZipfModel(seed uint64, n, threads, streamLen int, theta float64, mx workload.Mix) *zipfModel {
	m := &zipfModel{}
	m.n = n
	m.preloaded = make([]bool, n)
	for i := range m.preloaded {
		m.preloaded[i] = true
	}
	spec := workload.Spec{Kind: workload.Zipfian, N: uint64(n), Theta: theta}
	kinds := map[workload.OpKind]opKind{
		workload.OpGet: opGet, workload.OpPut: opPut, workload.OpDelete: opDelete, workload.OpScan: opScan,
	}
	m.streams = make([][]op, threads)
	for t := range m.streams {
		r := vclock.NewRand(newRand(seed, uint64(t)+1).Uint64())
		st := workload.NewStream(spec, mx)
		s := make([]op, streamLen)
		for i := range s {
			wo := st.Next(r)
			o := op{kind: kinds[wo.Kind], idx: uint32(wo.Key - workload.KeyOfRank(0))}
			if o.kind == opPut {
				o.val = makeVal(keyOf(o.idx), t+1, i)
			}
			s[i] = o
		}
		m.streams[t] = s
	}
	m.index()
	return m
}

// settle records, after the timed phase, the last write each stream made
// to each key when rounds rounds ran, round r replaying section r mod
// sections (roundOps ops long) of every stream.
func (m *zipfModel) settle(rounds, roundOps int) {
	sections := len(m.streams[0]) / roundOps
	m.last = map[uint32][]uint64{}
	for _, s := range m.streams {
		lastOf := map[uint32]uint64{}
		// Walk the executed rounds backwards; the first write met to a
		// key is the stream's last one. Only the latest pass over each
		// section matters.
		for r := rounds - 1; r >= 0 && r >= rounds-sections; r-- {
			sec := s[(r%sections)*roundOps : (r%sections+1)*roundOps]
			for i := len(sec) - 1; i >= 0; i-- {
				o := sec[i]
				if _, seen := lastOf[o.idx]; seen {
					continue
				}
				switch o.kind {
				case opPut:
					lastOf[o.idx] = o.val
				case opDelete:
					lastOf[o.idx] = absent
				}
			}
		}
		for idx, v := range lastOf {
			m.last[idx] = append(m.last[idx], v)
		}
	}
}

func (m *zipfModel) expect(_ int, idx uint32) (uint64, bool) {
	if !m.written[idx] {
		return m.initial(idx), true
	}
	return 0, false
}

// initial is the state the preload left idx in.
func (in *inputs) initial(idx uint32) uint64 {
	if in.preloaded[idx] {
		return preloadVal(keyOf(idx))
	}
	return absent
}

func (m *zipfModel) contents(idx uint32) []uint64 {
	if c, ok := m.last[idx]; ok {
		return c
	}
	return []uint64{m.initial(idx)}
}

// reset returns every worker's array to the preloaded state, for a second
// pass over the same streams on a freshly preloaded store.
func (m *hostModel) reset() {
	for idx := uint32(0); int(idx) < m.n; idx++ {
		if c := m.class(idx); c >= 1 && c <= m.workers {
			m.own[c-1][m.slot(idx)] = m.initial(idx)
		}
	}
}

// exactModel holds the one state each key must be in, for a store whose
// contents are known exactly and that one writer at a time changes.
type exactModel []uint64

func (e exactModel) expect(_ int, idx uint32) (uint64, bool) { return e[idx], true }

func (e exactModel) contents(idx uint32) []uint64 { return []uint64{e[idx]} }

func (e exactModel) apply(o op) {
	switch o.kind {
	case opPut:
		e[o.idx] = o.val
	case opDelete:
		e[o.idx] = absent
	}
}
