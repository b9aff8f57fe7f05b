package main

import (
	"fmt"

	"eunomia"
)

// scanMax is the count of every scan, the kvserver `SCAN <from> <n>` form.
const scanMax = 16

// scanFrom starts a scan just below key idx, between two generated keys.
func scanFrom(idx uint32) uint64 { return keyOf(idx) - 8 }

type answer struct {
	v     uint64
	found bool
	pairs []kv
}

// do sends one operation through a public handle. buf is reused for scan
// results, so a scan's pairs are valid until the next scan on buf.
func do(h eunomia.Handle, o op, buf *[]kv) (answer, error) {
	var a answer
	var err error
	switch o.kind {
	case opGet:
		a.v, a.found, err = h.Get(keyOf(o.idx))
	case opPut:
		err = h.Put(keyOf(o.idx), o.val)
	case opDelete:
		a.found, err = h.Delete(keyOf(o.idx))
	case opScan:
		*buf = (*buf)[:0]
		_, err = h.Scan(scanFrom(o.idx), scanMax, func(k, v uint64) bool {
			*buf = append(*buf, kv{k, v})
			return true
		})
		a.pairs = *buf
	}
	return a, err
}

// checkOp checks one answer against the model as worker w sees it.
func checkOp(in *inputs, e expecter, w int, o op, a answer) string {
	switch o.kind {
	case opGet:
		return checkGet(in, e, w, o.idx, a.v, a.found)
	case opDelete:
		return checkDelete(e, w, o.idx, a.found)
	case opScan:
		return checkScan(in, e, w, scanFrom(o.idx), scanMax, a.pairs)
	}
	return ""
}

// sameAnswer reports whether two stores answered one op identically.
func sameAnswer(a, b answer) bool {
	if a.found != b.found || a.v != b.v || len(a.pairs) != len(b.pairs) {
		return false
	}
	for i := range a.pairs {
		if a.pairs[i] != b.pairs[i] {
			return false
		}
	}
	return true
}

// tally counts operations and the first few wrong answers of one worker.
type tally struct {
	attempted, failed, wrong uint64
	kinds                    [numKinds]uint64 // completed ops by kind
	notes                    []string
}

func (t *tally) note(s string) {
	if len(t.notes) < 5 {
		t.notes = append(t.notes, s)
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	for k, n := range o.kinds {
		t.kinds[k] += n
	}
	for _, s := range o.notes {
		t.note(s)
	}
}

// result records one finished op: an error fails it, a wrong answer fails
// it and makes the run incorrect.
func (t *tally) result(k opKind, err error, msg string) {
	t.attempted++
	switch {
	case err != nil:
		t.failed++
		t.note(err.Error())
	case msg != "":
		t.failed++
		t.wrong++
		t.note(msg)
	default:
		t.kinds[k]++
	}
}

// dump reads a store's whole contents in key order through one handle.
func dump(h eunomia.Handle) []kv {
	var out []kv
	for k, v := range h.Range(0, ^uint64(0)) {
		out = append(out, kv{k, v})
	}
	return out
}

// load writes pairs through the handles, one goroutine per handle.
func load(hs []eunomia.Handle, pairs []kv) error {
	errs := make(chan error, len(hs))
	for i, h := range hs {
		go func(i int, h eunomia.Handle) {
			var err error
			for j := i; j < len(pairs) && err == nil; j += len(hs) {
				err = h.Put(pairs[j].k, pairs[j].v)
			}
			errs <- err
		}(i, h)
	}
	var first error
	for range hs {
		if err := <-errs; err != nil && first == nil {
			first = fmt.Errorf("preload: %w", err)
		}
	}
	return first
}

// preloadPairs lists the preloaded pairs in ascending key order, the order
// the repository's figure harness preloads in, so the tree's shape does not
// depend on the seed.
func preloadPairs(in *inputs) []kv {
	var p []kv
	for idx, ok := range in.preloaded {
		if ok {
			k := keyOf(uint32(idx))
			p = append(p, kv{k, preloadVal(k)})
		}
	}
	return p
}
