package main

import (
	"encoding/json"
	"os"
	"testing"

	"eunomia/internal/workload"
)

// The checker's self-test: every planted wrong answer must be flagged, and
// the matching right answer must pass, so a quiet checker means something.

func smallHostModel(t *testing.T) *hostModel {
	t.Helper()
	m := newHostModel(7, 4000, 2, 5000, mix{get: 400, put: 300, del: 200, scan: 100})
	if m.n != 4000 {
		t.Fatalf("key space %d, want 4000", m.n)
	}
	return m
}

// firstPut returns the first put of worker w's stream to a key whose
// preload state is the given one.
func firstPut(m *hostModel, w int, preloaded bool) (int, op) {
	for pos, o := range m.streams[w] {
		if o.kind == opPut && m.preloaded[o.idx] == preloaded {
			return pos, o
		}
	}
	panic("no such put")
}

func TestCheckerFlagsStaleValue(t *testing.T) {
	m := smallHostModel(t)
	_, o := firstPut(m, 0, true)
	old := preloadVal(keyOf(o.idx))
	m.apply(0, o)
	if msg := checkGet(&m.inputs, m, 0, o.idx, o.val, true); msg != "" {
		t.Fatalf("current value flagged: %s", msg)
	}
	if msg := checkGet(&m.inputs, m, 0, o.idx, old, true); msg == "" {
		t.Fatal("stale value after an acknowledged put not flagged")
	}
	// The same stale pair inside a scan.
	got := expectedScan(m, o.idx)
	for i := range got {
		if got[i].k == keyOf(o.idx) {
			got[i].v = old
		}
	}
	if msg := checkScan(&m.inputs, m, 0, scanFrom(o.idx), scanMax, got); msg == "" {
		t.Fatal("stale value inside a scan not flagged")
	}
	// A delete that reports the wrong presence.
	if msg := checkDelete(m, 0, o.idx, false); msg == "" {
		t.Fatal("delete of a present key reporting absent not flagged")
	}
}

func TestCheckerFlagsForeignTag(t *testing.T) {
	m := smallHostModel(t)
	// A key of worker 1 seen by worker 0: only the value's origin can be
	// checked, and a value carrying another key's tag must fail it.
	_, o := firstPut(m, 1, true)
	if msg := checkGet(&m.inputs, m, 0, o.idx, o.val, true); msg != "" {
		t.Fatalf("value worker 1 put flagged: %s", msg)
	}
	other := o.idx - uint32(m.classes())
	foreign := preloadVal(keyOf(other))
	if msg := checkGet(&m.inputs, m, 0, o.idx, foreign, true); msg == "" {
		t.Fatal("value of another key not flagged")
	}
	// A value with the right tag that its named writer never put.
	forged := makeVal(keyOf(o.idx), 2, 3)
	if msg := checkGet(&m.inputs, m, 0, o.idx, forged, true); msg == "" {
		t.Fatal("value no writer put not flagged")
	}
}

// expectedScan builds the right answer to a scan from idx.
func expectedScan(m *hostModel, idx uint32) []kv {
	var got []kv
	for i := idx; int(i) < m.n && len(got) < scanMax; i++ {
		v := m.contents(i)[0]
		if v != absent {
			got = append(got, kv{keyOf(i), v})
		}
	}
	return got
}

func TestCheckerFlagsStaticKeyMissingFromScan(t *testing.T) {
	m := smallHostModel(t)
	idx := uint32(m.classes() * 10) // a static key
	if m.class(idx) != 0 {
		t.Fatal("idx is not static")
	}
	got := expectedScan(m, idx)
	if msg := checkScan(&m.inputs, m, 0, scanFrom(idx), scanMax, got); msg != "" {
		t.Fatalf("right scan flagged: %s", msg)
	}
	if got[0].k != keyOf(idx) {
		t.Fatal("scan does not start at the static key")
	}
	if msg := checkScan(&m.inputs, m, 0, scanFrom(idx), scanMax, got[1:]); msg == "" {
		t.Fatal("static key missing from a scan not flagged")
	}
	// Out of order and over-long answers.
	swapped := append([]kv(nil), got...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if msg := checkScan(&m.inputs, m, 0, scanFrom(idx), scanMax, swapped); msg == "" {
		t.Fatal("unsorted scan not flagged")
	}
	if msg := checkScan(&m.inputs, m, 0, scanFrom(idx), 4, got[:5]); msg == "" {
		t.Fatal("scan longer than its count not flagged")
	}
}

func TestCheckerFlagsLostDurableWrite(t *testing.T) {
	m := smallHostModel(t)
	_, o := firstPut(m, 1, false)
	m.apply(1, o) // acknowledged: Put returned
	all := m.pairs()
	if bad := checkContents(m.n, all, m.contents); len(bad) != 0 {
		t.Fatalf("right contents flagged: %v", bad)
	}
	var lost []kv
	for _, p := range all {
		if p.k != keyOf(o.idx) {
			lost = append(lost, p)
		}
	}
	if bad := checkContents(m.n, lost, m.contents); len(bad) != 1 {
		t.Fatalf("lost acknowledged write: %d findings, want 1", len(bad))
	}
}

func TestCheckerZipfFinalState(t *testing.T) {
	m := newZipfModel(3, 1000, 4, 400, 0.99, smallZipfMix)
	// A value a stream overwrote later is no stream's last write, so it is
	// not an admissible final state (unless another stream ended on it).
	for _, s := range m.streams {
		first := map[uint32]uint64{}
		for _, o := range s {
			if o.kind != opPut {
				continue
			}
			v, again := first[o.idx]
			if !again {
				first[o.idx] = o.val
				continue
			}
			cands := m.contents(o.idx)
			if contains(cands, v) {
				continue
			}
			want := func(idx uint32) []uint64 {
				if idx == o.idx {
					return cands
				}
				return []uint64{absent}
			}
			if c := cands[0]; c != absent {
				if bad := checkContents(m.n, []kv{{keyOf(o.idx), c}}, want); len(bad) != 0 {
					t.Fatalf("admissible final state flagged: %v", bad)
				}
			}
			if bad := checkContents(m.n, []kv{{keyOf(o.idx), v}}, want); len(bad) != 1 {
				t.Fatalf("overwritten value as final state: %d findings, want 1", len(bad))
			}
			return
		}
	}
	t.Fatal("no key is put twice by one stream")
}

var smallZipfMix = workload.Mix{GetPct: 40, PutPct: 30, DeletePct: 28, ScanPct: 2, ScanLen: scanMax}

func contains(xs []uint64, x uint64) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func TestCheckerZipfUntouchedKeys(t *testing.T) {
	m := newZipfModel(3, 1000, 4, 400, 0.99, smallZipfMix)
	idx := uint32(m.n - 1)
	for m.written[idx] {
		idx--
	}
	if msg := checkGet(&m.inputs, m, 0, idx, 0, false); msg == "" {
		t.Fatal("untouched preloaded key reported absent not flagged")
	}
	if msg := checkGet(&m.inputs, m, 0, idx, preloadVal(keyOf(idx)), true); msg != "" {
		t.Fatalf("untouched key flagged: %s", msg)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metrics the program prints
// and the ones BENCHMARK.json declares identical, names and units.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, defs []metricDef, decl []struct{ Name, Unit string }) {
		if len(defs) != len(decl) {
			t.Fatalf("%s: program prints %d metrics, BENCHMARK.json declares %d", what, len(defs), len(decl))
		}
		for i := range defs {
			if defs[i].name != decl[i].Name || defs[i].unit != decl[i].Unit {
				t.Errorf("%s %d: program %v, BENCHMARK.json %v", what, i, defs[i], decl[i])
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
}
