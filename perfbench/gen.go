package main

import "math/rand/v2"

// Every key, value and operation a run sends is generated here from the
// seed, before any store is opened. The program under test only ever sees
// the generated keys and values.

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opDelete
	opScan
	numKinds
)

var kindNames = [numKinds]string{"get", "put", "delete", "scan"}

// op is one pre-generated operation. val is the value a put writes.
type op struct {
	kind opKind
	idx  uint32
	val  uint64
}

// Keys are spaced 16 apart so a scan can start strictly between two keys.
func keyOf(idx uint32) uint64 { return (uint64(idx) + 1) << 4 }

// idxOf inverts keyOf; ok is false for a key no run ever generates.
func idxOf(key uint64, n int) (uint32, bool) {
	if key&15 != 0 || key == 0 || key>>4 > uint64(n) {
		return 0, false
	}
	return uint32(key>>4 - 1), true
}

// A value carries its key's 31-bit tag in the high word, so a value
// returned under a foreign key is caught without any model state. The low
// word names the writer (0 = preload, w+1 = worker w) and the position of
// the put in that writer's stream, so every value can be traced back to
// the operation that wrote it. Tags stay below 2^31, so no value is the
// reserved ^uint64(0).
const (
	posBits    = 26
	writerBits = 6
	maxStream  = 1 << posBits
)

func tagOf(key uint64) uint64 {
	x := key * 0x9e3779b97f4a7c15
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 29
	return x >> 33
}

func makeVal(key uint64, writer, pos int) uint64 {
	return tagOf(key)<<32 | uint64(writer)<<posBits | uint64(pos)
}

func preloadVal(key uint64) uint64 { return makeVal(key, 0, 0) }

func splitVal(v uint64) (tag uint64, writer, pos int) {
	return v >> 32, int(v>>posBits) & (1<<writerBits - 1), int(v & (maxStream - 1))
}

// mix is an operation mix in per mille; the four shares add up to 1000.
type mix struct{ get, put, del, scan int }

func (m mix) draw(r *rand.Rand) opKind {
	x := r.IntN(1000)
	switch {
	case x < m.get:
		return opGet
	case x < m.get+m.put:
		return opPut
	case x < m.get+m.put+m.del:
		return opDelete
	default:
		return opScan
	}
}

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream*0x9e3779b97f4a7c15+1))
}
