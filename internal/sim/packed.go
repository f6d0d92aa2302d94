package sim

import "fmt"

// PackedPairs is a batch of vector pairs in bit-plane form — the native
// currency of the sampling pipeline. Pairs are grouped into blocks of 64
// lanes; within block b, plane word In1[b*Inputs+i] carries primary input
// i across the block's 64 lanes, bit l holding pair (64b+l)'s first
// vector at input i (In2 likewise for the second vector). The batch
// engine reads blocks straight from these planes, with no per-call
// transpose or [][]bool materialization.
//
// Unused lanes of a partial final block stay zero in both planes, which
// the engines treat as inert (identical vectors toggle nothing).
//
// A PackedPairs owns its backing arrays and is reused across batches via
// Reset; it is not safe for concurrent mutation, but distinct blocks may
// be read concurrently (the parallel evaluation engine does).
type PackedPairs struct {
	// Inputs is the vector width (words per plane per block).
	Inputs int
	// N is the number of valid pairs in the batch.
	N int
	// In1, In2 are the bit-plane arrays, Blocks()*Inputs words each.
	In1, In2 []uint64
}

// Blocks returns the number of 64-lane blocks covering the batch.
func (p *PackedPairs) Blocks() int { return (p.N + 63) / 64 }

// Reset prepares the batch for inputs-wide pairs numbered 0..n-1: planes
// are grown as needed, the valid region is zeroed, and previous contents
// are discarded. It never shrinks the backing arrays, so a steady-state
// caller (one batch per hyper-sample, constant m·n) allocates only once.
func (p *PackedPairs) Reset(inputs, n int) {
	if inputs <= 0 || n < 0 {
		panic(fmt.Sprintf("sim: PackedPairs.Reset(%d, %d)", inputs, n))
	}
	p.Inputs = inputs
	p.N = n
	words := ((n + 63) / 64) * inputs
	if cap(p.In1) < words {
		p.In1 = make([]uint64, words)
		p.In2 = make([]uint64, words)
	}
	p.In1 = p.In1[:words]
	p.In2 = p.In2[:words]
	for i := range p.In1 {
		p.In1[i] = 0
		p.In2[i] = 0
	}
}

// SetPair packs the pair (v1, v2) into slot i. Both vectors must be
// Inputs wide. It is the [][]bool → bit-plane adapter used by callers
// whose generators cannot write planes directly.
func (p *PackedPairs) SetPair(i int, v1, v2 []bool) {
	if len(v1) != p.Inputs || len(v2) != p.Inputs {
		panic(fmt.Sprintf("sim: SetPair width %d/%d, want %d", len(v1), len(v2), p.Inputs))
	}
	base := (i / 64) * p.Inputs
	bit := uint64(1) << uint(i&63)
	for j := 0; j < p.Inputs; j++ {
		if v1[j] {
			p.In1[base+j] |= bit
		} else {
			p.In1[base+j] &^= bit
		}
		if v2[j] {
			p.In2[base+j] |= bit
		} else {
			p.In2[base+j] &^= bit
		}
	}
}

// Pair unpacks slot i into freshly allocated vectors — the bit-plane →
// [][]bool adapter for inspection paths (Population.Pair, the scalar
// fallback oracle). Not for hot loops.
func (p *PackedPairs) Pair(i int) (v1, v2 []bool) {
	if i < 0 || i >= p.N {
		panic(fmt.Sprintf("sim: pair %d out of %d", i, p.N))
	}
	v1 = make([]bool, p.Inputs)
	v2 = make([]bool, p.Inputs)
	p.PairInto(i, v1, v2)
	return v1, v2
}

// PairInto unpacks slot i into caller-provided vectors of width Inputs.
func (p *PackedPairs) PairInto(i int, v1, v2 []bool) {
	if len(v1) != p.Inputs || len(v2) != p.Inputs {
		panic(fmt.Sprintf("sim: PairInto width %d/%d, want %d", len(v1), len(v2), p.Inputs))
	}
	base := (i / 64) * p.Inputs
	shift := uint(i & 63)
	for j := 0; j < p.Inputs; j++ {
		v1[j] = p.In1[base+j]>>shift&1 != 0
		v2[j] = p.In2[base+j]>>shift&1 != 0
	}
}

// MemoryBytes reports the backing-array footprint — the number the
// population cache sizing argument rests on (∼2·Inputs·Blocks·8 bytes,
// i.e. 2 bits per input bit versus 2 bytes on the [][]bool path).
func (p *PackedPairs) MemoryBytes() int {
	return (cap(p.In1) + cap(p.In2)) * 8
}
