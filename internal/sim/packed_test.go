package sim

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/delay"
)

func TestPackedPairsRoundTrip(t *testing.T) {
	const inputs, n = 70, 130 // >1 word per vector, partial final block
	var pp PackedPairs
	pp.Reset(inputs, n)
	if got, want := pp.Blocks(), 3; got != want {
		t.Fatalf("Blocks() = %d, want %d", got, want)
	}
	mk := func(seed uint64) []bool {
		v := make([]bool, inputs)
		x := seed
		for i := range v {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			v[i] = x&1 != 0
		}
		return v
	}
	want1 := make([][]bool, n)
	want2 := make([][]bool, n)
	for i := 0; i < n; i++ {
		want1[i] = mk(uint64(2*i + 1))
		want2[i] = mk(uint64(2*i + 2))
		pp.SetPair(i, want1[i], want2[i])
	}
	v1 := make([]bool, inputs)
	v2 := make([]bool, inputs)
	for i := 0; i < n; i++ {
		pp.PairInto(i, v1, v2)
		for j := 0; j < inputs; j++ {
			if v1[j] != want1[i][j] || v2[j] != want2[i][j] {
				t.Fatalf("pair %d input %d: got (%v,%v) want (%v,%v)", i, j, v1[j], v2[j], want1[i][j], want2[i][j])
			}
		}
		a, b := pp.Pair(i)
		for j := 0; j < inputs; j++ {
			if a[j] != want1[i][j] || b[j] != want2[i][j] {
				t.Fatalf("Pair(%d) mismatch at input %d", i, j)
			}
		}
	}
}

// packInputs is the reference lane packing: bit l of word j carries
// input j of vectors[l].
func packInputs(inputs int, vectors [][]bool) []uint64 {
	words := make([]uint64, inputs)
	for l, v := range vectors {
		for j, b := range v {
			if b {
				words[j] |= 1 << uint(l)
			}
		}
	}
	return words
}

func TestPackedPairsBlockLayoutMatchesPackInputs(t *testing.T) {
	// Block b's planes (words [b·Inputs, (b+1)·Inputs)) must be word for
	// word the reference lane packing of its vectors (unused lanes zero),
	// and the batch engine must read them as the scalar oracle reads the
	// vectors — that is the whole point of the format.
	c := bench.MustGenerate("C432")
	inputs := c.NumInputs()
	var pp PackedPairs
	const n = 100
	pp.Reset(inputs, n)
	vecs1 := make([][]bool, n)
	vecs2 := make([][]bool, n)
	for i := range vecs1 {
		v1 := make([]bool, inputs)
		v2 := make([]bool, inputs)
		for j := range v1 {
			v1[j] = (i+j)%3 == 0
			v2[j] = (i*j)%5 == 1
		}
		vecs1[i], vecs2[i] = v1, v2
		pp.SetPair(i, v1, v2)
	}
	for b := 0; b < pp.Blocks(); b++ {
		lanes := min(64, n-b*64)
		want1 := packInputs(inputs, vecs1[b*64:b*64+lanes])
		want2 := packInputs(inputs, vecs2[b*64:b*64+lanes])
		for j := 0; j < inputs; j++ {
			in1, in2 := pp.In1[b*inputs+j], pp.In2[b*inputs+j]
			if in1 != want1[j] || in2 != want2[j] {
				t.Fatalf("block %d input %d: plane (%#x,%#x) want (%#x,%#x)", b, j, in1, in2, want1[j], want2[j])
			}
		}
	}
	s := New(c, delay.Zero{})
	r := NewStriped(CompileModel(c, delay.Zero{}, CompileOptions{})).Run(&pp, 0)
	var dst []int32
	for i := 0; i < n; i++ {
		want := s.RunCycle(vecs1[i], vecs2[i])
		dst = r.Toggles(i/64, i%64, dst)
		for g := range want.Toggles {
			if dst[g] != want.Toggles[g] {
				t.Fatalf("pair %d gate %d: batch %d toggles, scalar %d", i, g, dst[g], want.Toggles[g])
			}
		}
	}
}

func TestPackedPairsResetReuses(t *testing.T) {
	var pp PackedPairs
	pp.Reset(32, 200)
	pp.In1[0] = ^uint64(0)
	pp.In2[0] = ^uint64(0)
	allocs := testing.AllocsPerRun(10, func() {
		pp.Reset(32, 200)
	})
	if allocs != 0 {
		t.Fatalf("Reset at steady state allocated %v times", allocs)
	}
	if pp.In1[0] != 0 || pp.In2[0] != 0 {
		t.Fatal("Reset did not clear planes")
	}
	// Shrinking batches reuse the same arrays; only growth reallocates.
	pp.Reset(32, 64)
	if got := len(pp.In1); got != 32 {
		t.Fatalf("plane length %d after shrink, want 32", got)
	}
	if pp.MemoryBytes() < 2*((200+63)/64)*32*8 {
		t.Fatalf("MemoryBytes %d lost the grown capacity", pp.MemoryBytes())
	}
}
