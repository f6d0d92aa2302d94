package sim

import (
	"fmt"
	"math/bits"
)

// StripedResult holds the per-lane outcomes of one Speculative.Run, in
// the shape of W·64 scalar Results. Lane addressing is (word k, lane l)
// = pair k·64+l of the stripe; lanes beyond the packed batch stay inert.
//
// Aliasing contract: the result and every slice in it are owned by the
// engine and overwritten by the next Run on the same executor — hold no
// reference across runs. Toggles copies counts out into a caller-owned
// slice and is the safe way to keep them, exactly like
// Result.CopyToggles on the scalar path.
type StripedResult struct {
	// W is the stripe capacity in words; AW the words active this run.
	// Per-slot arrays are packed at AW words per slot.
	W, AW int
	// NSlots is the number of compiled slots: one per gate of the
	// circuit, slot s holding gate s.
	NSlots int
	// Any[slot·AW+k] is the mask of word-k lanes where the slot's gate
	// toggled at least once during the cycle; Multi the lanes where it
	// toggled more than once (nil on the glitch-free zero-delay kernel).
	Any   []uint64
	Multi []uint64
	// SettleTime[k·64+l] is lane (k,l)'s last value change in ps, and
	// Events[k·64+l] its total applied value changes — only populated
	// when the engine's LaneStats is set.
	SettleTime []int64
	Events     []int

	// planes holds the per-lane toggle counters as bit planes, level-major
	// at [lvl·stride + slot·AW + k] (level l = count bit l); ovAny is the
	// per-word union of every level ≥ 2 — the lanes whose counts reached
	// 4, which is what lets Count and the power accumulation settle
	// everything below that from the first two planes alone.
	planes []uint64
	ovAny  []uint64
	levels int
	stride int
	zero   bool // zero-delay kernel: counts are 0/1, encoded in Any alone
}

// Count returns the toggle count of the gate at slot in lane (word, lane)
// — the striped equivalent of Result.Toggles[gate].
func (r *StripedResult) Count(slot, word, lane int) int32 {
	idx := slot*r.AW + word
	if r.zero {
		return int32(r.Any[idx] >> uint(lane) & 1)
	}
	if r.ovAny[idx]>>uint(lane)&1 != 0 {
		var n int32
		for k := 0; k < r.levels; k++ {
			n |= int32(r.planes[k*r.stride+idx]>>uint(lane)&1) << uint(k)
		}
		return n
	}
	// Count ≤ 3: the first two planes are the whole number.
	n := int32(r.planes[idx] >> uint(lane) & 1)
	if r.levels > 1 {
		n |= int32(r.planes[r.stride+idx]>>uint(lane)&1) << 1
	}
	return n
}

// CountBits returns word-wide views of the toggle counters for one
// (slot, word): b0 is count bit 0 and ov the lanes whose counts overflow
// into the ≥ 4 range. Multi lanes outside ov therefore count exactly
// 2 + b0-bit — the word-parallel shortcut the power accumulation uses
// instead of per-lane Count walks. Zero-delay results have no counters;
// their counts live in Any alone.
func (r *StripedResult) CountBits(slot, word int) (b0, ov uint64) {
	if r.zero || r.levels == 0 {
		return 0, 0
	}
	idx := slot*r.AW + word
	return r.planes[idx], r.ovAny[idx]
}

// MultiMask returns the lanes of word where the slot's gate toggled more
// than once (the glitching lanes); always zero for the glitch-free
// zero-delay kernel.
func (r *StripedResult) MultiMask(slot, word int) uint64 {
	if r.zero {
		return 0
	}
	return r.Multi[slot*r.AW+word]
}

// Toggles expands one lane's per-gate toggle counts into dst (grown as
// needed), indexed by gate id like the scalar Result.Toggles. The
// returned slice is caller-owned: unlike Any/SettleTime/Events it does
// not alias engine state and survives subsequent Run calls.
func (r *StripedResult) Toggles(word, lane int, dst []int32) []int32 {
	if cap(dst) < r.NSlots {
		dst = make([]int32, r.NSlots)
	}
	dst = dst[:r.NSlots]
	for g := range dst {
		dst[g] = r.Count(g, word, lane)
	}
	return dst
}

// grow reallocates the per-word state for stripes of up to aw words.
// Fresh arrays are all-zero, which is every invariant prepare restores
// on a reshape (Any/Multi tails clear).
func (sp *Speculative) grow(aw int) {
	p := sp.p
	words := p.nGates * aw
	sp.words = aw
	sp.val = make([]uint64, words)
	sp.aux = make([]uint64, words)
	sp.res.Any = make([]uint64, words)
	if p.zeroDelay {
		return
	}
	sp.offs = make([]int32, words+1)
	sp.ends = make([]int32, words+1)
	sp.res.Multi = make([]uint64, words)
	// Two full counter planes up front: every timed run has both count
	// bits resident, so the aggregation pass and CountBits never branch on
	// missing levels; deeper levels (counts ≥ 4) still grow lazily.
	sp.res.planes = make([]uint64, 0, 2*words)
	sp.res.ovAny = make([]uint64, words)
}

// stripeRange maps a stripe index to its block range: W blocks from
// stripe·W, clipped to the batch.
func (sp *Speculative) stripeRange(pp *PackedPairs, stripe int) (b0, nb int) {
	w := sp.p.w
	blocks := pp.Blocks()
	b0 = stripe * w
	if stripe < 0 || b0 >= blocks {
		panic(fmt.Sprintf("sim: stripe %d of %d-block batch", stripe, blocks))
	}
	return b0, min(w, blocks-b0)
}

// prepare validates the block range b0 … b0+aw−1, whose length is the
// active word count, and reshapes the run state to it.
func (sp *Speculative) prepare(pp *PackedPairs, b0, aw int) {
	p := sp.p
	if pp.Inputs != p.c.NumInputs() {
		panic(fmt.Sprintf("sim: packed batch width %d, circuit has %d inputs", pp.Inputs, p.c.NumInputs()))
	}
	if blocks := pp.Blocks(); b0 < 0 || aw < 1 || aw > p.w || b0+aw > blocks {
		panic(fmt.Sprintf("sim: blocks [%d, %d) of %d-block batch at stripe width %d", b0, b0+aw, blocks, p.w))
	}
	if aw > sp.words {
		sp.grow(aw)
	}
	sp.aw = aw
	sp.stride = p.nGates * aw
	sp.res.AW = aw
	sp.res.stride = sp.stride
	if aw != sp.lastAW {
		// Reshape: pre-multiply the fan-in slot ids by the new word count.
		a := uint64(aw)
		for s, fab := range p.fab {
			sp.fabRun[s] = uint64(uint32(fab))*a | (fab>>32)*a<<32
		}
		// The aggregation pass assigns Any/Multi only inside the active
		// stride, so a shrink leaves the old shape's tail words behind;
		// clear them once here so lanes beyond the batch always read zero.
		for i := sp.stride; i < len(sp.res.Any); i++ {
			sp.res.Any[i] = 0
		}
		for i := sp.stride; i < len(sp.res.Multi); i++ {
			sp.res.Multi[i] = 0
		}
		sp.lastAW = aw
	}
}

// loadInputs gathers the stripe's input plane words (blocks b0…b0+aw−1)
// into the value array.
func (sp *Speculative) loadInputs(vals, plane []uint64, b0 int) {
	p := sp.p
	aw := sp.aw
	inp := p.c.NumInputs()
	for i, g := range p.c.Inputs {
		base := g * aw
		off := b0*inp + i
		for k := 0; k < aw; k++ {
			vals[base+k] = plane[off+k*inp]
		}
	}
}

// settle runs the straight-line settle program over the active words of
// vals — the compiled, striped form of Simulator.settleInto. Instructions
// are in levelized order; input slots carry no instruction.
func (sp *Speculative) settle(vals []uint64) {
	p := sp.p
	aw := sp.aw
	for s := 0; s < p.nGates; s++ {
		op := p.fop[s]
		if op == fopInput {
			continue
		}
		fab := sp.fabRun[s]
		oa := int(uint32(fab))
		ob := int(fab >> 32)
		base := s * aw
		switch op {
		case fopAnd2:
			for k := 0; k < aw; k++ {
				vals[base+k] = vals[oa+k] & vals[ob+k]
			}
		case fopNand2:
			for k := 0; k < aw; k++ {
				vals[base+k] = ^(vals[oa+k] & vals[ob+k])
			}
		case fopOr2:
			for k := 0; k < aw; k++ {
				vals[base+k] = vals[oa+k] | vals[ob+k]
			}
		case fopNor2:
			for k := 0; k < aw; k++ {
				vals[base+k] = ^(vals[oa+k] | vals[ob+k])
			}
		case fopXor2:
			for k := 0; k < aw; k++ {
				vals[base+k] = vals[oa+k] ^ vals[ob+k]
			}
		case fopXnor2:
			for k := 0; k < aw; k++ {
				vals[base+k] = ^(vals[oa+k] ^ vals[ob+k])
			}
		default:
			sp.settleWide(vals, s, base)
		}
	}
}

// settleWide is the ≥3-fan-in settle fallback, kept out of settle so the
// dominant fused cases stay compact.
func (sp *Speculative) settleWide(vals []uint64, s, base int) {
	p := sp.p
	aw := sp.aw
	lo, hi := int(p.faninOff[s]), int(p.faninOff[s+1])
	op := p.fop[s]
	for k := 0; k < aw; k++ {
		acc := vals[int(p.faninIdx[lo])*aw+k]
		switch op {
		case fopAndN, fopNandN:
			for _, fo := range p.faninIdx[lo+1 : hi] {
				acc &= vals[int(fo)*aw+k]
			}
			if op == fopNandN {
				acc = ^acc
			}
		case fopOrN, fopNorN:
			for _, fo := range p.faninIdx[lo+1 : hi] {
				acc |= vals[int(fo)*aw+k]
			}
			if op == fopNorN {
				acc = ^acc
			}
		case fopXorN, fopXnorN:
			for _, fo := range p.faninIdx[lo+1 : hi] {
				acc ^= vals[int(fo)*aw+k]
			}
			if op == fopXnorN {
				acc = ^acc
			}
		}
		vals[base+k] = acc
	}
}

// resetResult zeroes the per-run accounting and reshapes the toggle
// planes to the current stride (reinterpreting the existing buffer as
// however many full levels it holds).
func (sp *Speculative) resetResult() {
	res := &sp.res
	if sp.stride > 0 {
		lv := cap(res.planes) / sp.stride
		res.planes = res.planes[:lv*sp.stride]
		res.levels = lv
	}
	for i := range res.planes {
		res.planes[i] = 0
	}
	if res.ovAny != nil {
		// Any/Multi need no pre-clearing — the aggregation pass assigns
		// every active word.
		ov := res.ovAny[:sp.stride]
		for i := range ov {
			ov[i] = 0
		}
	}
	for i := range res.SettleTime {
		res.SettleTime[i] = 0
	}
	for i := range res.Events {
		res.Events[i] = 0
	}
	for i := range sp.settleNorm {
		sp.settleNorm[i] = 0
	}
}

// runZero is the compiled zero-delay kernel: settle both planes, diff.
// Glitch-free by contract, so Any alone encodes the 0/1 toggle counts.
func (sp *Speculative) runZero(pp *PackedPairs, b0 int) {
	sp.resetResult()
	sp.loadInputs(sp.val, pp.In1, b0)
	sp.settle(sp.val)
	sp.loadInputs(sp.aux, pp.In2, b0)
	sp.settle(sp.aux)
	p := sp.p
	aw := sp.aw
	res := &sp.res
	if !sp.LaneStats {
		for i := 0; i < p.nGates*aw; i++ {
			res.Any[i] = sp.val[i] ^ sp.aux[i]
		}
		return
	}
	var cnt [maxStripeWords][24]uint64
	for s := 0; s < p.nGates; s++ {
		base := s * aw
		for k := 0; k < aw; k++ {
			d := sp.val[base+k] ^ sp.aux[base+k]
			res.Any[base+k] = d
			if d == 0 {
				continue
			}
			cw := &cnt[k]
			carry := d
			for l := 0; carry != 0; l++ {
				c0 := cw[l]
				cw[l] = c0 ^ carry
				carry = c0 & carry
			}
		}
	}
	for k := 0; k < aw; k++ {
		for l, cwv := range cnt[k] {
			for ; cwv != 0; cwv &= cwv - 1 {
				res.Events[k*64+bits.TrailingZeros64(cwv)] += 1 << uint(l)
			}
		}
	}
}

// finalizeTimed derives the aggregate result views from the toggle
// planes after a timed run — shared by the waveform kernel and the
// scalar replay, which fill the same planes.
func (sp *Speculative) finalizeTimed() {
	p := sp.p
	aw := sp.aw
	stride := sp.stride
	lane := sp.LaneStats
	res := &sp.res
	if lane {
		for l, sn := range sp.settleNorm {
			res.SettleTime[l] = sn * p.gcdPS
		}
	}
	// One sequential pass over the first two counter planes recovers Any
	// (count ≥ 1: bit 0, bit 1, or the overflow union) and Multi
	// (count ≥ 2: bit 1 or overflow — lanes that reached 4 may have both
	// low bits clear). Both are assigned outright, which is why
	// resetResult never pre-zeroes them.
	p0 := res.planes[:stride]
	p1 := res.planes[stride : 2*stride]
	ovp := res.ovAny[:stride]
	for i, v0 := range p0 {
		o := p1[i] | ovp[i]
		res.Any[i] = v0 | o
		res.Multi[i] = o
	}
	if !lane {
		return
	}
	// Events: a vertical ripple-carry popcount per word column, each
	// counter plane entering at its weight.
	var cnt [maxStripeWords][24]uint64
	for lvl := 0; lvl < res.levels; lvl++ {
		rowp := res.planes[lvl*stride : (lvl+1)*stride]
		for f := 0; f < p.nGates; f++ {
			base := f * aw
			for k := 0; k < aw; k++ {
				v := rowp[base+k]
				if v == 0 {
					continue
				}
				cw := &cnt[k]
				for l := lvl; v != 0; l++ {
					c := cw[l]
					cw[l] = c ^ v
					v = c & v
				}
			}
		}
	}
	for k := 0; k < aw; k++ {
		for l, cwv := range cnt[k] {
			for ; cwv != 0; cwv &= cwv - 1 {
				res.Events[k*64+bits.TrailingZeros64(cwv)] += 1 << uint(l)
			}
		}
	}
}
