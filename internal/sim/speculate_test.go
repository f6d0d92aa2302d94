package sim

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/delay"
	"repro/internal/netlist"
)

// diffSpeculative compares every lane of every stripe of a packed batch
// against the scalar oracle — toggle counts, Any/Multi masks, settle
// times, event totals. It is the speculative engine's core contract:
// settle-then-patch is an execution strategy, never a result change.
// ragged runs the batch as raggedRanges through RunBlocks instead of
// stripe by stripe through Run.
func diffSpeculative(t *testing.T, c *netlist.Circuit, m delay.Model, width, lanes int, seed uint64, ragged bool) {
	t.Helper()
	s := New(c, m)
	p := CompileModel(c, m, CompileOptions{Width: width})
	if p.ZeroDelay() != s.ZeroDelay() {
		t.Fatalf("compiled zeroDelay=%v, scalar %v", p.ZeroDelay(), s.ZeroDelay())
	}
	sp := NewSpeculative(p)
	v1s := xorshiftVectors(lanes, c.NumInputs(), seed)
	v2s := xorshiftVectors(lanes, c.NumInputs(), seed+1)
	pp := packVectors(c.NumInputs(), v1s, v2s)
	ranges := stripeRanges(pp.Blocks(), width)
	if ragged {
		ranges = raggedRanges(pp.Blocks(), width)
	}
	for i, br := range ranges {
		var r *StripedResult
		if ragged {
			r = sp.RunBlocks(pp, br.b0, br.nb)
		} else {
			r = sp.Run(pp, i)
		}
		if r.AW != br.nb {
			t.Fatalf("blocks [%d, %d): AW %d", br.b0, br.b0+br.nb, r.AW)
		}
		diffOracle(t, s, r, v1s, v2s, br.b0)
	}
}

// diffOracle checks every lane of one stripe result whose first block is
// b0 against the scalar oracle s on the same pairs: per-gate counts,
// the word-level Any/Multi masks the energy path reads (count > 0 and
// count > 1), settle times and event totals. Lanes past the batch must
// be inert.
func diffOracle(t *testing.T, s *Simulator, r *StripedResult, v1s, v2s [][]bool, b0 int) {
	t.Helper()
	c := s.Circuit()
	active := min(len(v1s)-b0*64, r.AW*64)
	anyW := make([]uint64, r.NSlots*r.AW)
	multiW := make([]uint64, r.NSlots*r.AW)
	var dst []int32
	for l := 0; l < active; l++ {
		li := b0*64 + l
		want := s.RunCycle(v1s[li], v2s[li])
		word, bit := l/64, l%64
		dst = r.Toggles(word, bit, dst)
		for g, wc := range want.Toggles {
			if dst[g] != wc {
				t.Fatalf("%s lane %d gate %d (%s): %d toggles, scalar %d",
					c.Name, li, g, c.Gates[g].Name, dst[g], wc)
			}
			if wc > 0 {
				anyW[g*r.AW+word] |= 1 << uint(bit)
			}
			if wc > 1 {
				multiW[g*r.AW+word] |= 1 << uint(bit)
			}
		}
		if r.SettleTime[l] != want.SettleTime {
			t.Fatalf("lane %d: settle %d ps, scalar %d ps", li, r.SettleTime[l], want.SettleTime)
		}
		if r.Events[l] != want.Events {
			t.Fatalf("lane %d: %d events, scalar %d", li, r.Events[l], want.Events)
		}
	}
	for slot := 0; slot < r.NSlots; slot++ {
		for w := 0; w < r.AW; w++ {
			if got, want := r.Any[slot*r.AW+w], anyW[slot*r.AW+w]; got != want {
				t.Fatalf("slot %d word %d: Any %#x, oracle %#x", slot, w, got, want)
			}
			if got, want := r.MultiMask(slot, w), multiW[slot*r.AW+w]; got != want {
				t.Fatalf("slot %d word %d: Multi %#x, oracle %#x", slot, w, got, want)
			}
		}
	}
	for l := active; l < r.AW*64; l++ {
		if r.Events[l] != 0 || r.SettleTime[l] != 0 {
			t.Fatalf("inert lane %d: %d events, settle %d", l, r.Events[l], r.SettleTime[l])
		}
	}
}

// TestSpeculativeDifferentialScalar runs the speculative engine's
// bit-identity contract on the ISCAS circuits across all four delay
// models — full stripes, partial trailing words, narrowed stripe widths,
// and block ranges at offsets that are not multiples of the width, as
// the worker partition cuts them. CI runs the C880 subtree under -race
// as the speculative differential step.
func TestSpeculativeDifferentialScalar(t *testing.T) {
	models := []delay.Model{delay.Zero{}, delay.Unit{}, delay.FanoutLoaded{}, delay.StandardTable()}
	for _, name := range []string{"C432", "C880"} {
		c := bench.MustGenerate(name)
		for _, m := range models {
			t.Run(name+"/"+m.Name(), func(t *testing.T) {
				// 300 pairs = 5 blocks: one partial stripe at width 8
				// (aw = 5), the estimator's production shape.
				diffSpeculative(t, c, m, 8, 300, 7, false)
				diffSpeculative(t, c, m, 2, 200, 11, false)
				diffSpeculative(t, c, m, 8, 600, 13, true)
				diffSpeculative(t, c, m, 4, 1100, 17, true)
			})
		}
	}
}

// TestSpeculativeRandomDifferential fuzzes the settle-then-patch engine
// against the scalar oracle on seeded random DAGs — the
// shapes the ISCAS set does not cover (deep XOR chains, degenerate
// fan-in, tiny cones). Seeds are logged so any failure reproduces as a
// one-line test case.
func TestSpeculativeRandomDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	models := []delay.Model{delay.Zero{}, delay.Unit{}, delay.FanoutLoaded{}, delay.StandardTable()}
	for seed := uint64(1); seed <= 50; seed++ {
		opt := bench.RandomOptions{
			Inputs:  4 + int(seed%13),
			Outputs: 1 + int(seed%5),
			Gates:   20 + int(seed*7%140),
			MaxFan:  2 + int(seed%4),
			Seed:    seed,
		}
		c, err := bench.RandomCircuit(opt)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		t.Logf("seed %d: %s (%d gates)", seed, c.Name, len(c.Gates))
		m := models[seed%uint64(len(models))]
		diffSpeculative(t, c, m, 2, 130, seed*3+1, seed%2 == 1)
	}
}

// TestSpeculativeScalarReplay drives the misprediction recovery path,
// which the ISCAS circuits never reach through RunBlocks: each block
// range is first dirtied by a wave over another batch — the state a
// mispredicted wave leaves behind — then replayed on the scalar oracle.
// Every lane must match a fresh Run and the oracle, and every replay
// must count as a fallback.
func TestSpeculativeScalarReplay(t *testing.T) {
	models := []delay.Model{delay.Unit{}, delay.FanoutLoaded{}, delay.StandardTable()}
	for _, name := range []string{"C432", "C880"} {
		c := bench.MustGenerate(name)
		for _, m := range models {
			t.Run(name+"/"+m.Name(), func(t *testing.T) {
				for _, tc := range []struct {
					width, lanes int
					ragged       bool
				}{{8, 300, false}, {4, 600, true}} {
					s := New(c, m)
					p := CompileModel(c, m, CompileOptions{Width: tc.width})
					v1s := xorshiftVectors(tc.lanes, c.NumInputs(), 61)
					v2s := xorshiftVectors(tc.lanes, c.NumInputs(), 62)
					pp := packVectors(c.NumInputs(), v1s, v2s)
					other := packVectors(c.NumInputs(),
						xorshiftVectors(tc.lanes, c.NumInputs(), 63), xorshiftVectors(tc.lanes, c.NumInputs(), 64))
					ranges := stripeRanges(pp.Blocks(), tc.width)
					if tc.ragged {
						ranges = raggedRanges(pp.Blocks(), tc.width)
					}
					sp := NewSpeculative(p)
					fresh := NewSpeculative(p)
					for _, br := range ranges {
						sp.prepare(pp, br.b0, br.nb)
						if !sp.wave(other, 0) {
							t.Fatal("dirtying wave mispredicted")
						}
						sp.replay(pp, br.b0)
						sp.finalizeTimed()
						r := &sp.res
						diffOracle(t, s, r, v1s, v2s, br.b0)
						want := fresh.RunBlocks(pp, br.b0, br.nb)
						for i := range want.Any[:want.NSlots*want.AW] {
							if r.Any[i] != want.Any[i] || r.Multi[i] != want.Multi[i] {
								t.Fatalf("blocks [%d, %d) word %d: replay Any/Multi %#x/%#x, Run %#x/%#x",
									br.b0, br.b0+br.nb, i, r.Any[i], r.Multi[i], want.Any[i], want.Multi[i])
							}
						}
						for l := 0; l < r.AW*64; l++ {
							if r.SettleTime[l] != want.SettleTime[l] || r.Events[l] != want.Events[l] {
								t.Fatalf("blocks [%d, %d) lane %d: replay settle %d events %d, Run %d/%d",
									br.b0, br.b0+br.nb, l, r.SettleTime[l], r.Events[l], want.SettleTime[l], want.Events[l])
							}
							for g := 0; g < r.NSlots; g++ {
								if got, wc := r.Count(g, l/64, l%64), want.Count(g, l/64, l%64); got != wc {
									t.Fatalf("blocks [%d, %d) lane %d gate %d: replay count %d, Run %d",
										br.b0, br.b0+br.nb, l, g, got, wc)
								}
							}
						}
					}
					if got := sp.Stats().Fallbacks; got != uint64(len(ranges)) {
						t.Fatalf("Fallbacks = %d after %d replays", got, len(ranges))
					}
				}
			})
		}
	}
}

// TestSpeculativeAllocFree pins the steady-state allocation contract of
// the power path (LaneStats off): after warm-up, a stripe run touches
// the heap zero times.
func TestSpeculativeAllocFree(t *testing.T) {
	c := bench.MustGenerate("C432")
	p := CompileModel(c, delay.FanoutLoaded{}, CompileOptions{})
	sp := NewSpeculative(p)
	sp.LaneStats = false
	v1s := xorshiftVectors(300, c.NumInputs(), 31)
	v2s := xorshiftVectors(300, c.NumInputs(), 32)
	pp := packVectors(c.NumInputs(), v1s, v2s)
	sp.Run(pp, 0)
	sp.Run(pp, 0)
	if allocs := testing.AllocsPerRun(10, func() { sp.Run(pp, 0) }); allocs != 0 {
		t.Fatalf("speculative Run allocates %.1f/op in steady state, want 0", allocs)
	}
}

// TestSpeculativeStats checks the speculation counters: timed stripes
// are counted, hazard patches happen, and the ISCAS circuits never
// mispredict (the differential suite would catch a wrong patch; this
// pins that the fast path actually runs).
func TestSpeculativeStats(t *testing.T) {
	c := bench.MustGenerate("C880")
	v1s := xorshiftVectors(512, c.NumInputs(), 51)
	v2s := xorshiftVectors(512, c.NumInputs(), 52)
	pp := packVectors(c.NumInputs(), v1s, v2s)

	p := CompileModel(c, delay.FanoutLoaded{}, CompileOptions{})
	sp := NewSpeculative(p)
	sp.Run(pp, 0)
	st := sp.Stats()
	if st.Stripes != 1 || st.PatchedWords == 0 {
		t.Fatalf("timed stats = %+v, want 1 stripe and nonzero patched words", st)
	}
	if st.Fallbacks != 0 {
		t.Fatalf("unexpected fallbacks: %+v", st)
	}

	// Zero-delay programs never speculate: settle IS the result.
	pz := CompileModel(c, delay.Zero{}, CompileOptions{})
	spz := NewSpeculative(pz)
	spz.Run(pp, 0)
	if stz := spz.Stats(); stz != (SpecStats{}) {
		t.Fatalf("zero-delay stats = %+v, want zero", stz)
	}

	var agg SpecStats
	agg.Add(st)
	agg.Add(st)
	if agg.Stripes != 2*st.Stripes || agg.PatchedWords != 2*st.PatchedWords {
		t.Fatalf("Add: %+v from %+v", agg, st)
	}
}

func benchSpeculative(b *testing.B, model delay.Model) {
	c := bench.MustGenerate("C3540")
	p := CompileModel(c, model, CompileOptions{})
	sp := NewSpeculative(p)
	sp.LaneStats = false
	v1s := xorshiftVectors(512, c.NumInputs(), 7)
	v2s := xorshiftVectors(512, c.NumInputs(), 8)
	pp := packVectors(c.NumInputs(), v1s, v2s)
	sp.Run(pp, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Run(pp, 0)
	}
}

// BenchmarkSpeculativeStripe measures one full 512-lane stripe of the
// settle-then-patch kernel — the kernel-level view of the benchstream
// end-to-end numbers.
func BenchmarkSpeculativeStripe(b *testing.B) {
	b.Run("spec/fanout", func(b *testing.B) { benchSpeculative(b, delay.FanoutLoaded{}) })
	b.Run("spec/table", func(b *testing.B) { benchSpeculative(b, delay.StandardTable()) })
}
