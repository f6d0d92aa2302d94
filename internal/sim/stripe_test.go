package sim

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/delay"
	"repro/internal/netlist"
)

// packVectors builds a PackedPairs batch from per-lane vector slices.
func packVectors(inputs int, v1s, v2s [][]bool) *PackedPairs {
	var pp PackedPairs
	pp.Reset(inputs, len(v1s))
	for i := range v1s {
		pp.SetPair(i, v1s[i], v2s[i])
	}
	return &pp
}

// blockRange is one RunBlocks call: nb blocks from block b0.
type blockRange struct{ b0, nb int }

// stripeRanges covers a batch stripe by stripe, as Run addresses it.
func stripeRanges(blocks, width int) []blockRange {
	var out []blockRange
	for b0 := 0; b0 < blocks; b0 += width {
		out = append(out, blockRange{b0, min(width, blocks-b0)})
	}
	return out
}

// raggedRanges covers a batch with block ranges of cycling widths (1, W,
// W−3, 2), so that most ranges start at a block that is not a multiple
// of the stripe width — the shapes a balanced worker partition produces.
func raggedRanges(blocks, width int) []blockRange {
	var out []blockRange
	widths := []int{1, width, max(1, width-3), 2}
	for b0, i := 0, 0; b0 < blocks; i++ {
		nb := min(widths[i%len(widths)], width, blocks-b0)
		out = append(out, blockRange{b0, nb})
		b0 += nb
	}
	return out
}

// TestStripedReuse runs one executor across rounds of different batch
// sizes (so the active word count changes run to run) and cross-checks
// each round against a fresh executor: arena, counter-plane, and
// settle-time state must be fully reset, including across aw changes.
func TestStripedReuse(t *testing.T) {
	c := bench.MustGenerate("C432")
	m := delay.FanoutLoaded{}
	p := CompileModel(c, m, CompileOptions{})
	st := NewSpeculative(p)
	// The lane sequence walks active word counts 5→1→8→7→8→1→3: every
	// reshape direction, including adjacent narrowing (each run is
	// checked against a fresh executor, so any cross-shape residue shows).
	for round, lanes := range []int{300, 64, 512, 416, 500, 1, 130} {
		v1s := xorshiftVectors(lanes, c.NumInputs(), 100+uint64(round))
		v2s := xorshiftVectors(lanes, c.NumInputs(), 200+uint64(round))
		pp := packVectors(c.NumInputs(), v1s, v2s)
		got := st.Run(pp, 0)
		want := NewSpeculative(p).Run(pp, 0)
		if got.AW != want.AW {
			t.Fatalf("round %d: AW %d vs %d", round, got.AW, want.AW)
		}
		for i := range want.Any {
			if got.Any[i] != want.Any[i] {
				t.Fatalf("round %d: reused executor diverged at Any[%d]", round, i)
			}
		}
		for l := 0; l < got.AW*64; l++ {
			if got.Events[l] != want.Events[l] || got.SettleTime[l] != want.SettleTime[l] {
				t.Fatalf("round %d lane %d: events %d/%d settle %d/%d",
					round, l, got.Events[l], want.Events[l], got.SettleTime[l], want.SettleTime[l])
			}
		}
		for s := 0; s < got.NSlots; s++ {
			for w := 0; w < got.AW; w++ {
				for l := 0; l < 64; l++ {
					if got.Count(s, w, l) != want.Count(s, w, l) {
						t.Fatalf("round %d slot %d word %d lane %d: count %d vs %d",
							round, s, w, l, got.Count(s, w, l), want.Count(s, w, l))
					}
				}
			}
		}
	}
}

// TestStripedResultAliasing is the regression test for the shared
// aliasing contract (the striped analogue of Result.CopyToggles /
// TestResultCopyToggles): StripedResult.Any is executor-owned and
// rewritten by the next Run, while Toggles copies into a caller-owned
// slice that survives.
func TestStripedResultAliasing(t *testing.T) {
	c := bench.MustGenerate("C432")
	p := CompileModel(c, delay.FanoutLoaded{}, CompileOptions{})
	st := NewSpeculative(p)
	v1s := xorshiftVectors(64, c.NumInputs(), 21)
	v2s := xorshiftVectors(64, c.NumInputs(), 22)
	r := st.Run(packVectors(c.NumInputs(), v1s, v2s), 0)
	snap := r.Toggles(0, 0, nil)
	aliasedAny := r.Any
	var activity int32
	for _, n := range snap {
		activity += n
	}
	if activity == 0 {
		t.Fatal("expected lane 0 activity")
	}
	hadAny := false
	for _, w := range aliasedAny {
		hadAny = hadAny || w != 0
	}
	if !hadAny {
		t.Fatal("active run set no Any bits")
	}
	// A quiet cycle (v1 == v2) rewrites the engine-owned buffers to zero.
	if r2 := st.Run(packVectors(c.NumInputs(), v1s, v1s), 0); r2.Events[0] != 0 {
		t.Fatalf("expected quiet cycle, got %d events", r2.Events[0])
	}
	// The held reference now reads all-zero: the same backing array was
	// rewritten in place — the documented hazard the contract warns about.
	for _, w := range aliasedAny {
		if w != 0 {
			t.Fatal("quiet run left engine-owned Any bits set — the aliasing contract is stale")
		}
	}
	// The pre-Run snapshot must be unaffected by the second run.
	var still int32
	for _, n := range snap {
		still += n
	}
	if still != activity {
		t.Fatal("Toggles snapshot was overwritten by a later Run")
	}
	// Reusing a big-enough dst must not allocate a new backing array.
	dst := make([]int32, 0, c.NumGates())
	out := r.Toggles(0, 0, dst)
	if &out[0] != &dst[:1][0] {
		t.Fatal("Toggles ignored reusable dst")
	}
}

// TestStripedAllocFree pins the steady state with LaneStats on (the
// per-lane settle-time and event aggregation) at zero allocations per
// run once the arena and toggle planes have grown to the circuit's
// depth; TestSpeculativeAllocFree covers the power path's LaneStats off.
func TestStripedAllocFree(t *testing.T) {
	c := bench.MustGenerate("C432")
	p := CompileModel(c, delay.FanoutLoaded{}, CompileOptions{})
	st := NewSpeculative(p)
	v1s := xorshiftVectors(300, c.NumInputs(), 31)
	v2s := xorshiftVectors(300, c.NumInputs(), 32)
	pp := packVectors(c.NumInputs(), v1s, v2s)
	st.Run(pp, 0)
	st.Run(pp, 0)
	if allocs := testing.AllocsPerRun(10, func() { st.Run(pp, 0) }); allocs != 0 {
		t.Fatalf("Run with LaneStats allocates %.1f/op in steady state, want 0", allocs)
	}
}

// TestStripedZeroDelayEngine exercises the compiled zero-delay kernel's
// glitch-free contract directly: counts are 0/1 and MultiMask is empty.
func TestStripedZeroDelayEngine(t *testing.T) {
	c := bench.MustGenerate("C432")
	p := CompileModel(c, delay.Zero{}, CompileOptions{})
	if !p.ZeroDelay() {
		t.Fatal("zero model did not compile to the zero-delay kernel")
	}
	st := NewSpeculative(p)
	v1s := xorshiftVectors(100, c.NumInputs(), 41)
	v2s := xorshiftVectors(100, c.NumInputs(), 42)
	r := st.Run(packVectors(c.NumInputs(), v1s, v2s), 0)
	for s := 0; s < r.NSlots; s++ {
		for w := 0; w < r.AW; w++ {
			if r.MultiMask(s, w) != 0 {
				t.Fatalf("zero-delay MultiMask(%d,%d) nonzero", s, w)
			}
			for l := 0; l < 64; l++ {
				if n := r.Count(s, w, l); n > 1 {
					t.Fatalf("zero-delay Count(%d,%d,%d) = %d", s, w, l, n)
				}
			}
		}
	}
}

// fixedDelays is a test delay model with explicit per-gate delays, for
// constructing exact inertial scenarios.
type fixedDelays []int64

func (fixedDelays) Name() string                        { return "fixed" }
func (d fixedDelays) Assign(c *netlist.Circuit) []int64 { return append([]int64(nil), d...) }

// TestTimedInertialSemantics pins down the timed simulator's inertial
// rules with hand-computed cases — pulse swallowing, simultaneous input
// edges, and pending-event replacement with stale queue entries — on the
// scalar path and on the batch executor, which must reproduce the scalar
// result in every lane of a stripe.
func TestTimedInertialSemantics(t *testing.T) {
	type peak struct {
		gate    string
		toggles int32
	}
	cases := []struct {
		name   string
		build  func(t *testing.T) *netlist.Circuit
		delays func(c *netlist.Circuit) fixedDelays // indexed by gate name
		v1, v2 []bool
		want   []peak
		events int
		settle int64
	}{
		{
			// The NOT falls 2 ps after a rises; the AND's own delay is 5 ps,
			// so the 2 ps input pulse is shorter than the gate's inertia and
			// is swallowed: y never toggles.
			name:  "pulse-swallowed",
			build: glitchCircuit,
			delays: func(c *netlist.Circuit) fixedDelays {
				d := make(fixedDelays, c.NumGates())
				d[c.GateIndex("na")] = 2
				d[c.GateIndex("y")] = 5
				return d
			},
			v1:     []bool{false},
			v2:     []bool{true},
			want:   []peak{{"na", 1}, {"y", 0}},
			events: 2, // a toggles, na toggles; the y pulse is cancelled
			settle: 2,
		},
		{
			// Same hazard with a slow inverter: the 6 ps pulse outlives the
			// AND's 5 ps delay, so y glitches up and back down.
			name:  "pulse-propagates",
			build: glitchCircuit,
			delays: func(c *netlist.Circuit) fixedDelays {
				d := make(fixedDelays, c.NumGates())
				d[c.GateIndex("na")] = 6
				d[c.GateIndex("y")] = 5
				return d
			},
			v1:     []bool{false},
			v2:     []bool{true},
			want:   []peak{{"na", 1}, {"y", 2}},
			events: 4,
			settle: 11, // y falls at t = 6 + 5
		},
		{
			// Both XOR inputs flip at t = 0. The delta-cycle rule applies
			// both edges before re-evaluating, so the XOR sees them together
			// and never schedules an event.
			name: "simultaneous-edges-cancel",
			build: func(t *testing.T) *netlist.Circuit {
				t.Helper()
				b := netlist.NewBuilder("simul")
				a := b.Input("a")
				bb := b.Input("b")
				y := b.Gate(netlist.Xor, "y", a, bb)
				b.Output(y)
				c, err := b.Build()
				if err != nil {
					t.Fatal(err)
				}
				return c
			},
			delays: func(c *netlist.Circuit) fixedDelays {
				d := make(fixedDelays, c.NumGates())
				d[c.GateIndex("y")] = 3
				return d
			},
			v1:     []bool{false, false},
			v2:     []bool{true, true},
			want:   []peak{{"y", 0}},
			events: 2, // the two input toggles only
			settle: 0,
		},
		{
			// Staggered triple-XOR: x = XOR(a, b1, b2) with b1, b2 buffered
			// copies of a at 1 and 2 ps, x at 5 ps. a rising schedules x up
			// for t = 5; at t = 1 the b1 edge cancels it (inertial swallow,
			// the queued t = 5 entry goes stale); at t = 2 the b2 edge
			// schedules x up again for t = 7. Exactly one x toggle, at 7 ps
			// — wrong lazy-cancellation bookkeeping fires the stale t = 5
			// entry instead.
			name: "stale-entry-replacement",
			build: func(t *testing.T) *netlist.Circuit {
				t.Helper()
				b := netlist.NewBuilder("stale")
				a := b.Input("a")
				b1 := b.Gate(netlist.Buf, "b1", a)
				b2 := b.Gate(netlist.Buf, "b2", a)
				x := b.Gate(netlist.Xor, "x", a, b1, b2)
				b.Output(x)
				c, err := b.Build()
				if err != nil {
					t.Fatal(err)
				}
				return c
			},
			delays: func(c *netlist.Circuit) fixedDelays {
				d := make(fixedDelays, c.NumGates())
				d[c.GateIndex("b1")] = 1
				d[c.GateIndex("b2")] = 2
				d[c.GateIndex("x")] = 5
				return d
			},
			v1:     []bool{false},
			v2:     []bool{true},
			want:   []peak{{"b1", 1}, {"b2", 1}, {"x", 1}},
			events: 4,
			settle: 7,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.build(t)
			model := tc.delays(c)
			s := New(c, model)
			res := s.RunCycle(tc.v1, tc.v2)
			for _, w := range tc.want {
				if got := res.Toggles[c.GateIndex(w.gate)]; got != w.toggles {
					t.Errorf("scalar %s: %d toggles, want %d", w.gate, got, w.toggles)
				}
			}
			if res.Events != tc.events {
				t.Errorf("scalar events = %d, want %d", res.Events, tc.events)
			}
			if res.SettleTime != tc.settle {
				t.Errorf("scalar settle = %d, want %d", res.SettleTime, tc.settle)
			}

			// The same pair replicated across every lane of a stripe must
			// reproduce the scalar outcome on the batch executor.
			p := CompileModel(c, model, CompileOptions{})
			lanes := p.StripeWords() * 64
			v1s := make([][]bool, lanes)
			v2s := make([][]bool, lanes)
			for l := range v1s {
				v1s[l], v2s[l] = tc.v1, tc.v2
			}
			r := NewSpeculative(p).Run(packVectors(c.NumInputs(), v1s, v2s), 0)
			for l := 0; l < lanes; l++ {
				for _, w := range tc.want {
					if got := r.Count(c.GateIndex(w.gate), l/64, l%64); got != w.toggles {
						t.Fatalf("lane %d %s: %d toggles, want %d", l, w.gate, got, w.toggles)
					}
				}
				if r.Events[l] != tc.events || r.SettleTime[l] != tc.settle {
					t.Fatalf("lane %d: events %d settle %d, want %d/%d",
						l, r.Events[l], r.SettleTime[l], tc.events, tc.settle)
				}
			}
		})
	}
}

// TestStripedGCDNormalization checks that the compiled kernel divides
// out the delay GCD internally but reports stripe settle times in ps.
func TestStripedGCDNormalization(t *testing.T) {
	c := chain(t, 3)
	p := CompileModel(c, delay.Unit{Delay: 100}, CompileOptions{})
	if p.GCDps() != 100 {
		t.Fatalf("GCDps = %d, want 100", p.GCDps())
	}
	pp := packVectors(c.NumInputs(), [][]bool{{false}}, [][]bool{{true}})
	if got := NewSpeculative(p).Run(pp, 0).SettleTime[0]; got != 300 {
		t.Fatalf("stripe settle = %d ps, want 300", got)
	}
}
