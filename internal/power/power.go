// Package power computes per-cycle power from the timing simulator's
// transition counts, substituting for the paper's transistor-level
// simulator (PowerMill). The model is the standard CMOS dynamic-power
// formulation: every output transition of gate g charges or discharges
// that node's load capacitance, so
//
//	E_cycle = ½ · Vdd² · Σ_g C_g · toggles_g · (1 + scFrac) + P_leak·T
//	P_cycle = E_cycle / T_clk
//
// with C_g built from the gate's intrinsic drain capacitance plus the input
// capacitance of each fanout (plus an output-pad load on primary outputs),
// and scFrac an activity-proportional short-circuit adder. Absolute watts
// are not calibrated to the paper's 0.35 µm testbed — only the shape of
// the induced distribution matters to the estimator (see DESIGN.md).
package power

import (
	"fmt"
	"math/bits"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// Params sets the electrical constants of the model. The zero value is
// replaced by Defaults().
type Params struct {
	Vdd        float64 // supply voltage, volts
	ClockNS    float64 // clock period, nanoseconds
	IntrinsicF float64 // intrinsic drain capacitance per gate, femtofarads
	InputCapF  float64 // input capacitance per fan-in connection, fF
	WireCapF   float64 // wire capacitance per fanout branch, fF
	PadCapF    float64 // output pad load on primary outputs, fF
	SCFraction float64 // short-circuit energy as a fraction of dynamic
	LeakNW     float64 // leakage per gate, nanowatts
	// GlitchSwing scales the energy of glitch transitions (a gate's
	// toggles beyond its first two in a cycle). Narrow hazard pulses do
	// not swing the node across the full rail, so transistor-level
	// simulators such as PowerMill report them at a fraction of a full
	// C·V² event. 1 counts glitches at full swing; Defaults uses 0.35.
	GlitchSwing float64
}

// Defaults returns 0.35 µm-era constants: 3.3 V supply, 100 MHz clock.
func Defaults() Params {
	return Params{
		Vdd:         3.3,
		ClockNS:     10,
		IntrinsicF:  4,
		InputCapF:   6,
		WireCapF:    2,
		PadCapF:     40,
		SCFraction:  0.12,
		LeakNW:      0.5,
		GlitchSwing: 0.1,
	}
}

// kindCapScale makes complex gates heavier, echoing transistor counts.
var kindCapScale = map[netlist.Kind]float64{
	netlist.Not:  0.6,
	netlist.Buf:  0.8,
	netlist.And:  1.1,
	netlist.Nand: 1.0,
	netlist.Or:   1.1,
	netlist.Nor:  1.0,
	netlist.Xor:  1.7,
	netlist.Xnor: 1.7,
}

// NodeCapsF returns the load capacitance (fF) of every gate output node
// under the given parameters.
func NodeCapsF(c *netlist.Circuit, p Params) []float64 {
	if p == (Params{}) {
		p = Defaults()
	}
	caps := make([]float64, c.NumGates())
	counts := c.FanoutCounts()
	isOutput := make([]bool, c.NumGates())
	for _, o := range c.Outputs {
		isOutput[o] = true
	}
	for i, g := range c.Gates {
		scale := 1.0
		if s, ok := kindCapScale[g.Kind]; ok {
			scale = s
		}
		caps[i] = p.IntrinsicF*scale + p.WireCapF*float64(counts[i])
	}
	// Each fanout consumer adds its input capacitance to the driver node.
	for _, g := range c.Gates {
		scale := 1.0
		if s, ok := kindCapScale[g.Kind]; ok {
			scale = s
		}
		for _, f := range g.Fanin {
			caps[f] += p.InputCapF * scale
		}
	}
	for i := range caps {
		if isOutput[i] {
			caps[i] += p.PadCapF
		}
	}
	return caps
}

// Evaluator computes cycle power for vector pairs on one circuit. It wraps
// a Simulator and is not safe for concurrent use; Clone gives each worker
// an independent instance.
type Evaluator struct {
	simulator *sim.Simulator
	params    Params
	// energyW[g] = ½·Vdd²·C_g·(1+sc), in joules per toggle (C in farads).
	energyW []float64
	leakW   float64 // total leakage power, watts
	clockS  float64 // clock period, seconds
	glitch  float64 // per-extra-toggle energy scale (partial swing)

	// Batch engine state: the immutable compiled program is shared
	// across clones and — through the cache, when UseSpeculative attached
	// one — across evaluators for the same (circuit, delay model); spec
	// is per-instance mutable run state, built lazily on the first batch.
	kernels   *sim.ProgramCache
	kernelKey string
	prog      *sim.Program
	spec      *sim.Speculative
}

// NewEvaluator builds an evaluator for the circuit under a delay model and
// electrical parameters. Zero-valued params select Defaults(); nil model
// selects delay.FanoutLoaded{}.
func NewEvaluator(c *netlist.Circuit, m delay.Model, p Params) *Evaluator {
	if p == (Params{}) {
		p = Defaults()
	}
	if p.Vdd <= 0 || p.ClockNS <= 0 {
		panic(fmt.Sprintf("power: invalid params %+v", p))
	}
	caps := NodeCapsF(c, p)
	energy := make([]float64, len(caps))
	k := 0.5 * p.Vdd * p.Vdd * (1 + p.SCFraction) * 1e-15 // fF → F
	for i, cf := range caps {
		energy[i] = k * cf
	}
	glitch := p.GlitchSwing
	if glitch <= 0 {
		glitch = Defaults().GlitchSwing
	}
	if glitch > 1 {
		glitch = 1
	}
	return &Evaluator{
		simulator: sim.New(c, m),
		params:    p,
		energyW:   energy,
		leakW:     p.LeakNW * 1e-9 * float64(c.NumLogicGates()),
		clockS:    p.ClockNS * 1e-9,
		glitch:    glitch,
	}
}

// Clone returns an independent evaluator sharing the immutable model data
// — including any compiled kernel program, which is read-only and safe to
// run from many clones at once (each clone builds its own executor).
func (e *Evaluator) Clone() *Evaluator {
	return &Evaluator{
		simulator: e.simulator.Clone(),
		params:    e.params,
		energyW:   e.energyW,
		leakW:     e.leakW,
		clockS:    e.clockS,
		glitch:    e.glitch,
		kernels:   e.kernels,
		kernelKey: e.kernelKey,
		prog:      e.prog,
	}
}

// UseSpeculative attaches a shared ProgramCache: the batch engine's
// compile is deduplicated under key (the service keys on circuit identity
// + delay model) across every evaluator using the same cache. A nil
// cache compiles privately on first use. It selects nothing else — every
// evaluator runs its batches on the speculative kernel — and keeps its
// name because perfbench/ is built against it.
func (e *Evaluator) UseSpeculative(cache *sim.ProgramCache, key string) {
	e.kernels = cache
	e.kernelKey = key
	e.prog = nil
	e.spec = nil
}

// SpecStats returns this evaluator's cumulative speculation counters
// (zero before the first batch). Clones count independently; sum across
// a worker pool for run totals.
func (e *Evaluator) SpecStats() sim.SpecStats {
	if e.spec == nil {
		return sim.SpecStats{}
	}
	return e.spec.Stats()
}

// Program resolves the batch engine's compiled program, through the
// shared cache when one was attached, compiling it on first use. Delays
// come from the simulator's own assignment, so the compiled kernel is
// oracle-exact by construction. Clones made after the first call share
// the program; clones made before it resolve their own, which compiles
// again when no cache is attached.
func (e *Evaluator) Program() *sim.Program {
	if e.prog != nil {
		return e.prog
	}
	c := e.Circuit()
	opt := sim.CompileOptions{ZeroDelay: e.ZeroDelay()}
	delays := e.simulator.DelaysPS()
	if e.kernels == nil {
		e.prog = sim.Compile(c, delays, opt)
		return e.prog
	}
	fp := sim.Fingerprint(c, delays, opt)
	e.prog = e.kernels.Get(e.kernelKey, fp, func() *sim.Program {
		return sim.Compile(c, delays, opt)
	})
	return e.prog
}

// StripeWords returns the batch engine's stripe width in 64-lane words,
// compiling the program on first use. Worker pools split packed batches
// at this granularity.
func (e *Evaluator) StripeWords() int { return e.Program().StripeWords() }

// Circuit returns the evaluated circuit.
func (e *Evaluator) Circuit() *netlist.Circuit { return e.simulator.Circuit() }

// Params returns the electrical parameters in effect.
func (e *Evaluator) Params() Params { return e.params }

// CyclePowerW returns the cycle power in watts for the vector pair
// (v1, v2): settle at v1, apply v2, average dissipation over one clock.
func (e *Evaluator) CyclePowerW(v1, v2 []bool) float64 {
	// res.Toggles aliases simulator scratch; it is consumed before the
	// next RunCycle, so no defensive copy is needed.
	res := e.simulator.RunCycle(v1, v2)
	return e.energyOf(res.Toggles)/e.clockS + e.leakW
}

// energyOf converts per-gate toggle counts to joules: a gate's first
// transition is a full C·V² event, further transitions (hazard pulses)
// count at the partial GlitchSwing weight.
func (e *Evaluator) energyOf(toggles []int32) float64 {
	var energy float64
	for g, n := range toggles {
		if n == 0 {
			continue
		}
		eff := 1 + e.glitch*float64(n-1)
		energy += eff * e.energyW[g]
	}
	return energy
}

// CyclePowerMW returns CyclePowerW scaled to milliwatts, the unit of the
// paper's Table 2.
func (e *Evaluator) CyclePowerMW(v1, v2 []bool) float64 {
	return e.CyclePowerW(v1, v2) * 1e3
}

// ZeroDelay reports whether the evaluator's delay model is glitch-free
// (all gate delays zero), which compiles the batch engine to its settle
// kernel.
func (e *Evaluator) ZeroDelay() bool { return e.simulator.ZeroDelay() }

// PackedStripeMW evaluates one stripe — StripeWords 64-lane blocks — of
// the packed batch through the batch engine into out, which must cover
// exactly the stripe's lanes (shorter on the final partial stripe). It is
// PackedBlockRangeMW over the stripe's block range.
func (e *Evaluator) PackedStripeMW(pp *sim.PackedPairs, stripe int, out []float64) error {
	w := e.Program().StripeWords()
	b0 := stripe * w
	if stripe < 0 || b0 >= pp.Blocks() {
		return fmt.Errorf("power: stripe %d of %d packed pairs", stripe, pp.N)
	}
	return e.PackedBlockRangeMW(pp, b0, min(w, pp.Blocks()-b0), out)
}

// PackedBlockRangeMW evaluates blocks b0 … b0+nb−1 (1 ≤ nb ≤ StripeWords,
// any b0) of the packed batch as one stripe of the speculative kernel
// into out, which must cover exactly those blocks' pairs (shorter when
// the range ends at a partial final block). Worker pools split batches
// at block granularity through it and still run whole stripes. It is
// allocation-free in steady state and bit-identical per lane to
// per-pair CyclePowerMW for every delay model.
func (e *Evaluator) PackedBlockRangeMW(pp *sim.PackedPairs, b0, nb int, out []float64) error {
	if n := e.Circuit().NumInputs(); pp.Inputs != n {
		return fmt.Errorf("power: packed batch width %d, circuit has %d inputs", pp.Inputs, n)
	}
	p := e.Program()
	if b0 < 0 || nb < 1 || nb > p.StripeWords() || b0+nb > pp.Blocks() {
		return fmt.Errorf("power: blocks [%d, %d) of %d packed pairs at stripe width %d", b0, b0+nb, pp.N, p.StripeWords())
	}
	if lanes := min(pp.N, (b0+nb)*64) - b0*64; len(out) != lanes {
		return fmt.Errorf("power: %d power slots for blocks [%d, %d) of %d packed pairs", len(out), b0, b0+nb, pp.N)
	}
	if e.spec == nil {
		e.spec = sim.NewSpeculative(p)
		// Cycle energy needs only the toggle planes: skip the
		// per-lane settle/event aggregation entirely.
		e.spec.LaneStats = false
	}
	e.stripeMW(e.spec.RunBlocks(pp, b0, nb), out)
	return nil
}

// stripeMW folds a striped result into lane powers (mW). Per lane the
// energy sum visits gates in ascending order with one add per toggled
// gate and the same eff expression as energyOf, so every lane's float64
// accumulation is bit-identical to the scalar path (slot s is gate s).
func (e *Evaluator) stripeMW(r *sim.StripedResult, out []float64) {
	for i := range out {
		out[i] = 0
	}
	aw := r.AW
	// Glitch factors for the two in-block count values: lanes counting 2
	// or 3 cover nearly every glitching lane, and their factors are the
	// exact floats the per-lane formula produces (glitch·1 and glitch·2
	// are exact scalings), so grouping a word's lanes by count keeps the
	// sum bit-identical to the scalar walk while skipping per-lane Count
	// reconstruction for everything below the overflow threshold.
	eff2 := 1 + e.glitch
	eff3 := 1 + e.glitch*2
	for s := 0; s < r.NSlots; s++ {
		eg := e.energyW[s]
		base := s * aw
		for k := 0; k < r.AW; k++ {
			any := r.Any[base+k]
			if any == 0 {
				continue
			}
			lane0 := k * 64
			if lane0 >= len(out) {
				break // inert packing lanes beyond the batch
			}
			sub := out[lane0:]
			// Single-toggle lanes have eff = 1 exactly (MultiMask is
			// empty under zero delay, where counts live in Any alone).
			multi := r.MultiMask(s, k)
			for m := any &^ multi; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros64(m)
				if lane >= len(sub) {
					break
				}
				sub[lane] += eg
			}
			if multi == 0 {
				continue
			}
			b0, ov := r.CountBits(s, k)
			e2 := eff2 * eg
			for m := multi &^ b0 &^ ov; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros64(m)
				if lane >= len(sub) {
					break
				}
				sub[lane] += e2
			}
			e3 := eff3 * eg
			for m := multi & b0 &^ ov; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros64(m)
				if lane >= len(sub) {
					break
				}
				sub[lane] += e3
			}
			// Overflow lanes (count ≥ 4) fall back to full count
			// reconstruction — rare enough that the plane walk is noise.
			for m := ov; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros64(m)
				if lane >= len(sub) {
					break
				}
				n := r.Count(s, k, lane)
				eff := 1 + e.glitch*float64(n-1)
				sub[lane] += eff * eg
			}
		}
	}
	for i := range out {
		out[i] = (out[i]/e.clockS + e.leakW) * 1e3
	}
}

// CycleDetail returns cycle power (W) along with the simulator's settle
// time (ps) and event count, for callers that need more than power (the
// path-delay example uses SettleTime as its random variable).
func (e *Evaluator) CycleDetail(v1, v2 []bool) (powerW float64, settlePS int64, events int) {
	res := e.simulator.RunCycle(v1, v2)
	return e.energyOf(res.Toggles)/e.clockS + e.leakW, res.SettleTime, res.Events
}
