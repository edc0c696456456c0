package model

import (
	"math"
	"testing"
	"testing/quick"

	"gpuvirt/internal/sim"
)

// tableII returns the paper's measured Table II parameters.
func tableII(name string) Params {
	switch name {
	case "vecadd":
		return Params{
			Name:       "vecadd",
			Ntask:      8,
			Tinit:      1519386 * sim.Microsecond,
			TdataIn:    135874 * sim.Microsecond,
			Tcomp:      38 * sim.Microsecond,
			TdataOut:   66656 * sim.Microsecond,
			TctxSwitch: 148226 * sim.Microsecond,
		}
	case "ep":
		return Params{
			Name:       "ep",
			Ntask:      8,
			Tinit:      1513555 * sim.Microsecond,
			TdataIn:    0,
			Tcomp:      8951346 * sim.Microsecond,
			TdataOut:   55 * sim.Nanosecond,
			TctxSwitch: 220599 * sim.Microsecond,
		}
	}
	panic("unknown")
}

func TestEquation1Structure(t *testing.T) {
	p := Params{Ntask: 3, Tinit: 100, TctxSwitch: 10, TdataIn: 5, Tcomp: 20, TdataOut: 3}
	// (3-1)*(10+5+20+3) + 100 + 5+20+3 = 2*38 + 128 = 204
	if got := p.TotalNoVirt(); got != 204 {
		t.Fatalf("TotalNoVirt = %d, want 204", got)
	}
}

func TestEquation4Structure(t *testing.T) {
	p := Params{Ntask: 3, TdataIn: 5, Tcomp: 20, TdataOut: 3}
	// 3*max(5,3) + 20 + min(5,3) = 15 + 20 + 3 = 38
	if got := p.TotalVirt(); got != 38 {
		t.Fatalf("TotalVirt = %d, want 38", got)
	}
	p.TdataIn, p.TdataOut = 3, 5
	// 3*5 + 20 + 3 = 38
	if got := p.TotalVirt(); got != 38 {
		t.Fatalf("TotalVirt (out-dominant) = %d, want 38", got)
	}
}

// Property: equation (4) equals the branch form of equations (2)/(3).
func TestQuickEq4CombinesEq2Eq3(t *testing.T) {
	f := func(n uint8, tin, tout, tcomp uint32) bool {
		p := Params{
			Ntask:   int(n%16) + 1,
			TdataIn: sim.Duration(tin), TdataOut: sim.Duration(tout),
			Tcomp: sim.Duration(tcomp),
		}
		return p.TotalVirt() == p.totalVirtComputeBound()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: the speedup converges to Smax from below... or above, but
// converges: |S(N) - Smax| is decreasing for large N, and S(N) -> Smax.
func TestQuickSpeedupConvergesToSmax(t *testing.T) {
	f := func(tin, tout, tcomp, tctx uint16) bool {
		p := Params{
			Ntask:      1,
			Tinit:      sim.Duration(tctx) * 10,
			TctxSwitch: sim.Duration(tctx) + 1,
			TdataIn:    sim.Duration(tin) + 1,
			TdataOut:   sim.Duration(tout) + 1,
			Tcomp:      sim.Duration(tcomp),
		}
		smax := p.Smax()
		p.Ntask = 1_000_000
		s1e6 := p.Speedup()
		return math.Abs(s1e6-smax) < 0.01*smax
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: virtualization never loses in the model once Ntask >= 2 (the
// model's Ttotal_vt <= Ttotal_no_vt when each cycle is nonempty), since
// virtualization removes Tinit and context switches and only serializes
// the dominant I/O direction.
func TestQuickVirtNeverSlower(t *testing.T) {
	f := func(n uint8, tin, tout, tcomp, tctx, tinit uint16) bool {
		p := Params{
			Ntask:      int(n%16) + 1,
			Tinit:      sim.Duration(tinit),
			TctxSwitch: sim.Duration(tctx),
			TdataIn:    sim.Duration(tin),
			TdataOut:   sim.Duration(tout),
			Tcomp:      sim.Duration(tcomp),
		}
		return p.TotalVirt() <= p.TotalNoVirt()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: speedup is monotonically non-decreasing in the context-switch
// cost and in Tinit.
func TestQuickSpeedupMonotoneInOverheads(t *testing.T) {
	f := func(n uint8, tin, tcomp, tctx uint16) bool {
		p := Params{
			Ntask:      int(n%8) + 1,
			Tinit:      1000,
			TctxSwitch: sim.Duration(tctx),
			TdataIn:    sim.Duration(tin) + 1,
			TdataOut:   sim.Duration(tin)/2 + 1,
			Tcomp:      sim.Duration(tcomp),
		}
		s := p.Speedup()
		p2 := p
		p2.TctxSwitch += 500
		if p2.Speedup() < s {
			return false
		}
		p3 := p
		p3.Tinit += 500
		return p3.Speedup() >= s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPaperEPSpeedupMatchesTableIII(t *testing.T) {
	// With Table II's EP parameters, equation (5) at 8 processes gives
	// the paper's theoretical speedup of 8.341 (Table III).
	p := tableII("ep")
	if s := p.Speedup(); math.Abs(s-8.341) > 0.01 {
		t.Fatalf("EP theoretical speedup = %.3f, want 8.341 (Table III)", s)
	}
}

func TestPaperVecAddSpeedupOrder(t *testing.T) {
	// The vector-add theoretical speedup from Table II parameters lands
	// in the same band as the paper's Table III (2.7): the paper's exact
	// 2.721 is not reproducible from its published Table II inputs alone,
	// so we assert the band rather than the digit (see EXPERIMENTS.md).
	p := tableII("vecadd")
	s := p.Speedup()
	if s < 2.2 || s > 4.2 {
		t.Fatalf("vecadd theoretical speedup = %.3f, want within [2.2, 4.2]", s)
	}
}

func TestSmaxFormula(t *testing.T) {
	p := Params{Ntask: 4, TctxSwitch: 10, TdataIn: 5, Tcomp: 20, TdataOut: 3}
	want := float64(10+5+20+3) / 5
	if got := p.Smax(); got != want {
		t.Fatalf("Smax = %v, want %v", got, want)
	}
	p.TdataIn, p.TdataOut = 0, 0
	if got := p.Smax(); got != 0 {
		t.Fatalf("Smax with no I/O = %v, want sentinel 0", got)
	}
}

func TestDeviation(t *testing.T) {
	// Paper Table III: EP theoretical 8.341 vs experimental 7.394 is a
	// 12.81% deviation.
	if d := Deviation(8.341, 7.394); math.Abs(d-0.1281) > 0.0005 {
		t.Fatalf("deviation = %v, want ~0.1281", d)
	}
	if Deviation(1, 0) != 0 {
		t.Fatal("deviation with zero experimental should be sentinel 0")
	}
}

func TestCycleTime(t *testing.T) {
	p := Params{Ntask: 1, TdataIn: 5, Tcomp: 20, TdataOut: 3}
	if p.CycleTime() != 28 {
		t.Fatalf("CycleTime = %d, want 28", p.CycleTime())
	}
}

// totalVirtComputeBound is equations (2) and (3) as the paper writes them,
// one per dominant transfer direction: the reference TotalVirt's MAX/MIN
// form is checked against.
func (p Params) totalVirtComputeBound() sim.Duration {
	if p.TdataIn >= p.TdataOut {
		// Equation (2).
		return sim.Duration(p.Ntask)*p.TdataIn + p.Tcomp + p.TdataOut
	}
	// Equation (3).
	return p.TdataIn + p.Tcomp + sim.Duration(p.Ntask)*p.TdataOut
}
