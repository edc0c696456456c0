// Package model implements the paper's analytical execution model
// (Section IV): total turnaround time of N SPMD tasks sharing one GPU
// with and without the virtualization layer (equations 1-4), the
// predicted speedup (equation 5) and its asymptotic bound (equation 6).
package model

import "gpuvirt/internal/sim"

// Params are the measured per-task profile parameters of Table I/II.
type Params struct {
	Name       string
	Ntask      int          // number of parallel SPMD tasks (<= Nprocessor)
	Tinit      sim.Duration // total init time for all processes (device + contexts)
	TctxSwitch sim.Duration // average per-process context switch cost
	TdataIn    sim.Duration // average host->device transfer time
	TdataOut   sim.Duration // average device->host transfer time
	Tcomp      sim.Duration // average kernel compute time
}

// CycleTime returns one task's bare execution cycle Tin + Tcomp + Tout
// (Figure 3, excluding initialization).
func (p Params) CycleTime() sim.Duration {
	return p.TdataIn + p.Tcomp + p.TdataOut
}

// TotalNoVirt is equation (1): under conventional sharing, the first task
// pays Tinit and every subsequent task pays a context switch, with whole
// cycles serialized (Figure 4).
//
//	Ttotal_no_vt = (Ntask-1)(Tctx + Tin + Tcomp + Tout)
//	             + Tinit + Tin + Tcomp + Tout
func (p Params) TotalNoVirt() sim.Duration {
	n := sim.Duration(p.Ntask)
	return (n-1)*(p.TctxSwitch+p.CycleTime()) + p.Tinit + p.CycleTime()
}

// TotalVirt is equation (4), the combination of equations (2) and (3):
// under virtualization the transfers in the dominant direction serialize
// on their DMA engine while everything else overlaps, and initialization
// is hidden inside the pre-initialized manager (Figures 5 and 6).
//
//	Ttotal_vt = Ntask * MAX(Tin, Tout) + Tcomp + MIN(Tin, Tout)
func (p Params) TotalVirt() sim.Duration {
	return sim.Duration(p.Ntask)*max(p.TdataIn, p.TdataOut) + p.Tcomp + min(p.TdataIn, p.TdataOut)
}

// Speedup is equation (5): Ttotal_no_vt / Ttotal_vt.
func (p Params) Speedup() float64 {
	tv := p.TotalVirt()
	if tv <= 0 {
		return 0
	}
	return float64(p.TotalNoVirt()) / float64(tv)
}

// Smax is equation (6): the Ntask -> infinity limit of the speedup,
//
//	Smax = (Tctx + Tin + Tcomp + Tout) / MAX(Tin, Tout)
//
// showing that the gain grows with compute time and context-switch cost
// but is bounded by the dominant-direction I/O time.
func (p Params) Smax() float64 {
	m := max(p.TdataIn, p.TdataOut)
	if m <= 0 {
		return 0 // no I/O: unbounded in the model; callers special-case
	}
	return float64(p.TctxSwitch+p.CycleTime()) / float64(m)
}

// Deviation returns the relative deviation of the theoretical speedup
// from a measured speedup, as the paper's Table III reports it:
// (theoretical - experimental) / experimental.
func Deviation(theoretical, experimental float64) float64 {
	if experimental == 0 {
		return 0
	}
	return (theoretical - experimental) / experimental
}

func max(a, b sim.Duration) sim.Duration {
	if a > b {
		return a
	}
	return b
}

func min(a, b sim.Duration) sim.Duration {
	if a < b {
		return a
	}
	return b
}
