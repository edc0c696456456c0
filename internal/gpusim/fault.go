package gpusim

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// FaultKind classifies injected device faults, mirroring the NVIDIA XID
// error taxonomy: memory faults (XID 48-class ECC/page-retirement
// errors) fail new allocations, hangs (XID 8/13-class engine timeouts)
// kill in-flight and future kernels, and fatal errors (XID 79 "GPU has
// fallen off the bus") fail everything. Faults are sticky and only
// escalate; device-to-host copies keep working on a faulted device so
// session state remains evacuable for failover.
type FaultKind int

const (
	// FaultNone means the device is healthy.
	FaultNone FaultKind = iota
	// XidMemory fails new device-memory allocations; resident
	// allocations and running kernels are unaffected.
	XidMemory
	// XidHang aborts in-flight kernels and fails new launches;
	// allocations still succeed.
	XidHang
	// XidFatal fails allocations and launches and aborts in-flight
	// kernels.
	XidFatal
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case XidMemory:
		return "memory"
	case XidHang:
		return "hang"
	case XidFatal:
		return "fatal"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// ParseFaultKind parses the spec names used by gvmd -fault-inject.
func ParseFaultKind(s string) (FaultKind, error) {
	switch s {
	case "memory":
		return XidMemory, nil
	case "hang":
		return XidHang, nil
	case "fatal":
		return XidFatal, nil
	default:
		return FaultNone, fmt.Errorf("gpusim: unknown fault kind %q (want memory|hang|fatal)", s)
	}
}

// FaultError is the typed error every operation on a faulted device
// returns; callers distinguish it from ordinary out-of-memory or
// validation errors with errors.As.
type FaultError struct {
	Kind FaultKind
	GPU  int
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("gpusim: gpu %d: xid %s fault", e.GPU, e.Kind)
}

// IsFault unwraps err into a FaultError if it carries one.
func IsFault(err error) (*FaultError, bool) {
	var fe *FaultError
	if errors.As(err, &fe) {
		return fe, true
	}
	return nil, false
}

// SetIndex records the device's GPU index, used to label fault errors
// and telemetry. The node layer assigns it at shard construction.
func (d *Device) SetIndex(i int) { d.index = i }

// Fault returns the device's current fault state. Safe to call from any
// goroutine.
func (d *Device) Fault() FaultKind { return FaultKind(d.fault.Load()) }

// OnFault registers a callback invoked (on the goroutine that injects
// the fault — the shard owner) whenever the device's fault state
// escalates. The node layer uses it to drive shard health.
func (d *Device) OnFault(fn func(FaultKind)) {
	d.onFault = append(d.onFault, fn)
}

// InjectFault puts the device into the given fault state. Faults only
// escalate (injecting a milder kind over a severer one is a no-op).
// Hang and fatal faults abort every in-flight kernel: their completion
// events fire with a *FaultError payload instead of nil, SM budgets are
// returned, and no KernelsRun credit is given. Must be called on the
// device's owner goroutine (for a daemon shard, submit through the ipc
// server's owner loop).
func (d *Device) InjectFault(kind FaultKind) {
	if kind <= d.Fault() {
		return
	}
	d.fault.Store(int32(kind))
	if kind == XidHang || kind == XidFatal {
		d.sched.abortAll(&FaultError{Kind: kind, GPU: d.index})
	}
	for _, fn := range d.onFault {
		fn(kind)
	}
}

// faultFor returns the FaultError operations of class want should fail
// with, or nil when the device is healthy for that class.
func (d *Device) faultFor(want ...FaultKind) error {
	f := d.Fault()
	if f == FaultNone {
		return nil
	}
	for _, k := range want {
		if f == k {
			return &FaultError{Kind: f, GPU: d.index}
		}
	}
	return nil
}

// SetFaultInjector installs a launch-path injector (nil uninstalls).
func (d *Device) SetFaultInjector(fi *FaultInjector) { d.injector = fi }

// FaultInjector decides, per kernel launch, whether to inject a fault —
// either deterministically on the N-th launch or by a seeded coin flip.
// One injector serves one device (the launch path is serialized on the
// device's owner goroutine, so no locking is needed).
type FaultInjector struct {
	after    int64 // inject on the after-th launch; 0 disables
	kind     FaultKind
	rate     float64 // per-launch probability; 0 disables
	kinds    []FaultKind
	rng      *rand.Rand
	launches int64
}

// tick is called once per launch attempt; it injects at most one fault
// over the injector's lifetime.
func (fi *FaultInjector) tick(d *Device) {
	if fi == nil || d.Fault() != FaultNone {
		return
	}
	fi.launches++
	if fi.after > 0 {
		if fi.launches == fi.after {
			d.InjectFault(fi.kind)
		}
		return
	}
	if fi.rate > 0 && fi.rng.Float64() < fi.rate {
		d.InjectFault(fi.kinds[fi.rng.Intn(len(fi.kinds))])
	}
}

// FaultPlan is a parsed -fault-inject spec; it mints per-device
// injectors so each GPU's randomness is independent and deterministic.
type FaultPlan struct {
	gpu   int // target GPU index; -1 = every GPU
	after int64
	kind  FaultKind
	rate  float64
	seed  int64
	kinds []FaultKind
}

// ParseFaultSpec parses a gvmd -fault-inject specification. Two forms,
// both as comma-separated key=value pairs:
//
//	gpu=0,after=25,kind=hang     deterministic: fault GPU 0's 25th launch
//	rate=0.01,seed=7,kinds=hang|fatal   seeded random per-launch coin flip
//
// gpu defaults to every GPU, kind to fatal, kinds to memory|hang|fatal.
func ParseFaultSpec(spec string) (*FaultPlan, error) {
	p := &FaultPlan{gpu: -1, kind: XidFatal, seed: 1}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("gpusim: fault spec field %q is not key=value", field)
		}
		var err error
		switch key {
		case "gpu":
			p.gpu, err = strconv.Atoi(val)
		case "after":
			p.after, err = strconv.ParseInt(val, 10, 64)
		case "kind":
			p.kind, err = ParseFaultKind(val)
		case "rate":
			p.rate, err = strconv.ParseFloat(val, 64)
		case "seed":
			p.seed, err = strconv.ParseInt(val, 10, 64)
		case "kinds":
			for _, name := range strings.Split(val, "|") {
				var k FaultKind
				if k, err = ParseFaultKind(name); err != nil {
					break
				}
				p.kinds = append(p.kinds, k)
			}
		default:
			return nil, fmt.Errorf("gpusim: unknown fault spec key %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("gpusim: fault spec %s=%s: %v", key, val, err)
		}
	}
	if p.after > 0 && p.rate > 0 {
		return nil, fmt.Errorf("gpusim: fault spec mixes after= and rate=")
	}
	if p.after <= 0 && p.rate <= 0 {
		return nil, fmt.Errorf("gpusim: fault spec needs after=N or rate=R")
	}
	if p.rate > 0 && len(p.kinds) == 0 {
		p.kinds = []FaultKind{XidMemory, XidHang, XidFatal}
	}
	return p, nil
}

// ForGPU returns the injector for GPU i, or nil when the plan does not
// target it. Random plans derive each GPU's stream from seed+i so
// multi-GPU runs are reproducible yet uncorrelated.
func (p *FaultPlan) ForGPU(i int) *FaultInjector {
	if p == nil || (p.gpu >= 0 && p.gpu != i) {
		return nil
	}
	fi := &FaultInjector{after: p.after, kind: p.kind, rate: p.rate, kinds: p.kinds}
	if p.rate > 0 {
		fi.rng = rand.New(rand.NewSource(p.seed + int64(i)))
	}
	return fi
}
