// Package metrics is the daemon's telemetry registry: atomic counters,
// gauges and fixed-bucket (log2) histograms that cost one atomic
// operation per update and allocate nothing on the hot path, plus a
// Prometheus-text-format encoder (prom.go).
//
// Instruments are registered once (registration is idempotent: asking
// for the same name+labels returns the same instrument) and updated from
// any goroutine; scrapes read the atomics without stopping writers. This
// is the single sanctioned way to export runtime state from the daemon
// path — the gvm.Manager statistics, the transport dispatcher's per-verb
// accounting and the ipc server's connection counters all live here, so
// none of them can race under concurrent readers.
package metrics

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value pair attached to an instrument.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must not be negative; counters only go up).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// HistBuckets is the number of finite histogram buckets. Bucket i has
// the upper bound 2^i: bucket 0 counts observations <= 1, bucket i
// counts 2^(i-1) < v <= 2^i. The last bound is 2^39 (~9.2 minutes when
// observing nanoseconds, 512 GiB when observing bytes); larger
// observations clamp into the last bucket, so every observation lands
// in exactly one bucket and the bucket sum always equals the number of
// completed Observe calls.
const HistBuckets = 40

// Histogram is a fixed-bucket log2 histogram: Observe costs two atomic
// adds and no float math, which keeps it viable inside the verb hot path.
// Its count is the sum of its buckets.
type Histogram struct {
	buckets [HistBuckets]atomic.Int64
	sum     atomic.Int64
}

// Observe records one value (negative values clamp to zero, values
// beyond the largest finite bound clamp into the last bucket).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	idx := 0
	if v > 1 {
		idx = bits.Len64(uint64(v - 1))
	}
	if idx >= HistBuckets {
		idx = HistBuckets - 1
	}
	h.buckets[idx].Add(1)
	h.sum.Add(v)
}

// Sum returns the running total of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// BucketBound returns bucket i's inclusive upper bound (2^i).
func BucketBound(i int) int64 { return 1 << uint(i) }

type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labelled instrument inside a family. Exactly one of
// c/g/h/fn is set; fn-backed series read their value at scrape time.
type series struct {
	labels []Label // sorted by key
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() int64
}

type family struct {
	name   string
	help   string
	kind   kind
	series []*series          // registration order
	byKey  map[string]*series // label-set key -> series
}

// Registry holds a set of instrument families. The zero value is not
// usable; create one with NewRegistry. Registration takes a mutex;
// instrument updates and reads never do.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// Counter registers (or returns the existing) counter name{labels}.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.register(name, help, kindCounter, labels, nil)
	if s.c == nil {
		panic(fmt.Sprintf("metrics: %s is func-backed, not a settable counter", name))
	}
	return s.c
}

// Gauge registers (or returns the existing) gauge name{labels}.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.register(name, help, kindGauge, labels, nil)
	if s.g == nil {
		panic(fmt.Sprintf("metrics: %s is func-backed, not a settable gauge", name))
	}
	return s.g
}

// Histogram registers (or returns the existing) histogram name{labels}.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	return r.register(name, help, kindHistogram, labels, nil).h
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge for counters that already live elsewhere as atomics
// (e.g. the transport buffer pool's package-level statistics).
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	r.register(name, help, kindCounter, labels, fn)
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...Label) {
	r.register(name, help, kindGauge, labels, fn)
}

// Value reads the counter or gauge name{labels}, if the registry holds it.
func (r *Registry) Value(name string, labels ...Label) (v int64, ok bool) {
	_, key := seriesKey(labels)
	r.mu.Lock()
	var s *series
	if f := r.fams[name]; f != nil {
		s = f.byKey[key]
	}
	r.mu.Unlock()
	if s == nil {
		return 0, false
	}
	return s.value(), true
}

// seriesKey sorts a copy of labels and encodes them as a family's map key.
func seriesKey(labels []Label) ([]Label, string) {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var key strings.Builder
	for _, l := range ls {
		key.WriteString(l.Key)
		key.WriteByte(0xff)
		key.WriteString(l.Value)
		key.WriteByte(0xfe)
	}
	return ls, key.String()
}

func (r *Registry) register(name, help string, k kind, labels []Label, fn func() int64) *series {
	ls, key := seriesKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k, byKey: make(map[string]*series)}
		r.fams[name] = f
		r.order = append(r.order, f)
	} else if f.kind != k {
		panic(fmt.Sprintf("metrics: %s registered as %v, requested as %v", name, f.kind, k))
	}
	if s := f.byKey[key]; s != nil {
		return s
	}
	s := &series{labels: ls, fn: fn}
	if fn == nil {
		switch k {
		case kindCounter:
			s.c = &Counter{}
		case kindGauge:
			s.g = &Gauge{}
		case kindHistogram:
			s.h = &Histogram{}
		}
	}
	f.byKey[key] = s
	f.series = append(f.series, s)
	return s
}

// families copies the family list, and each family's series list, under
// the registry lock: a scrape walks the copy while sessions go on
// registering new series (a first session of a weight class does).
func (r *Registry) families() []family {
	r.mu.Lock()
	defer r.mu.Unlock()
	fams := make([]family, len(r.order))
	for i, f := range r.order {
		fams[i] = family{name: f.name, help: f.help, kind: f.kind, series: append([]*series(nil), f.series...)}
	}
	return fams
}

// value reads a counter/gauge series (fn-backed or atomic).
func (s *series) value() int64 {
	switch {
	case s.fn != nil:
		return s.fn()
	case s.c != nil:
		return s.c.Value()
	case s.g != nil:
		return s.g.Value()
	}
	return 0
}
