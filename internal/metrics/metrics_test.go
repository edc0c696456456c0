package metrics

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("open", "open things")
	g.Set(7)
	g.Dec()
	g.Add(-2)
	g.Inc()
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
}

func TestRegistrationIsIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c", "", L("verb", "SND"))
	b := r.Counter("c", "", L("verb", "SND"))
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	other := r.Counter("c", "", L("verb", "RCV"))
	if a == other {
		t.Fatal("different labels returned the same counter")
	}
	// Label order must not matter.
	h1 := r.Histogram("h", "", L("a", "1"), L("b", "2"))
	h2 := r.Histogram("h", "", L("b", "2"), L("a", "1"))
	if h1 != h2 {
		t.Fatal("label order changed series identity")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering x as a gauge after counter did not panic")
		}
	}()
	r.Gauge("x", "")
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	// Bucket i has inclusive upper bound 2^i; bucket 0 holds v <= 1.
	cases := []struct {
		v      int64
		bucket int
	}{
		{-3, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		before := h.buckets[c.bucket].Load()
		h.Observe(c.v)
		if h.buckets[c.bucket].Load() != before+1 {
			t.Fatalf("Observe(%d) did not land in bucket %d (le=%d)", c.v, c.bucket, BucketBound(c.bucket))
		}
	}
	var sum int64
	for _, c := range cases {
		if c.v > 0 {
			sum += c.v
		}
	}
	if h.Sum() != sum {
		t.Fatalf("sum = %d, want %d", h.Sum(), sum)
	}
	// An observation beyond the last finite bound clamps into the last
	// bucket: dropping it would leave count ahead of the bucket sum and
	// permanently skew every later Quantile toward the max bound.
	var big Histogram
	big.Observe(1 << 45)
	if got := big.buckets[HistBuckets-1].Load(); got != 1 {
		t.Fatalf("overflow observation: last bucket = %d, want 1", got)
	}
	for i := 0; i < HistBuckets-1; i++ {
		if big.buckets[i].Load() != 0 {
			t.Fatalf("overflow observation landed in bucket %d", i)
		}
	}
}

// TestHistogramOverflowRoundTrip pins the overflow-clamp fix: an
// observation beyond the last finite bound must round-trip through
// Quantile and a scrape like any other observation. Pre-fix, Observe
// added it to count/sum but no bucket, so a histogram holding only
// overflow observations reported cumulative buckets that never reach
// count and (with rank computed from count) every quantile flashed to
// the max bound even at q→0.
func TestHistogramOverflowRoundTrip(t *testing.T) {
	var h Histogram
	h.Observe(1 << 45)
	if got := h.Quantile(0.5); got != BucketBound(HistBuckets-1) {
		t.Fatalf("overflow p50 = %d, want last finite bound %d", got, BucketBound(HistBuckets-1))
	}
	if got := h.Quantile(1); got != BucketBound(HistBuckets-1) {
		t.Fatalf("overflow p100 = %d, want last finite bound %d", got, BucketBound(HistBuckets-1))
	}
	// Mix with a small observation: the overflow must count as one real
	// observation above it, not vanish from the distribution.
	h.Observe(1)
	if got := h.Quantile(0.5); got != 1 {
		t.Fatalf("mixed p50 = %d, want 1", got)
	}
	var sum int64
	for i := 0; i < HistBuckets; i++ {
		sum += h.buckets[i].Load()
	}
	if sum != 2 {
		t.Fatalf("bucket sum %d after two observations, one of them an overflow", sum)
	}
	r := NewRegistry()
	rh := r.Histogram("ovf_ns", "")
	rh.Observe(1 << 45)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if last := fmt.Sprintf("ovf_ns_bucket{le=\"%d\"} 1\n", BucketBound(HistBuckets-1)); !strings.Contains(sb.String(), last) {
		t.Fatalf("scrape's cumulative buckets never reach the count (no %q):\n%s", last, sb.String())
	}
}

// TestHistogramQuantileTornObserve: a Quantile racing an in-flight Observe
// must never report the max bound for a distribution that contains no
// large observation. Once a count word was bumped before the bucket, so a
// reader could load count=1 with all buckets still zero, walk off the end
// and return BucketBound(39): a phantom ~9-minute p99 that steers the slo
// placement policy away from a healthy shard. The count is the bucket sum
// now; the torn state left (bucket visible, sum not yet) resolves sanely.
func TestHistogramQuantileTornObserve(t *testing.T) {
	var h Histogram
	h.buckets[7].Store(1)
	if got := h.Quantile(0.99); got != BucketBound(7) {
		t.Fatalf("bucket-only torn state: p99 = %d, want %d", got, BucketBound(7))
	}
}

// TestHistogramScrapeTornObserve scrapes a histogram caught between an
// Observe's bucket bump and its sum bump: the exposition must stay valid
// Prometheus, with +Inf at or above every finite bucket and _count equal
// to +Inf. Rendering both from a count word once put le="8" above +Inf.
func TestHistogramScrapeTornObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("torn_ns", "")
	h.Observe(700)
	h.buckets[3].Add(1) // an Observe(5) whose sum bump is not visible yet
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	var maxFinite, inf, count int64 = -1, -1, -1
	for _, line := range strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n") {
		sp := strings.LastIndexByte(line, ' ')
		v, _ := strconv.ParseInt(line[sp+1:], 10, 64)
		switch {
		case strings.Contains(line, `le="+Inf"`):
			inf = v
		case strings.Contains(line, `le="`):
			maxFinite = max(maxFinite, v)
		case strings.HasPrefix(line, "torn_ns_count "):
			count = v
		}
	}
	if inf < maxFinite || count != inf {
		t.Fatalf("+Inf %d, largest finite bucket %d, _count %d; want +Inf >= every finite bucket and _count == +Inf:\n%s",
			inf, maxFinite, count, sb.String())
	}
}

// TestHistogramQuantileConcurrentObserve hammers Quantile against a
// writer that only ever observes values <= 1000 (bucket le=1024). Any
// reader seeing a quantile above 1024 has manufactured a tail that was
// never observed. Fails pre-fix within a few thousand iterations on a
// multicore box; run with -race in CI either way.
func TestHistogramQuantileConcurrentObserve(t *testing.T) {
	var h Histogram
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				h.Observe(1000)
			}
		}
	}()
	for i := 0; i < 200_000; i++ {
		if got := h.Quantile(0.99); got > 1024 {
			close(stop)
			wg.Wait()
			t.Fatalf("iteration %d: p99 = %d for a stream of 1000-valued observations (want <= 1024)", i, got)
		}
	}
	close(stop)
	wg.Wait()
}

// Quantile estimates the q-quantile (0 < q <= 1) of the observed
// distribution as the upper bound of the bucket holding the rank-q
// observation — an overestimate by at most 2x, which is what a log2
// histogram can promise. It returns 0 when nothing has been observed.
// Safe to call concurrently with Observe: the rank is computed against
// the bucket counts actually read, so an Observe racing the scrape can
// never push the rank past the buckets and flash the max bound as a
// phantom tail.
func (h *Histogram) Quantile(q float64) int64 {
	var counts [HistBuckets]int64
	var total int64
	for i := 0; i < HistBuckets; i++ {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for i := 0; i < HistBuckets; i++ {
		cum += counts[i]
		if cum >= rank {
			return BucketBound(i)
		}
	}
	return BucketBound(HistBuckets - 1)
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram p99 = %d, want 0", got)
	}
	// 99 fast observations and one slow: the p50 resolves to the fast
	// bucket's bound, the p99 and p100 to the slow one's. Quantiles are
	// bucket upper bounds (powers of two), so use exact-bound values.
	for i := 0; i < 99; i++ {
		h.Observe(100) // bucket le=128
	}
	h.Observe(100_000) // bucket le=131072
	if got := h.Quantile(0.5); got != 128 {
		t.Fatalf("p50 = %d, want 128", got)
	}
	if got := h.Quantile(0.98); got != 128 {
		t.Fatalf("p98 = %d, want 128", got)
	}
	if got := h.Quantile(0.99); got != 128 {
		t.Fatalf("p99 (rank 99 of 100) = %d, want 128", got)
	}
	if got := h.Quantile(0.995); got != 131072 {
		t.Fatalf("p99.5 = %d, want 131072", got)
	}
	if got := h.Quantile(1); got != 131072 {
		t.Fatalf("p100 = %d, want 131072", got)
	}
	// An observation beyond the last finite bucket saturates quantiles at
	// the largest finite bound rather than inventing a value.
	var big Histogram
	big.Observe(1 << 45)
	if got := big.Quantile(0.5); got != BucketBound(HistBuckets-1) {
		t.Fatalf("overflow p50 = %d, want last finite bound %d", got, BucketBound(HistBuckets-1))
	}
}

func TestFuncInstruments(t *testing.T) {
	r := NewRegistry()
	n := int64(41)
	r.CounterFunc("fn_total", "func counter", func() int64 { return n })
	n++
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "\nfn_total 42\n") {
		t.Fatalf("func counter scrape = %q, want value 42", sb.String())
	}
}

// promLine matches one Prometheus text sample line.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?\d+$`)

func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("verb_requests_total", "requests by verb", L("verb", "SND")).Add(9)
	r.Counter("verb_requests_total", "requests by verb", L("verb", "RCV")).Add(2)
	r.Gauge("open_sessions", "live sessions").Set(4)
	h := r.Histogram("verb_latency_ns", "latency", L("verb", "SND"))
	h.Observe(700)
	h.Observe(90)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("malformed sample line %q in:\n%s", line, text)
		}
	}
	for _, want := range []string{
		"# TYPE verb_requests_total counter",
		`verb_requests_total{verb="SND"} 9`,
		`verb_requests_total{verb="RCV"} 2`,
		"open_sessions 4",
		"# TYPE verb_latency_ns histogram",
		`verb_latency_ns_bucket{verb="SND",le="128"} 1`,
		`verb_latency_ns_bucket{verb="SND",le="1024"} 2`,
		`verb_latency_ns_bucket{verb="SND",le="+Inf"} 2`,
		`verb_latency_ns_sum{verb="SND"} 790`,
		`verb_latency_ns_count{verb="SND"} 2`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "", L("path", `a"b\c`+"\n")).Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `c_total{path="a\"b\\c\n"} 1`) {
		t.Fatalf("label not escaped: %s", sb.String())
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hammer_total", "", L("verb", "SND"))
			h := r.Histogram("hammer_ns", "")
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(int64(j))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 50; j++ {
			var sb strings.Builder
			_ = r.WritePrometheus(&sb)
		}
	}()
	wg.Wait()
	if got := r.Counter("hammer_total", "", L("verb", "SND")).Value(); got != 4000 {
		t.Fatalf("counter = %d, want 4000", got)
	}
}
