package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sample is one outside look at a daemon: its /metrics series, and for a
// child process the Go allocator totals from the pprof MemStats trailer
// and the CPU and syscall totals from /proc. Everything in it is a
// running total (or gauge), so two samples subtract to what a phase
// cost.
type sample struct {
	prom map[string]int64 // series exactly as exposed, `name{labels}` → value

	mallocs, allocBytes, numGC int64 // pprof: Mallocs, TotalAlloc, NumGC
	userTicks, sysTicks        int64 // /proc/<pid>/stat utime, stime (USER_HZ = 100)
	syscalls                   int64 // /proc/<pid>/io syscr + syscw
}

var httpClient = &http.Client{Timeout: 5 * time.Second}

func httpGet(url string) ([]byte, error) {
	resp, err := httpClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// scrape samples the daemon from outside. An in-process daemon has only
// its registry; the process-level totals stay zero.
func (d *daemon) scrape() (sample, error) {
	var s sample
	var text []byte
	if d.reg != nil {
		var buf bytes.Buffer
		if err := d.reg.WritePrometheus(&buf); err != nil {
			return s, err
		}
		text = buf.Bytes()
	} else {
		var err error
		if text, err = httpGet(d.http + "/metrics"); err != nil {
			return s, err
		}
	}
	s.prom = parseProm(text)
	if d.cmd == nil {
		return s, nil
	}

	prof, err := httpGet(d.http + "/debug/pprof/allocs?debug=1")
	if err != nil {
		return s, err
	}
	s.mallocs = trailerField(prof, "# Mallocs = ")
	s.allocBytes = trailerField(prof, "# TotalAlloc = ")
	s.numGC = trailerField(prof, "# NumGC = ")

	pid := strconv.Itoa(d.cmd.Process.Pid)
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return s, err
	}
	// The command name may hold spaces; fields are counted from the
	// closing parenthesis: state is field 3, utime 14, stime 15.
	if f := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:])); len(f) > 12 {
		s.userTicks, _ = strconv.ParseInt(f[11], 10, 64)
		s.sysTicks, _ = strconv.ParseInt(f[12], 10, 64)
	}
	pio, err := os.ReadFile("/proc/" + pid + "/io")
	if err != nil {
		return s, err
	}
	s.syscalls = trailerField(pio, "syscr: ") + trailerField(pio, "syscw: ")
	return s, nil
}

// parseProm reads a text exposition. Histogram buckets are exposed
// cumulatively with empty buckets omitted, so two scrapes cannot be
// subtracted bucket by bucket as they stand; each `_bucket` series is
// turned back into its own (non-cumulative) count here, after which
// samples add and subtract key by key.
func parseProm(text []byte) map[string]int64 {
	m := make(map[string]int64)
	type bucket struct {
		key string
		ub  int64
	}
	hists := make(map[string][]bucket) // series minus its le label → buckets
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || line[0] == '#' {
			continue
		}
		key := line[:i]
		v, err := strconv.ParseInt(line[i+1:], 10, 64)
		if err != nil {
			continue
		}
		if j := strings.Index(key, `le="`); j >= 0 && strings.Contains(key[:j], "_bucket{") {
			ub, err := strconv.ParseInt(key[j+4:len(key)-2], 10, 64)
			if err != nil {
				continue // le="+Inf" repeats _count
			}
			hists[key[:j]] = append(hists[key[:j]], bucket{key, ub})
		}
		m[key] = v
	}
	for _, bs := range hists {
		sort.Slice(bs, func(a, b int) bool { return bs[a].ub > bs[b].ub })
		for i, b := range bs[:len(bs)-1] {
			m[b.key] -= m[bs[i+1].key]
		}
	}
	return m
}

// trailerField reads the integer that follows prefix at the start of a
// line other than the first ("# Mallocs = 123", "syscr: 45"); 0 when
// absent.
func trailerField(text []byte, prefix string) int64 {
	i := bytes.LastIndex(text, []byte("\n"+prefix))
	if i < 0 {
		return 0
	}
	rest := text[i+1+len(prefix):]
	if j := bytes.IndexByte(rest, '\n'); j >= 0 {
		rest = rest[:j]
	}
	v, _ := strconv.ParseInt(string(bytes.TrimSpace(rest)), 10, 64)
	return v
}

// sub returns s − o field by field; series absent from o count from 0.
func (s sample) sub(o sample) sample {
	d := sample{
		prom:       make(map[string]int64, len(s.prom)),
		mallocs:    s.mallocs - o.mallocs,
		allocBytes: s.allocBytes - o.allocBytes,
		numGC:      s.numGC - o.numGC,
		userTicks:  s.userTicks - o.userTicks,
		sysTicks:   s.sysTicks - o.sysTicks,
		syscalls:   s.syscalls - o.syscalls,
	}
	for k, v := range s.prom {
		d.prom[k] = v - o.prom[k]
	}
	return d
}

// add accumulates o into s: the total over several daemons.
func (s *sample) add(o sample) {
	if s.prom == nil {
		s.prom = make(map[string]int64)
	}
	for k, v := range o.prom {
		s.prom[k] += v
	}
	s.mallocs += o.mallocs
	s.allocBytes += o.allocBytes
	s.numGC += o.numGC
	s.userTicks += o.userTicks
	s.sysTicks += o.sysTicks
	s.syscalls += o.syscalls
}

// total sums every series of a family whose label set contains each of
// the given `key="value"` fragments.
func (s sample) total(family string, labels ...string) int64 {
	var sum int64
	for k, v := range s.prom {
		if seriesMatches(k, family, labels) {
			sum += v
		}
	}
	return sum
}

func seriesMatches(key, family string, labels []string) bool {
	if key != family && !strings.HasPrefix(key, family+"{") {
		return false
	}
	for _, l := range labels {
		if !strings.Contains(key, l) {
			return false
		}
	}
	return true
}

// histQuantile estimates the q-quantile of a log2 histogram family (the
// matching series summed), interpolating linearly inside the bucket
// (ub/2, ub] that holds the rank.
func (s sample) histQuantile(family string, q float64, labels ...string) float64 {
	counts := make(map[int64]int64)
	var n int64
	for k, v := range s.prom {
		if v <= 0 || !seriesMatches(k, family+"_bucket", labels) {
			continue
		}
		i := strings.Index(k, `le="`)
		ub, err := strconv.ParseInt(k[i+4:len(k)-2], 10, 64)
		if i < 0 || err != nil {
			continue
		}
		counts[ub] += v
		n += v
	}
	if n == 0 {
		return 0
	}
	ubs := make([]int64, 0, len(counts))
	for ub := range counts {
		ubs = append(ubs, ub)
	}
	sort.Slice(ubs, func(a, b int) bool { return ubs[a] < ubs[b] })
	rank := q * float64(n)
	var cum float64
	for _, ub := range ubs {
		c := float64(counts[ub])
		if cum+c >= rank {
			lo := float64(ub) / 2
			return lo + (float64(ub)-lo)*(rank-cum)/c
		}
		cum += c
	}
	return float64(ubs[len(ubs)-1])
}
