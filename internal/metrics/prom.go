package metrics

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4): one # HELP and
// # TYPE line per family, then one sample line per series. Histograms
// render their cumulative le buckets plus _sum and _count. Buckets with
// no observations are elided — the format permits any sorted subset of
// bounds as long as +Inf is present, and eliding keeps 40-bucket
// histograms from dominating the scrape.

// WritePrometheus writes the registry in Prometheus text format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.families() {
		if f.help != "" {
			bw.WriteString("# HELP ")
			bw.WriteString(f.name)
			bw.WriteByte(' ')
			bw.WriteString(escapeHelp(f.help))
			bw.WriteByte('\n')
		}
		bw.WriteString("# TYPE ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(f.kind.String())
		bw.WriteByte('\n')
		for _, s := range f.series {
			if f.kind == kindHistogram {
				writeHistogram(bw, f.name, s)
				continue
			}
			writeSample(bw, f.name, "", s.labels, "", s.value())
		}
	}
	return bw.Flush()
}

// writeHistogram renders +Inf and _count from the buckets it read, so a
// racing Observe cannot put a finite bucket above +Inf.
func writeHistogram(bw *bufio.Writer, name string, s *series) {
	var cum int64
	for i := 0; i < HistBuckets; i++ {
		n := s.h.buckets[i].Load()
		if n == 0 {
			continue
		}
		cum += n
		writeSample(bw, name, "_bucket", s.labels,
			strconv.FormatInt(BucketBound(i), 10), cum)
	}
	writeSample(bw, name, "_bucket", s.labels, "+Inf", cum)
	writeSample(bw, name, "_sum", s.labels, "", s.h.Sum())
	writeSample(bw, name, "_count", s.labels, "", cum)
}

// writeSample emits one line: name+suffix{labels,le="le"} value.
func writeSample(bw *bufio.Writer, name, suffix string, labels []Label, le string, v int64) {
	bw.WriteString(name)
	bw.WriteString(suffix)
	if len(labels) > 0 || le != "" {
		bw.WriteByte('{')
		first := true
		for _, l := range labels {
			if !first {
				bw.WriteByte(',')
			}
			first = false
			bw.WriteString(l.Key)
			bw.WriteString(`="`)
			bw.WriteString(escapeLabel(l.Value))
			bw.WriteByte('"')
		}
		if le != "" {
			if !first {
				bw.WriteByte(',')
			}
			bw.WriteString(`le="`)
			bw.WriteString(le)
			bw.WriteByte('"')
		}
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(strconv.FormatInt(v, 10))
	bw.WriteByte('\n')
}

func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
