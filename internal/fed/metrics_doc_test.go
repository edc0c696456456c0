package fed

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"gpuvirt/internal/ipc"
	"gpuvirt/internal/metrics"
)

// TestMetricFamiliesMatchDesignDoc holds the metric families a gvmd (with a
// ring:// listener, so the ring series exist) and a gvmfed router register
// to the names DESIGN.md §8 to §12 give, in both directions: a
// family the sections do not name fails, and so does a name nothing
// registers. A `{a,b}` group after an underscore expands to one name per
// member; a trailing `{...}` is a label set; a `prefix_*` row names a
// prefix, which some registered family must carry.
func TestMetricFamiliesMatchDesignDoc(t *testing.T) {
	f := startFed(t, time.Hour, ipc.ServerConfig{Listen: []string{"ring://" + filepath.Join(t.TempDir(), "gvmd.sock")}})
	registered := map[string]bool{}
	for _, reg := range []*metrics.Registry{f.nodes[0].reg, f.r.cfg.Metrics} {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(b.String(), "\n") {
			if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
				registered[f[2]] = true
			}
		}
	}

	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	names, prefixes := map[string]bool{}, map[string]bool{}
	for _, sec := range []string{"8", "9", "10", "11", "12"} {
		text := designSection(t, string(doc), sec)
		for _, m := range metricSpan.FindAllStringSubmatch(text, -1) {
			name := m[1]
			if i := strings.LastIndexByte(name, '{'); i > 0 && name[i-1] != '_' && strings.HasSuffix(name, "}") {
				name = name[:i]
			}
			if p, ok := strings.CutSuffix(name, "*"); ok {
				prefixes[p] = true
				continue
			}
			for _, n := range expandGroups(name) {
				if !metricName.MatchString(n) {
					t.Fatalf("DESIGN.md §%s: cannot read %q as a metric name", sec, m[1])
				}
				names[n] = true
			}
		}
	}
	for fam := range registered {
		if !names[fam] {
			t.Errorf("%s is registered, but DESIGN.md §8 to §12 do not name it", fam)
		}
	}
	for n := range names {
		if !registered[n] {
			t.Errorf("DESIGN.md names %s, but neither gvmd nor gvmfed registers it", n)
		}
	}
	for p := range prefixes {
		found := false
		for fam := range registered {
			found = found || strings.HasPrefix(fam, p)
		}
		if !found {
			t.Errorf("DESIGN.md names the prefix %s*, but no registered family carries it", p)
		}
	}
}

var (
	metricSpan = regexp.MustCompile("`([a-z][a-z0-9]*_[^`\\s]*)`")
	metricName = regexp.MustCompile(`^[a-z][a-z0-9_]*[a-z0-9]$`)
)

// designSection returns DESIGN.md's section "## n. …" up to the next one.
func designSection(t *testing.T, doc, n string) string {
	t.Helper()
	_, rest, ok := strings.Cut(doc, "\n## "+n+". ")
	if !ok {
		t.Fatalf("DESIGN.md has no section %s", n)
	}
	if i := strings.Index(rest, "\n## "); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// expandGroups expands every {a,b} group of s: transport_pool_{gets,puts}_total
// is transport_pool_gets_total and transport_pool_puts_total.
func expandGroups(s string) []string {
	i := strings.IndexByte(s, '{')
	j := strings.IndexByte(s, '}')
	if i < 0 || j < i {
		return []string{s}
	}
	var out []string
	for _, alt := range strings.Split(s[i+1:j], ",") {
		out = append(out, expandGroups(s[:i]+alt+s[j+1:])...)
	}
	return out
}
