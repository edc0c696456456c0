package main

import (
	"context"
	"log/slog"
	"reflect"
	"strings"
	"testing"
	"time"

	"gpuvirt/internal/fermi"
	"gpuvirt/internal/gpusim"
)

// configRows are gvmd command lines and the field each must set. Every flag
// config defines is a row (TestArchitecture/every-flag-tabled).
var configRows = []struct {
	args []string
	got  func(daemon) any
	want any
}{
	{nil, func(d daemon) any { return d.srv.Listen }, []string{"unix:///tmp/gvmd.sock"}},
	{nil, func(d daemon) any { return d.srv.Arch }, fermi.TeslaC2070()},
	{nil, func(d daemon) any { return d.srv.Slog.Enabled(context.Background(), slog.LevelError) }, true},
	{[]string{"-listen", "ring:///tmp/g.sock", "-listen", "tcp://127.0.0.1:0"}, func(d daemon) any { return d.srv.Listen }, []string{"ring:///tmp/g.sock", "tcp://127.0.0.1:0"}},
	{[]string{"-addr-file", "/tmp/g.addr"}, func(d daemon) any { return d.addrFile }, "/tmp/g.addr"},
	{[]string{"-parties", "4"}, func(d daemon) any { return d.srv.Parties }, 4},
	{[]string{"-functional=false"}, func(d daemon) any { return d.srv.Functional }, false},
	{[]string{"-shm", "/tmp/shm"}, func(d daemon) any { return d.srv.ShmDir }, "/tmp/shm"},
	{[]string{"-gpus", "2"}, func(d daemon) any { return d.srv.GPUs }, 2},
	{[]string{"-placement", "least-sessions"}, func(d daemon) any { return d.srv.Placement }, "least-sessions"},
	{[]string{"-barrier-timeout", "5ms"}, func(d daemon) any { return d.srv.BarrierTimeout }, 5 * time.Millisecond},
	{[]string{"-max-session-bytes", "1048576"}, func(d daemon) any { return d.srv.MaxSessionBytes }, int64(1 << 20)},
	{[]string{"-overcommit", "4"}, func(d daemon) any { return d.srv.Overcommit }, 4.0},
	{[]string{"-mem", "1576960"}, func(d daemon) any { return d.srv.Arch.MemBytes }, int64(1576960)},
	{[]string{"-metrics", "127.0.0.1:0"}, func(d daemon) any { return d.metricsAddr }, "127.0.0.1:0"},
	{[]string{"-fault-inject", "gpu=0,after=25,kind=hang"}, func(d daemon) any { return d.srv.FaultPlan }, faultPlan("gpu=0,after=25,kind=hang")},
	{[]string{"-log-level", "debug"}, func(d daemon) any { return d.srv.Slog.Enabled(context.Background(), slog.LevelDebug) }, true},
	{[]string{"-log-level", ""}, func(d daemon) any { return d.srv.Slog == nil }, true},
}

// rejectedRows are command lines config must refuse, each with a word its
// error must carry.
var rejectedRows = []struct {
	args []string
	want string
}{
	{[]string{"-placement", "slo"}, "least-sessions"},
	{[]string{"-placement", "least-memory"}, "least-sessions"},
	{[]string{"-placement", "weighted-bytes"}, "least-sessions"},
	{[]string{"-arch", "c2070"}, "-arch"},
	{[]string{"-mem", "-1"}, "-mem"},
	{[]string{"-fault-inject", "gpu=0,after"}, "-fault-inject"},
	{[]string{"-log-level", "loud"}, "-log-level"},
}

func faultPlan(spec string) *gpusim.FaultPlan {
	p, err := gpusim.ParseFaultSpec(spec)
	if err != nil {
		panic(err)
	}
	return p
}

// TestConfig holds gvmd's flag handling to its tables: each accepted
// command line sets the field its row names, and each rejected one fails
// before anything starts.
func TestConfig(t *testing.T) {
	for _, r := range configRows {
		d, err := config(r.args)
		if err != nil {
			t.Errorf("config(%q): %v", r.args, err)
			continue
		}
		if got := r.got(d); !reflect.DeepEqual(got, r.want) {
			t.Errorf("config(%q) sets %#v, want %#v", r.args, got, r.want)
		}
	}
	for _, r := range rejectedRows {
		if _, err := config(r.args); err == nil || !strings.Contains(err.Error(), r.want) {
			t.Errorf("config(%q) = %v, want an error naming %s", r.args, err, r.want)
		}
	}
}
