package main

import (
	"context"
	"log/slog"
	"reflect"
	"strings"
	"testing"
	"time"
)

// backend is the one backend the rows that do not test -backend name.
var backend = []string{"-backend", "tcp://127.0.0.1:7070"}

// configRows are gvmfed command lines and the field each must set. Every
// flag config defines is a row (TestArchitecture/every-flag-tabled).
var configRows = []struct {
	args []string
	got  func(router) any
	want any
}{
	{backend, func(r router) any { return r.listen }, []string{"tcp://127.0.0.1:7080"}},
	{backend, func(r router) any { return r.fed.Log == nil }, true},
	{[]string{"-backend", "tcp://a:7070", "-backend", "unix:///tmp/b.sock"}, func(r router) any { return r.fed.Backends }, []string{"tcp://a:7070", "unix:///tmp/b.sock"}},
	// An addr file's first line is the address; the metrics URL after it is not.
	{[]string{"-backend-file", "testdata/node.addr"}, func(r router) any { return r.fed.Backends }, []string{"tcp://127.0.0.1:7071"}},
	{append([]string{"-listen", "unix:///tmp/f.sock", "-listen", "tcp://127.0.0.1:0"}, backend...), func(r router) any { return r.listen }, []string{"unix:///tmp/f.sock", "tcp://127.0.0.1:0"}},
	{append([]string{"-placement", "least-sessions"}, backend...), func(r router) any { return r.fed.Placement }, "least-sessions"},
	{append([]string{"-poll", "50ms"}, backend...), func(r router) any { return r.fed.PollInterval }, 50 * time.Millisecond},
	{append([]string{"-addr-file", "/tmp/f.addr"}, backend...), func(r router) any { return r.addrFile }, "/tmp/f.addr"},
	{append([]string{"-metrics", "127.0.0.1:0"}, backend...), func(r router) any { return r.metricsAddr }, "127.0.0.1:0"},
	{append([]string{"-log-level", "info"}, backend...), func(r router) any { return r.fed.Log.Enabled(context.Background(), slog.LevelInfo) }, true},
}

// rejectedRows are command lines config must refuse, each with a word its
// error must carry.
var rejectedRows = []struct {
	args []string
	want string
}{
	{nil, "no backends"},
	{[]string{"-backend-file", "testdata/missing.addr"}, "testdata/missing.addr"},
	{append([]string{"-listen", "ring:///tmp/f.sock"}, backend...), "ring://"},
	{append([]string{"-placement", "slo"}, backend...), "least-sessions"},
	{append([]string{"-log-level", "loud"}, backend...), "-log-level"},
}

// TestConfig holds gvmfed's flag handling to its tables: each accepted
// command line sets the field its row names, and each rejected one fails
// before anything starts.
func TestConfig(t *testing.T) {
	for _, r := range configRows {
		got, err := config(r.args)
		if err != nil {
			t.Errorf("config(%q): %v", r.args, err)
			continue
		}
		if v := r.got(got); !reflect.DeepEqual(v, r.want) {
			t.Errorf("config(%q) sets %#v, want %#v", r.args, v, r.want)
		}
	}
	for _, r := range rejectedRows {
		if _, err := config(r.args); err == nil || !strings.Contains(err.Error(), r.want) {
			t.Errorf("config(%q) = %v, want an error naming %s", r.args, err, r.want)
		}
	}
}
