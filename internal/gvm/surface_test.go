package gvm_test

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"gpuvirt/internal/fermi"
	"gpuvirt/internal/gpusim"
	"gpuvirt/internal/gvm"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/task"
	"gpuvirt/internal/vgpu"
	"gpuvirt/internal/workloads"
)

// protocolRow is one cell of the protocol's (state, verb) function: a verb
// arriving in a prior state answers status (with errSub in the error text)
// and leaves the session in next.
type protocolRow struct {
	prior  string
	verb   gvm.Verb
	status gvm.Status
	errSub string
	next   string
}

// protocolTable is the six-verb protocol as one table: eight named states
// by the five verbs a session takes (REQ opens it). The verb engine is held
// to it below through two front-ends, and DESIGN.md §3 renders it
// (TestProtocolTableMatchesDesignDoc keeps the two from drifting).
//
// States: idle (opened), staged (idle with input staged), running (STR
// flushed, stream busy), done (cycle complete, results in staging),
// evicted (the manager paged a done session's arena out), abandoned (a
// kernel failed on its own), failed (device fault under the session), rerun (adopted mid-cycle, arena materialized,
// interrupted flush not yet resolved), gone (released).
var protocolTable = []protocolRow{
	{"idle", gvm.SND, gvm.ACK, "", "staged"},
	{"idle", gvm.STR, gvm.ACK, "", "running"},
	{"idle", gvm.STP, gvm.ERR, "STP before STR", "idle"},
	{"idle", gvm.RCV, gvm.ERR, "RCV before completion", "idle"},
	{"idle", gvm.RLS, gvm.ACK, "", "gone"},

	{"staged", gvm.SND, gvm.ACK, "", "staged"},
	{"staged", gvm.STR, gvm.ACK, "", "running"},
	{"staged", gvm.STP, gvm.ERR, "STP before STR", "staged"},
	{"staged", gvm.RCV, gvm.ERR, "RCV before completion", "staged"},
	{"staged", gvm.RLS, gvm.ACK, "", "gone"},

	{"running", gvm.SND, gvm.ACK, "", "running"},
	{"running", gvm.STR, gvm.ERR, "STR while already running", "running"},
	{"running", gvm.STP, gvm.ACK, "", "done"},
	{"running", gvm.RCV, gvm.ERR, "RCV before completion", "running"},
	{"running", gvm.RLS, gvm.ACK, "", "gone"},

	{"done", gvm.SND, gvm.ACK, "", "done"},
	{"done", gvm.STR, gvm.ACK, "", "running"},
	{"done", gvm.STP, gvm.ACK, "", "done"},
	{"done", gvm.RCV, gvm.ACK, "", "done"},
	{"done", gvm.RLS, gvm.ACK, "", "gone"},

	{"evicted", gvm.SND, gvm.ACK, "", "done"},
	{"evicted", gvm.STR, gvm.ACK, "", "running"},
	{"evicted", gvm.STP, gvm.ACK, "", "evicted"},
	{"evicted", gvm.RCV, gvm.ACK, "", "done"},
	{"evicted", gvm.RLS, gvm.ACK, "", "gone"},

	{"abandoned", gvm.SND, gvm.ACK, "", "staged"},
	{"abandoned", gvm.STR, gvm.ACK, "", "running"},
	{"abandoned", gvm.STP, gvm.ERR, gvm.KernelErr, "abandoned"},
	{"abandoned", gvm.RCV, gvm.ERR, gvm.KernelErr, "abandoned"},
	{"abandoned", gvm.RLS, gvm.ACK, "", "gone"},

	{"failed", gvm.SND, gvm.ERR, gvm.RetryableMark, "failed"},
	{"failed", gvm.STR, gvm.ERR, gvm.RetryableMark, "failed"},
	{"failed", gvm.STP, gvm.ERR, gvm.RetryableMark, "failed"},
	{"failed", gvm.RCV, gvm.ERR, gvm.RetryableMark, "failed"},
	{"failed", gvm.RLS, gvm.ACK, "", "gone"},

	{"rerun", gvm.SND, gvm.ACK, "", "staged"},
	{"rerun", gvm.STR, gvm.ACK, "", "running"},
	{"rerun", gvm.STP, gvm.ACK, "", "done"},
	{"rerun", gvm.RCV, gvm.ERR, "RCV before completion", "running"},
	{"rerun", gvm.RLS, gvm.ACK, "", "gone"},
}

// surface drives one session of a fresh manager either bare — the engine's
// own calls, as gvmd's front-ends make them — or through the vgpu
// front-end, as a client of the paper's transport.
type surface struct {
	t  *testing.T
	m  *gvm.Manager
	id int

	bare *gvm.BareSession // bare surface
	// vgpu front-end
	v         *vgpu.VGPU
	input     []byte // what the next SND stages
	collected []byte // where RCV leaves output
}

func newSurface(t *testing.T, bare bool, p *sim.Proc, m *gvm.Manager, spec *task.Spec) *surface {
	sf := &surface{t: t, m: m}
	if !bare {
		v, err := vgpu.Serve(m, vgpu.Config{}).Connect(p, spec)
		if err != nil {
			t.Fatalf("Connect: %v", err)
		}
		sf.v, sf.id = v, m.NewestSession()
		sf.collected = make([]byte, spec.OutBytes)
		return sf
	}
	sf.bare = gvm.OpenBare(t, p, m, gvm.Request{Spec: spec})
	sf.id = sf.bare.ID
	return sf
}

// verb issues v and returns its final outcome. A vgpu client sees an
// outcome as its call's error, and never a WAIT: Wait polls it out.
func (sf *surface) verb(p *sim.Proc, v gvm.Verb) (gvm.Status, string) {
	if sf.v == nil {
		return sf.bare.Verb(p, v)
	}
	var err error
	switch v {
	case gvm.SND:
		err = sf.v.SendInput(p, sf.input)
	case gvm.STR:
		err = sf.v.Start(p)
	case gvm.STP:
		err = sf.v.Wait(p)
	case gvm.RCV:
		err = sf.v.ReceiveOutput(p, sf.collected)
	case gvm.RLS:
		err = sf.v.Release(p)
	}
	if err != nil {
		return gvm.ERR, err.Error()
	}
	return gvm.ACK, ""
}

// clientText is how a vgpu client words the engine's error text msg.
func clientText(v gvm.Verb, msg string) string {
	switch {
	case msg == "":
		return ""
	case v == gvm.STP:
		return "vgpu: STP: " + msg
	default:
		return fmt.Sprintf("vgpu: %v: ERR %s", v, msg)
	}
}

func (sf *surface) must(p *sim.Proc, v gvm.Verb) {
	if st, msg := sf.verb(p, v); st != gvm.ACK {
		sf.t.Fatalf("building prior state: %v answered %v %s", v, st, msg)
	}
}

// stage puts input where SND takes it from; results reads where RCV
// leaves output.
func (sf *surface) stage(data []byte) {
	if sf.v == nil {
		copy(sf.bare.In, data)
	} else {
		sf.input = data
	}
}

func (sf *surface) results() []byte {
	if sf.v == nil {
		return append([]byte(nil), sf.bare.Out...)
	}
	return sf.collected
}

// enter brings a fresh session to the named prior state, through the
// surface's own verbs wherever a verb can get there.
func (sf *surface) enter(p *sim.Proc, prior string, input []byte) {
	sndIn := func() {
		sf.stage(input)
		sf.must(p, gvm.SND)
	}
	cycle := func() {
		sndIn()
		sf.must(p, gvm.STR)
		sf.must(p, gvm.STP)
	}
	switch prior {
	case "idle":
	case "staged":
		sndIn()
	case "running":
		sndIn()
		sf.must(p, gvm.STR)
	case "done":
		cycle()
	case "evicted":
		cycle()
		sf.m.InjectEvicted(p, sf.id)
	case "abandoned":
		sndIn()
		sf.m.InjectAbandoned(sf.id)
	case "failed":
		sndIn()
		sf.m.InjectFailed(sf.id)
	case "rerun":
		sndIn()
		sf.m.InjectRerun(sf.id)
	default:
		sf.t.Fatalf("unknown prior state %q", prior)
	}
	if got := sf.m.StateOf(sf.id); got != prior {
		sf.t.Fatalf("built state %q, want %q", got, prior)
	}
}

// runRow plays one table row on one surface of a fresh functional manager.
func runRow(t *testing.T, bare bool, row protocolRow) (st gvm.Status, msg, next string, rcv []byte) {
	env := sim.NewEnv()
	dev := gpusim.MustNew(env, gpusim.Config{Arch: fermi.TeslaC2070(), Functional: true})
	m := gvm.New(env, gvm.Config{Device: dev})
	m.Start()
	w := workloads.VectorAdd(gvm.SurfaceTestN)
	spec := gvm.SlowKernels(w.Spec(0))
	input := make([]byte, spec.InBytes)
	w.Fill(0, input)
	env.Go(func(p *sim.Proc) {
		p.Wait(m.Ready())
		sf := newSurface(t, bare, p, m, spec)
		sf.enter(p, row.prior, input)
		st, msg = sf.verb(p, row.verb)
		next = m.StateOf(sf.id)
		if st == gvm.ACK && row.verb == gvm.RCV {
			rcv = sf.results()
			if err := w.Check(0, rcv); err != nil {
				t.Errorf("RCV bytes: %v", err)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	return st, msg, next, rcv
}

// TestProtocolTableOnBothSurfaces holds the verb engine to one (state, verb)
// table through two of its front-ends — the vgpu mqueue model (the paper's
// transport, what the simulation drives) and the bare surface (the calls
// gvmd's front-ends make): same status, same error text, same next state,
// same RCV bytes.
func TestProtocolTableOnBothSurfaces(t *testing.T) {
	for _, row := range protocolTable {
		row := row
		t.Run(fmt.Sprintf("%s/%v", row.prior, row.verb), func(t *testing.T) {
			var outs [2]struct {
				st   gvm.Status
				msg  string
				next string
				rcv  []byte
			}
			for i, bare := range []bool{false, true} {
				o := &outs[i]
				o.st, o.msg, o.next, o.rcv = runRow(t, bare, row)
				name := map[bool]string{false: "vgpu", true: "bare"}[bare]
				if o.st != row.status || !strings.Contains(o.msg, row.errSub) || o.next != row.next {
					t.Errorf("%s surface: %v %q -> %s, want %v %q -> %s",
						name, o.st, o.msg, o.next, row.status, row.errSub, row.next)
				}
			}
			if want := clientText(row.verb, outs[1].msg); outs[0].msg != want {
				t.Errorf("error text differs: vgpu %q, bare %q (a client would word that %q)", outs[0].msg, outs[1].msg, want)
			}
			if !bytes.Equal(outs[0].rcv, outs[1].rcv) {
				t.Error("RCV bytes differ between the surfaces")
			}
		})
	}
}

// renderProtocolTable is a protocol table as DESIGN.md carries it.
func renderProtocolTable(rows []protocolRow) string {
	var b strings.Builder
	b.WriteString("| prior state | verb | answer | next state |\n|---|---|---|---|\n")
	for _, r := range rows {
		answer := r.status.String()
		switch {
		case r.errSub == gvm.RetryableMark:
			answer += " retryable"
		case r.errSub == gvm.KernelErr:
			answer += " the kernel's error"
		case r.errSub != "":
			answer += " \"" + r.errSub + "\""
		}
		fmt.Fprintf(&b, "| %s | %v | %s | %s |\n", r.prior, r.verb, answer, r.next)
	}
	return b.String()
}

// TestProtocolTableMatchesDesignDoc renders DESIGN.md's protocol table from
// gvm's own (state, verb) function and holds it row for row to the test's
// independently written protocolTable; a failure prints the block to paste.
func TestProtocolTableMatchesDesignDoc(t *testing.T) {
	var engine []protocolRow
	for _, r := range gvm.ProtocolTable() {
		engine = append(engine, protocolRow{r.Prior, r.Verb, r.Status, r.ErrSub, r.Next})
	}
	const states, verbs = 8, 5
	if len(engine) != states*verbs || len(protocolTable) != states*verbs {
		t.Fatalf("gvm's table has %d rows, the test's %d; want %d states × %d verbs", len(engine), len(protocolTable), states, verbs)
	}
	for i, want := range protocolTable {
		if engine[i] != want {
			t.Errorf("row %d: gvm has %+v, the test %+v", i, engine[i], want)
		}
	}
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if want := renderProtocolTable(engine); !strings.Contains(string(doc), want) {
		t.Fatalf("DESIGN.md does not carry gvm's protocol table; paste:\n%s", want)
	}
}
