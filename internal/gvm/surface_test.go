package gvm

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/fermi"
	"gpuvirt/internal/gpusim"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/task"
	"gpuvirt/internal/workloads"
)

// protocolRow is one cell of the protocol's (state, verb) function: a verb
// arriving in a prior state answers status (with errSub in the error text)
// and leaves the session in next.
type protocolRow struct {
	prior  string
	verb   Verb
	status Status
	errSub string
	next   string
}

// protocolTable is the six-verb protocol (plus SUS/RES) as one table. Both
// of the manager's surfaces are held to it below, and DESIGN.md §3 renders
// it (TestProtocolTableMatchesDesignDoc keeps the two from drifting).
//
// States: idle (opened), staged (idle with input staged), running (STR
// flushed, stream busy), done (cycle complete, results in staging),
// suspended (client SUS on a done session), evicted (the manager paged a
// done session's arena out), failed (device fault under the session),
// rerun (adopted mid-cycle, arena materialized, interrupted flush not yet
// resolved), gone (released).
var protocolTable = []protocolRow{
	{"idle", SND, ACK, "", "staged"},
	{"idle", STR, ACK, "", "running"},
	{"idle", STP, ERR, "STP before STR", "idle"},
	{"idle", RCV, ERR, "RCV before completion", "idle"},
	{"idle", RLS, ACK, "", "gone"},
	{"idle", SUS, ACK, "", "suspended"},
	{"idle", RES, ERR, "RES without SUS", "idle"},

	{"staged", SND, ACK, "", "staged"},
	{"staged", STR, ACK, "", "running"},
	{"staged", STP, ERR, "STP before STR", "staged"},
	{"staged", RCV, ERR, "RCV before completion", "staged"},
	{"staged", RLS, ACK, "", "gone"},
	{"staged", SUS, ACK, "", "suspended"},
	{"staged", RES, ERR, "RES without SUS", "staged"},

	{"running", SND, ACK, "", "running"},
	{"running", STR, ERR, "STR while already running", "running"},
	{"running", STP, ACK, "", "done"},
	{"running", RCV, ERR, "RCV before completion", "running"},
	{"running", RLS, ACK, "", "gone"},
	{"running", SUS, ERR, "SUS while running", "running"},
	{"running", RES, ERR, "RES without SUS", "running"},

	{"done", SND, ACK, "", "done"},
	{"done", STR, ACK, "", "running"},
	{"done", STP, ACK, "", "done"},
	{"done", RCV, ACK, "", "done"},
	{"done", RLS, ACK, "", "gone"},
	{"done", SUS, ACK, "", "suspended"},
	{"done", RES, ERR, "RES without SUS", "done"},

	{"suspended", SND, ERR, "SND on suspended session", "suspended"},
	{"suspended", STR, ERR, "STR on suspended session", "suspended"},
	{"suspended", STP, ACK, "", "suspended"},
	{"suspended", RCV, ERR, "RCV on suspended session", "suspended"},
	{"suspended", RLS, ACK, "", "gone"},
	{"suspended", SUS, ERR, "already suspended", "suspended"},
	{"suspended", RES, ACK, "", "done"},

	{"evicted", SND, ACK, "", "done"},
	{"evicted", STR, ACK, "", "running"},
	{"evicted", STP, ACK, "", "evicted"},
	{"evicted", RCV, ACK, "", "done"},
	{"evicted", RLS, ACK, "", "gone"},
	{"evicted", SUS, ACK, "", "suspended"},
	{"evicted", RES, ACK, "", "done"},

	{"failed", SND, ERR, RetryableMark, "failed"},
	{"failed", STR, ERR, RetryableMark, "failed"},
	{"failed", STP, ERR, RetryableMark, "failed"},
	{"failed", RCV, ERR, RetryableMark, "failed"},
	{"failed", RLS, ACK, "", "gone"},
	{"failed", SUS, ERR, RetryableMark, "failed"},
	{"failed", RES, ERR, RetryableMark, "failed"},

	{"rerun", SND, ACK, "", "staged"},
	{"rerun", STR, ACK, "", "running"},
	{"rerun", STP, ACK, "", "done"},
	{"rerun", RCV, ERR, "RCV before completion", "running"},
	{"rerun", RLS, ACK, "", "gone"},
	{"rerun", SUS, ACK, "", "suspended"},
	{"rerun", RES, ERR, "RES without SUS", "rerun"},
}

// The table's cycle is a small vecadd (a fresh functional manager per row
// and surface must stay cheap) whose kernel is costed up until "running"
// comfortably outlasts the queue surface's 80 us of message hops.
const (
	surfaceTestN     = 1024
	surfaceTestScale = 2e4
)

// surface drives one session of a fresh manager through one of its two
// faces.
type surface struct {
	t      *testing.T
	env    *sim.Env
	m      *Manager
	id     int
	staged bool // the harness's only own state: gvm does not track SND

	// queue surface
	reply *Queue[Response]
	// daemon surface
	in, out []byte
	outcome *sim.Event
	st      Status
	msg     string
}

func newSurface(t *testing.T, daemon bool, p *sim.Proc, m *Manager, spec *task.Spec) *surface {
	sf := &surface{t: t, env: m.Env(), m: m}
	if !daemon {
		sf.reply = NewQueue[Response](sf.env, 0, m.MsgLatency())
		m.RequestQueue().Send(p, Request{Verb: REQ, Spec: spec, Reply: sf.reply})
		r := sf.reply.Recv(p)
		if r.Status != ACK {
			t.Fatalf("REQ: %s", r.Err)
		}
		sf.id = r.Session
		return sf
	}
	id, err := m.OpenSession(p, Request{Spec: spec})
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	sf.id = id
	sf.bind(make([]byte, spec.InBytes), make([]byte, spec.OutBytes))
	return sf
}

// bind makes in/out the daemon session's staging and the surface its
// control surface.
func (sf *surface) bind(in, out []byte) {
	sf.in, sf.out = in, out
	if err := sf.m.BindDirect(sf.id, in, out, func(_ Verb, st Status, msg string) {
		sf.st, sf.msg = st, msg
		sf.outcome.Fire(nil)
	}); err != nil {
		sf.t.Fatalf("BindDirect: %v", err)
	}
}

// verb issues v and returns its final outcome; the queue surface's WAIT
// is the paper's poll and is re-sent until it resolves.
func (sf *surface) verb(p *sim.Proc, v Verb) (Status, string) {
	if sf.reply == nil {
		sf.outcome = sf.env.NewEvent()
		if err := sf.m.DirectVerb(sf.id, v); err != nil {
			sf.t.Fatalf("DirectVerb %v: %v", v, err)
		}
		p.Wait(sf.outcome)
		return sf.st, sf.msg
	}
	for {
		sf.m.RequestQueue().Send(p, Request{Session: sf.id, Verb: v})
		r := sf.reply.Recv(p)
		if r.Status != WAIT {
			return r.Status, r.Err
		}
		p.Sleep(50 * sim.Microsecond)
	}
}

func (sf *surface) must(p *sim.Proc, v Verb) {
	if st, msg := sf.verb(p, v); st != ACK {
		sf.t.Fatalf("building prior state: %v answered %v %s", v, st, msg)
	}
}

// stage puts input where SND takes it from; results reads where RCV
// leaves output.
func (sf *surface) stage(data []byte) {
	if sf.reply == nil {
		copy(sf.in, data)
	} else if err := sf.m.Segment(sf.id).WriteAt(data, 0); err != nil {
		sf.t.Fatal(err)
	}
}

func (sf *surface) results() []byte {
	if sf.reply == nil {
		return append([]byte(nil), sf.out...)
	}
	s := sf.m.sessions[sf.id]
	buf := make([]byte, s.spec.OutBytes)
	if err := s.seg.ReadAt(buf, s.spec.InBytes); err != nil {
		sf.t.Fatal(err)
	}
	return buf
}

// state names where the session stands, from the manager's own fields.
func (sf *surface) state() string {
	s, ok := sf.m.sessions[sf.id]
	switch {
	case !ok:
		return "gone"
	case s.failed != nil:
		return "failed"
	case s.susp != nil && s.evicted:
		return "evicted"
	case s.susp != nil:
		return "suspended"
	case s.running:
		return "running"
	case s.done:
		return "done"
	case s.rerunPending:
		return "rerun"
	case sf.staged:
		return "staged"
	default:
		return "idle"
	}
}

// enter brings a fresh session to the named prior state, through the
// surface's own verbs wherever a verb can get there.
func (sf *surface) enter(p *sim.Proc, prior string, input []byte) {
	s := sf.m.sessions[sf.id]
	sndIn := func() {
		sf.stage(input)
		sf.must(p, SND)
		sf.staged = true
	}
	cycle := func() {
		sndIn()
		sf.must(p, STR)
		sf.must(p, STP)
	}
	switch prior {
	case "idle":
	case "staged":
		sndIn()
	case "running":
		sndIn()
		sf.must(p, STR)
	case "done":
		cycle()
	case "suspended":
		cycle()
		sf.must(p, SUS)
	case "evicted":
		cycle()
		s.evicted = true // what evictForAlloc does to its victim
		sf.m.suspendSession(p, s)
	case "failed":
		sndIn()
		s.failed = errors.New("injected device fault")
	case "rerun":
		sndIn()
		s.rerunPending = true // what AdoptSession leaves of an interrupted cycle
	default:
		sf.t.Fatalf("unknown prior state %q", prior)
	}
	if got := sf.state(); got != prior {
		sf.t.Fatalf("built state %q, want %q", got, prior)
	}
}

// slowKernels costs spec's kernels up by surfaceTestScale, so a flush stays
// "running" long enough to be observed.
func slowKernels(spec *task.Spec) *task.Spec {
	build := spec.Build
	spec.Build = func(b *task.Buffers) ([]*cuda.Kernel, error) {
		ks, err := build(b)
		for _, k := range ks {
			k.CyclesPerThread *= surfaceTestScale
		}
		return ks, err
	}
	return spec
}

// runRow plays one table row on one surface of a fresh functional manager.
func runRow(t *testing.T, daemon bool, row protocolRow) (st Status, msg, next string, rcv []byte) {
	env := sim.NewEnv()
	dev := gpusim.MustNew(env, gpusim.Config{Arch: fermi.TeslaC2070(), Functional: true})
	m := New(env, Config{Device: dev, PinnedStaging: true})
	m.Start()
	w := workloads.VectorAdd(surfaceTestN)
	spec := slowKernels(w.Spec(0))
	input := make([]byte, spec.InBytes)
	w.Fill(0, input)
	env.Go("driver", func(p *sim.Proc) {
		p.Wait(m.Ready())
		sf := newSurface(t, daemon, p, m, spec)
		sf.enter(p, row.prior, input)
		st, msg = sf.verb(p, row.verb)
		if st == ACK && row.verb == SND {
			sf.staged = true
		}
		next = sf.state()
		if st == ACK && row.verb == RCV {
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

// TestProtocolTableOnBothSurfaces holds the queue surface (the paper's
// model, what vgpu drives) and the daemon surface (what gvmd's front-ends
// drive) to one (state, verb) table: same status, same error text, same
// next state, same RCV bytes.
func TestProtocolTableOnBothSurfaces(t *testing.T) {
	for _, row := range protocolTable {
		row := row
		t.Run(fmt.Sprintf("%s/%v", row.prior, row.verb), func(t *testing.T) {
			var outs [2]struct {
				st   Status
				msg  string
				next string
				rcv  []byte
			}
			for i, daemon := range []bool{false, true} {
				o := &outs[i]
				o.st, o.msg, o.next, o.rcv = runRow(t, daemon, row)
				name := map[bool]string{false: "queue", true: "daemon"}[daemon]
				if o.st != row.status || !strings.Contains(o.msg, row.errSub) || o.next != row.next {
					t.Errorf("%s surface: %v %q -> %s, want %v %q -> %s",
						name, o.st, o.msg, o.next, row.status, row.errSub, row.next)
				}
			}
			if outs[0].msg != outs[1].msg {
				t.Errorf("error text differs: queue %q, daemon %q", outs[0].msg, outs[1].msg)
			}
			if !bytes.Equal(outs[0].rcv, outs[1].rcv) {
				t.Error("RCV bytes differ between the surfaces")
			}
		})
	}
}

// renderProtocolTable is the table as DESIGN.md carries it.
func renderProtocolTable() string {
	var b strings.Builder
	b.WriteString("| prior state | verb | answer | next state |\n|---|---|---|---|\n")
	for _, r := range protocolTable {
		answer := r.status.String()
		switch {
		case r.errSub == RetryableMark:
			answer += " retryable"
		case r.errSub != "":
			answer += " \"" + r.errSub + "\""
		}
		fmt.Fprintf(&b, "| %s | %v | %s | %s |\n", r.prior, r.verb, answer, r.next)
	}
	return b.String()
}

// TestProtocolTableMatchesDesignDoc fails when DESIGN.md's protocol table
// and protocolTable drift apart; the failure prints the block to paste.
func TestProtocolTableMatchesDesignDoc(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if want := renderProtocolTable(); !strings.Contains(string(doc), want) {
		t.Fatalf("DESIGN.md does not carry the protocol table as the test has it; paste:\n%s", want)
	}
}

// TestInterleavedDaemonRestoresEvictOnTheirOwnProcess is the regression
// test for the manager's former "current process" variable: two evicted
// daemon sessions take a verb in the same instant, so their transparent
// restores run on two transient processes that interleave across every
// virtual sleep, and each restore needs several evictions. The allocator's
// evictor must charge each evacuation on the process that is actually
// inside Malloc — sim.Env.Current — or it sleeps a parked process from the
// wrong goroutine (or finds none and refuses).
func TestInterleavedDaemonRestoresEvictOnTheirOwnProcess(t *testing.T) {
	// One buffer per session, a big one exactly three small ones long: the
	// copy engine evacuates victims in the order they were picked, so the
	// freed spans coalesce and no restore has to evict the other's arena.
	const (
		big    = 18 << 10
		small  = 6 << 10
		smalls = 6
	)
	env := sim.NewEnv()
	arch := fermi.TeslaC2070()
	// Two big arenas, or six small ones, fill the card exactly (the
	// allocator keeps its first alignment unit to itself).
	arch.MemBytes = 2*big + 256
	dev := gpusim.MustNew(env, gpusim.Config{Arch: arch})
	m := New(env, Config{Device: dev, MaxSessionBytes: 1 << 30})
	m.Start()

	type outcome struct {
		st  Status
		msg string
		at  sim.Time
	}
	acks := map[int]*outcome{}
	open := func(p *sim.Proc, name string, in int64) int {
		id, err := m.OpenSession(p, Request{Spec: &task.Spec{Name: name, InBytes: in}})
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		o := &outcome{}
		acks[id] = o
		if err := m.BindDirect(id, nil, nil, func(_ Verb, st Status, msg string) {
			*o = outcome{st, msg, env.Now()}
		}); err != nil {
			t.Fatal(err)
		}
		return id
	}
	var b1, b2 int
	var issued sim.Time
	env.Go("driver", func(p *sim.Proc) {
		p.Wait(m.Ready())
		b1 = open(p, "big1", big)
		b2 = open(p, "big2", big)
		for i := 0; i < smalls; i++ {
			open(p, fmt.Sprintf("small%d", i), small)
		}
		if m.Evictions() != 2 {
			t.Fatalf("evictions after setup = %d, want 2 (both bigs paged out)", m.Evictions())
		}
		// The bigs' verbs must be younger than the last open, or LRU's id
		// tie-break would pick a just-restored big over a small.
		p.Sleep(sim.Microsecond)
		// Same instant, no drain in between: the two restores overlap.
		issued = p.Now()
		for _, id := range []int{b1, b2} {
			if err := m.DirectVerb(id, SND); err != nil {
				t.Fatal(err)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{b1, b2} {
		if o := acks[id]; o.st != ACK || o.at <= issued {
			t.Errorf("session %d SND: %v %q at %v (issued %v)", id, o.st, o.msg, o.at, issued)
		}
		if s := m.sessions[id]; s.susp != nil || s.devIn == 0 {
			t.Errorf("session %d not resident after its restore", id)
		}
	}
	// Each big arena needs three victims' worth of contiguous room: every
	// small session goes, none twice.
	if got := m.Evictions(); got != 2+smalls {
		t.Errorf("evictions = %d, want %d", got, 2+smalls)
	}
	if got := m.Restores(); got != 2 {
		t.Errorf("restores = %d, want 2", got)
	}
	// Evacuating three victims and refilling the arena takes PCIe time on
	// the restoring process's own clock; a restore that charged its
	// evacuations elsewhere would ack after its refill alone.
	arenaCopy := arch.TransferTime(big, true, true)
	for _, id := range []int{b1, b2} {
		if waited := sim.Duration(acks[id].at - issued); waited < 2*arenaCopy {
			t.Errorf("session %d acked %v after issue, under two arena copies (%v): evacuations not on its clock", id, waited, 2*arenaCopy)
		}
	}
}
