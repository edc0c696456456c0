package gvm

import (
	"errors"
	"testing"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/task"
)

// The protocol and swap tests' cycle is a small vecadd (a fresh functional
// manager per row and surface must stay cheap) whose kernel SlowKernels
// costs up until "running" comfortably outlasts the mqueue front-end's
// 80 us of message hops.
const (
	SurfaceTestN     = 1024
	surfaceTestScale = 2e4
)

// SlowKernels costs spec's kernels up by surfaceTestScale, so a flush stays
// "running" long enough to be observed.
func SlowKernels(spec *task.Spec) *task.Spec {
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

// What the external protocol-table test (surface_test.go, which imports
// vgpu and so cannot live in this package) needs of a session's insides:
// gvm's own table, the name of a session's state, and injectors for the
// states no verb leads to.

// ProtocolRow is one cell of gvm's protocol table as DESIGN.md §3 carries
// it: a verb arriving in a prior state answers status (with errSub in the
// error text) and leaves the session in next.
type ProtocolRow struct {
	Prior  string
	Verb   Verb
	Status Status
	ErrSub string
	Next   string
}

// ProtocolTable is state.step over the eight named states, its preludes (a
// restore, a replay) followed through to the verb's answer. Evicted is a
// done session's.
func ProtocolTable() []ProtocolRow {
	var rows []ProtocolRow
	for _, st := range []state{{idle, resident}, {staged, resident}, {running, resident}, {done, resident},
		{done, evicted}, {abandoned, resident}, {failed, resident}, {rerun, resident}} {
		for v := SND; v <= RLS; v++ {
			a, text, next := st.step(v)
			for a == restoreFirst || a == replayFirst {
				a, text, next = next.step(v)
			}
			row := ProtocolRow{Prior: st.String(), Verb: v, Status: ERR, ErrSub: text, Next: next.String()}
			switch a {
			case refuse:
			case bounce:
				row.ErrSub = RetryableMark
			case kernelErr:
				row.ErrSub = KernelErr
			default:
				row.Status = ACK
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// NewestSession is the id of the session the manager opened last: a vgpu
// client's, right after its Connect.
func (m *Manager) NewestSession() int { return m.nextID }

// StateOf names where session id stands: gvm's own state name, or gone.
func (m *Manager) StateOf(id int) string {
	if s, ok := m.sessions[id]; ok {
		return s.st.String()
	}
	return "gone"
}

// InjectEvicted does to session id what evictForAlloc does to its victim.
func (m *Manager) InjectEvicted(p *sim.Proc, id int) {
	m.suspendSession(p, m.sessions[id])
}

// InjectFailed leaves session id as a device fault under its kernels does.
func (m *Manager) InjectFailed(id int) {
	s := m.sessions[id]
	s.failed = errors.New("injected device fault")
	s.st.phase = failed
}

// KernelErr is the kernel's own error InjectAbandoned leaves behind.
const KernelErr = "injected kernel failure"

// InjectAbandoned leaves session id as a kernel failing on its own does.
func (m *Manager) InjectAbandoned(id int) {
	s := m.sessions[id]
	s.failed = errors.New(KernelErr)
	s.st.phase = abandoned
}

// InjectRerun leaves session id as AdoptSession leaves an interrupted cycle.
func (m *Manager) InjectRerun(id int) { m.sessions[id].st.phase = rerun }

// BareSession is one session driven through the manager's own calls, the
// way a front-end drives it: the bare surface of the engine.
type BareSession struct {
	t       *testing.T
	m       *Manager
	ID      int
	In, Out []byte // staging; nil on a timing-only device
	outcome *sim.Event
	st      Status
	msg     string
}

func OpenBare(t *testing.T, p *sim.Proc, m *Manager, r Request) *BareSession {
	t.Helper()
	id, err := m.OpenSession(p, r)
	if err != nil {
		t.Fatalf("OpenSession %s: %v", r.Spec.Name, err)
	}
	b := &BareSession{t: t, m: m, ID: id}
	if m.dev.Functional() {
		b.bind(make([]byte, r.Spec.InBytes), make([]byte, r.Spec.OutBytes))
	} else {
		b.bind(nil, nil)
	}
	return b
}

// bind makes in/out the session's staging and b its control surface.
func (b *BareSession) bind(in, out []byte) {
	b.In, b.Out = in, out
	if err := b.m.BindDirect(b.ID, in, out, func(_ Verb, st Status, msg string) {
		b.st, b.msg = st, msg
		b.outcome.Fire(nil)
	}); err != nil {
		b.t.Fatalf("BindDirect: %v", err)
	}
}

// issue starts v without waiting for its outcome; wait collects it.
func (b *BareSession) issue(v Verb) {
	b.outcome = b.m.Env().NewEvent()
	if err := b.m.DirectVerb(b.ID, v); err != nil {
		b.t.Fatalf("DirectVerb %v: %v", v, err)
	}
}

func (b *BareSession) wait(p *sim.Proc) (Status, string) {
	p.Wait(b.outcome)
	return b.st, b.msg
}

func (b *BareSession) Verb(p *sim.Proc, v Verb) (Status, string) {
	b.issue(v)
	return b.wait(p)
}

func (b *BareSession) must(p *sim.Proc, v Verb) {
	if st, msg := b.Verb(p, v); st != ACK {
		b.t.Fatalf("%v answered %v %s", v, st, msg)
	}
}

// run stages input and plays the cycle's verbs from SND up to last.
func (b *BareSession) run(p *sim.Proc, input []byte, last Verb) {
	copy(b.In, input)
	for v := SND; v <= last; v++ {
		b.must(p, v)
	}
}
