// The architecture guard: one mechanism per concern (DESIGN.md §3). Each
// row of archRows keeps one mechanism single, on the syntax of the tree's
// non-test Go files (the parse TestNoTestOnlyCode reads too), and carries
// the mutations that must make it fire. `make one-engine` runs this test
// with the other root rule tests; a PR that removes a second mechanism adds
// a row here.
package gpuvirt_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// An archRow is one architecture rule: its checks, the message it prints
// when one of them fires, why the rule exists, and the edits of the tree
// that must make it fire (mutations) or leave it silent (benign).
type archRow struct {
	name      string
	msg       string
	why       string
	checks    []archCheck
	mutations []archEdit
	benign    []archEdit
}

// An archCheck returns its findings on a tree, one "file:line: what" each.
// A scope entry that names no file, or an anchor (the declaration a check
// reads) that is not declared, is a finding too: a row never passes by
// finding nothing to inspect.
type archCheck interface {
	findings(tr *srcTree) []string
}

// suspendScope is where a client suspend verb could be declared or sent: the
// engine, its front-ends and both clients.
var suspendScope = []string{"internal/gvm", "internal/transport", "internal/fed", "internal/ipc", "internal/vgpu"}

const (
	modTransport = "gpuvirt/internal/transport"
	modIPC       = "gpuvirt/internal/ipc"
	modSim       = "gpuvirt/internal/sim"
)

var archRows = []archRow{
	{
		name: "verb-engine",
		msg:  "internal/transport: a second verb path (imports internal/vgpu, or calls DirectVerb( in more than one place)",
		why: "One verb engine (DESIGN.md §3): internal/transport reaches gvm's verbs only through frameRun — no vgpu " +
			"handle, one DirectVerb call site — so a second execution path cannot quietly come back.",
		checks: []archCheck{
			imports{in: []string{"internal/transport"}, paths: []string{"gpuvirt/internal/vgpu"}},
			refs{in: []string{"internal/transport"}, what: named(`^DirectVerb$`), max: 1},
		},
		mutations: []archEdit{
			{file: "internal/transport/exec.go", find: "import (", repl: "import (\n\t_ \"gpuvirt/internal/vgpu\""},
			{file: "internal/transport/dispatch.go", repl: "\nfunc probeVerb(m *gvm.Manager) error { return m.DirectVerb(1, gvm.VerbSND) }\n"},
			// A method value: no "DirectVerb(" in the text.
			{file: "internal/transport/exec.go", repl: "\nvar directVerbProbe = (*gvm.Manager).DirectVerb\n\nfunc probeVerb(m *gvm.Manager) error { return directVerbProbe(m, 1, gvm.VerbSND) }\n"},
			{file: "internal/transport", to: "internal/wire"},
		},
		benign: []archEdit{
			{file: "internal/transport/exec.go", repl: "\n// (see DirectVerb( in gvm)\n"},
		},
	},
	{
		name: "one-read-buffer",
		msg:  "internal/transport imports bufio: a connection has one read buffer (transport.Conn.rbuf), decoded in place",
		why: "One read buffer: a transport.Conn reads a frame into its own buffer and decodes it there — a second " +
			"buffer in front of it splits a frame over its size into two reads and copies bytes out of itself.",
		checks: []archCheck{
			imports{in: []string{"internal/transport"}, paths: []string{"bufio"}},
		},
		mutations: []archEdit{
			{file: "internal/transport/transport.go", find: "import (", repl: "import (\n\t\"bufio\""},
			{file: "internal/transport", to: "internal/wire"},
		},
	},
	{
		name: "frame-rule",
		msg:  "the frame rule has forked (rank bookkeeping outside transport.FrameSteps, or a front-end not calling it):",
		why: "One frame rule: the socket dispatcher, the ring host and the fed router each call transport.FrameSteps " +
			"(exec.go), and none of transport or fed keeps rank bookkeeping of its own (lastRank, batchVerbRank) beside it.",
		checks: []archCheck{
			refs{in: []string{"internal/transport", "internal/fed"}, except: []string{"internal/transport/exec.go"},
				what: named(`lastRank|[bB]atch(Verb|Step)Rank`), max: 0},
			refs{in: []string{"internal/transport/dispatch.go"}, what: call("FrameSteps", -1), min: 1, max: -1},
			refs{in: []string{"internal/transport/ringhost.go"}, what: call("FrameSteps", -1), min: 1, max: -1},
			refs{in: []string{"internal/fed/proxy.go"}, what: call("FrameSteps", -1), min: 1, max: -1},
		},
		mutations: []archEdit{
			{file: "internal/transport/dispatch.go", find: "FrameSteps(req, buf[:0])", repl: "frameSteps(req, buf[:0])"},
			{file: "internal/transport/ringhost.go", find: "FrameSteps(&s.req, run.verbs)", repl: "frameSteps(&s.req, run.verbs)"},
			{file: "internal/fed/proxy.go", find: "transport.FrameSteps(req, buf[:0])", repl: "transport.FrameStepz(req, buf[:0])"},
			{file: "internal/fed/proxy.go", repl: "\nvar lastRank = map[int]int{}\n"},
			{file: "internal/transport/dispatch.go", repl: "\nfunc BatchStepRank(req *Request) int { return 0 }\n"},
			{file: "internal/transport/ringhost.go", repl: "\nfunc (s *ringSession) batchVerbRank() int { return 0 }\n"},
			{file: "internal/transport/dispatch.go", to: "internal/transport/serve.go"},
		},
	},
	{
		name: "one-data-plane",
		msg:  "the data plane has forked (a type assertion on a plane, or an interface declaring StageIn/Regions, in non-test transport/ipc code):",
		why: "One data plane: a session's plane is one concrete type per side (transport.Plane, hostPlane), so no non-test " +
			"file of transport or ipc asks a plane which implementation it is, and no interface with a StageIn or Regions " +
			"method exists for a second one to implement.",
		checks: []archCheck{
			refs{in: []string{"internal/transport", "internal/ipc"}, what: asserted(`^[A-Za-z]*Plane$`), max: 0},
			declares{in: []string{"internal/transport", "internal/ipc"}, re: `^interface method (StageIn|Regions)$`},
		},
		mutations: []archEdit{
			{file: "internal/ipc/client.go", repl: "\nfunc probePlane(p any) bool { _, ok := p.(*transport.RingPlane); return ok }\n"},
			{file: "internal/transport/plane.go", repl: "\nfunc probePlane(p any) bool { _, ok := p.(Plane); return ok }\n"},
			{file: "internal/transport/plane.go", repl: "\nfunc probePlane(p any) bool {\n\tswitch p.(type) {\n\tcase *ShmPlane:\n\t\treturn true\n\t}\n\treturn false\n}\n"},
			{file: "internal/transport/plane.go", repl: "\ntype stager interface {\n\tStageIn(b []byte) error\n}\n"},
			{file: "internal/ipc/server.go", repl: "\ntype regioned interface {\n\tRegions() [][]byte\n}\n"},
			{file: "internal/ipc", to: "internal/daemon"},
		},
	},
	{
		name: "one-session-kind",
		msg:  "gvm has a second session kind again (a transport inside internal/gvm — shm import, reply, Queue[, onProc, an engine func taking *sim.Proc — or a second DirectVerb( call site in internal/vgpu):",
		why: "One session kind: gvm holds no transport — no segment, no message queue, no engine function that sleeps " +
			"on its caller's process — and the mqueue front-end (vgpu) reaches the engine's verbs through one DirectVerb " +
			"call site, like transport.",
		checks: []archCheck{
			imports{in: []string{"internal/gvm"}, paths: []string{"gpuvirt/internal/shm"}},
			refs{in: []string{"internal/gvm"}, what: named(`reply|onProc`), max: 0},
			refs{in: []string{"internal/gvm"}, what: indexed(`Queue$`), max: 0},
			sigs{in: []string{"internal/gvm"}, bad: procEngineFunc},
			refs{in: []string{"internal/vgpu"}, what: named(`^DirectVerb$`), max: 1},
		},
		mutations: []archEdit{
			{file: "internal/gvm/gvm.go", find: "import (", repl: "import (\n\t_ \"gpuvirt/internal/shm\""},
			{file: "internal/gvm/direct.go", repl: "\nfunc (m *Manager) reply(id int) {}\n"},
			{file: "internal/gvm/direct.go", repl: "\nvar probeQueue *sim.Queue[int]\n"},
			{file: "internal/gvm/direct.go", repl: "\nfunc (m *Manager) probe() { m.onProc = nil }\n"},
			{file: "internal/gvm/gvm.go", repl: "\nfunc (m *Manager) serve(p *sim.Proc, s *session) {}\n"},
			{file: "internal/gvm/gvm.go", repl: "\nfunc dispatch(\n\tm *Manager,\n\tp *sim.Proc,\n) {\n}\n"},
			{file: "internal/gvm/suspend.go", repl: "\nfunc (m *Manager) flushBatch(p *sim.Proc) {}\n"},
			{file: "internal/vgpu/host.go", repl: "\nfunc probeVerb(h *Host) error { return h.mgr.DirectVerb(1, gvm.VerbSND) }\n"},
			{file: "internal/vgpu/host.go", repl: "\nvar directVerbProbe = (*gvm.Manager).DirectVerb\n"},
			{file: "internal/vgpu", to: "internal/mqueue"},
		},
	},
	{
		name: "one-process-switch",
		msg:  "internal/sim has a second switch mechanism (a channel or a go statement in non-test code; a process switch is the worker coroutine's next/yield):",
		why: "One process switch: a sim process is a coroutine on a pooled worker (internal/sim/proc.go), so non-test " +
			"internal/sim holds no channel and starts no goroutine of its own — the two-channel goroutine hand-off cannot " +
			"come back beside iter.Pull.",
		checks: []archCheck{
			chans{in: []string{"internal/sim"}, re: `.`},
			gos{in: []string{"internal/sim"}},
		},
		mutations: []archEdit{
			{file: "internal/sim/proc.go", repl: "\ntype handoff struct{ resume, yield chan struct{} }\n"},
			{file: "internal/sim/sim.go", repl: "\nfunc probeGo(f func()) {\n\tgo f()\n}\n"},
			{file: "internal/sim/sim.go", repl: "\nfunc probeGo() {\n\tgo func() {}()\n}\n"},
			{file: "internal/sim", to: "internal/des"},
		},
	},
	{
		name: "one-way-onto-a-shard",
		msg:  "a second way onto a shard (a work queue, a goroutine outside the allowed two, Env.Run() outside Server.turn, or a second Env.Go site for cold work):",
		why: "One way onto a shard: its owner is whoever holds its lock for a turn (ipc.Server.turn), so non-test " +
			"internal/ipc declares no work queue, calls Env.Run() in that one function only, and starts no goroutine but " +
			"the ring daemon's sweep loop (which parks on its doorbell itself) and the background evacuation (connections " +
			"are transport.Door's) — a per-shard owner goroutine cannot come back; and cold owner work gets a process " +
			"in one place (Env.Go in transport.Dispatcher.onShard), never per frame.",
		checks: []archCheck{
			refs{in: []string{"internal/ipc"}, what: named(`workItem`), max: 0},
			chans{in: []string{"internal/ipc"}, re: `^\[|^(<-)?chan(<-)? (workItem|func)`},
			gos{in: []string{"internal/ipc"}, allow: `^s\.(ringOwner|disp\.EvacuateShard)$`},
			refs{in: []string{"internal/ipc"}, what: call("Run", 0), max: 1},
			refs{in: []string{"internal/ipc"}, within: "Server.turn", what: call("Run", 0), min: 1, max: -1},
			refs{in: []string{"internal/ipc", "internal/transport"}, what: call("Go", 1), max: 1},
		},
		mutations: []archEdit{
			{file: "internal/ipc/server.go", repl: "\ntype workItem struct{ run func() }\n"},
			{file: "internal/ipc/server.go", repl: "\nvar probeWork chan func()\n"},
			{file: "internal/ipc/server.go", repl: "\nvar probeWork []chan int\n"},
			{file: "internal/ipc/server.go", find: "go s.ringOwner(i)", repl: "go s.ringOwner(i)\n\t\t\tgo s.waker()"},
			{file: "internal/ipc/server.go", repl: "\nfunc (s *Server) probe() {\n\tgo func() {}()\n}\n"},
			{file: "internal/ipc/server.go", repl: "\nfunc (s *Server) probe(env *sim.Env) error { return env.Run() }\n"},
			// The turn renamed: the one Run() call is no longer in Server.turn.
			{file: "internal/ipc/server.go", find: "func (s *Server) turn(", repl: "func (s *Server) turnz("},
			{file: "internal/transport/ringhost.go", repl: "\nfunc probeCold(e *sim.Env) { e.Go(nil) }\n"},
		},
	},
	{
		name: "one-session-state",
		msg:  "gvm's session keeps its protocol state in flags again (a running, done, evicted or rerunPending bool beside the state value the table reads):",
		why: "One session state: gvm's session holds its protocol state as one value (phase and residency) that the " +
			"(state, verb) table reads, so it declares none of the retired running, done, evicted or rerunPending bool " +
			"fields beside it.",
		checks: []archCheck{
			fields{in: []string{"internal/gvm"}, typ: "session", re: `^(running|done|evicted|rerunPending) bool$`},
		},
		mutations: []archEdit{
			{file: "internal/gvm/gvm.go", find: "\tstpWaiting bool", repl: "\trunning bool\n\tstpWaiting bool"},
			{file: "internal/gvm/gvm.go", find: "\tstpWaiting bool", repl: "\tstpWaiting, rerunPending bool"},
			{file: "internal/gvm/gvm.go", find: "type session struct {", repl: "type tenant struct {"},
		},
	},
	{
		name: "one-manager-builder",
		msg:  "a second way to build a manager (gvm.New( or vgpu.Serve( outside internal/node, internal/spmd and examples/quickstart), or gvm.Config.PinnedStaging is back (the zero Config must stage pinned):",
		why: "One way to build a manager: node builds the daemon's and the experiments' shards, spmd the paper's " +
			"single-GPU runs and examples/quickstart shows the bare calls, so no other non-test code calls gvm.New( or " +
			"vgpu.Serve( — a hand-built copy beside them is how a manager once staged pageable unnoticed — and gvm.Config " +
			"declares no PinnedStaging, whose zero value was that ablation.",
		checks: []archCheck{
			refs{in: []string{"cmd/...", "examples/...", "internal/..."},
				except: []string{"internal/node", "internal/spmd", "examples/quickstart"},
				what:   qual("gpuvirt/internal/gvm", "New"), max: 0},
			refs{in: []string{"cmd/...", "examples/...", "internal/..."},
				except: []string{"internal/node", "internal/spmd", "examples/quickstart"},
				what:   qual("gpuvirt/internal/vgpu", "Serve"), max: 0},
			fields{in: []string{"internal/gvm"}, typ: "Config", re: `^PinnedStaging `},
		},
		mutations: []archEdit{
			{file: "internal/experiments/probe.go", repl: "package experiments\n\nimport \"gpuvirt/internal/gvm\"\n\nfunc probe(env *sim.Env, ctx *gpusim.Context) *gvm.Manager {\n\treturn gvm.New(env, ctx, gvm.Config{})\n}\n"},
			{file: "cmd/gvmd/probe.go", repl: "package main\n\nimport g \"gpuvirt/internal/gvm\"\n\nvar newManager = g.New\n"},
			{file: "internal/experiments/probe.go", repl: "package experiments\n\nimport \"gpuvirt/internal/vgpu\"\n\nvar serve = vgpu.Serve\n"},
			{file: "internal/gvm/gvm.go", find: "type Config struct {", repl: "type Config struct {\n\tPinnedStaging bool"},
			{file: "internal/gvm/gvm.go", find: "type Config struct {", repl: "type Options struct {"},
		},
	},
	{
		name: "ring-shard-changes-in-a-turn",
		msg:  "a ring session changes shards outside a turn again (node.Drain in internal/transport, a mutex or a Register/Unregister/Forward method on RingShard, or a Drain type in internal/node):",
		why: "One way a ring session changes shards: a shard's ring sweep list is owner state that only turns on that " +
			"shard change (join, leave, the sweep after a retire), and a moved client rings the door its ring header " +
			"names — so non-test internal/transport uses no node.Drain side channel, RingShard declares no mutex and no " +
			"Register, Unregister or Forward method, and internal/node declares no Drain type for a queue to come back through.",
		checks: []archCheck{
			refs{in: []string{"internal/transport"}, what: qual("gpuvirt/internal/node", "Drain"), max: 0},
			fields{in: []string{"internal/transport"}, typ: "RingShard", re: `sync\.(RW)?Mutex`},
			declares{in: []string{"internal/transport"}, re: `^func RingShard\.(Register|Unregister|Forward)$`},
			declares{in: []string{"internal/node"}, re: `^type Drain$`},
		},
		mutations: []archEdit{
			{file: "internal/transport/dispatch.go", repl: "\nfunc probeDrain(d *node.Drain) {}\n"},
			{file: "internal/transport/ringhost.go", find: "\tsessions []*ringSession", repl: "\tmu       sync.Mutex\n\tsessions []*ringSession"},
			{file: "internal/transport/ringhost.go", find: "\tsessions []*ringSession", repl: "\tsync.RWMutex\n\tsessions []*ringSession"},
			{file: "internal/transport/ringhost.go", repl: "\nfunc (rs *RingShard) Register(s *ringSession) {}\n"},
			{file: "internal/transport/ringhost.go", repl: "\nfunc (rs *RingShard) Unregister(s *ringSession) {}\n"},
			{file: "internal/transport/ringhost.go", repl: "\nfunc (rs *RingShard) Forward(to *RingShard) {}\n"},
			{file: "internal/node/node.go", repl: "\ntype Drain struct{ shard int }\n"},
			{file: "internal/node/node.go", repl: "\ntype (\n\tDrain  struct{ shard int }\n\tdrains []Drain\n)\n"},
			{file: "internal/node", to: "internal/shard"},
			{file: "internal/transport/ringhost.go", find: "type RingShard struct {", repl: "type RingLane struct {"},
		},
	},
	{
		name: "frame-by-pointer",
		msg:  "a frame travels by value (a Request or Response value parameter, or a (Request, error) / (Response, error) result, in non-test transport/ipc/fed; pass the carrier's retained frame by pointer):",
		why: "One frame per carrier: a decoded frame is the carrier's one retained value, passed by pointer from decode " +
			"to encode and valid until the carrier's next read, so no function (or func literal) in non-test " +
			"internal/transport, internal/ipc or internal/fed takes a Request or Response by value or returns one with " +
			"an error — a by-value hop copies the frame and a second copy outlives the rule. The exceptions are the " +
			"contiguous Encode*Binary API that bench/ calls and a bare Response result.",
		checks: []archCheck{
			sigs{in: []string{"internal/transport", "internal/ipc", "internal/fed"}, bad: byValueFrame},
		},
		mutations: []archEdit{
			{file: "internal/fed/proxy.go", repl: "\nfunc probeFrame(req transport.Request) {}\n"},
			{file: "internal/transport/exec.go", repl: "\nfunc probeFrame(b []byte) (Response, error) { return Response{}, nil }\n"},
			// A signature over three lines.
			{file: "internal/transport/exec.go", repl: "\nfunc byValueProbe(\n\treq Request,\n) Response {\n\treturn Response{}\n}\n"},
			{file: "internal/ipc/client.go", repl: "\nvar probeFrame = func(r Request) {}\n"},
			{file: "internal/ipc/client.go", repl: "\ntype framer interface {\n\tFrame(r *Request) (Response, error)\n}\n"},
			{file: "internal/fed/proxy.go", repl: "\nfunc probeFrame(r *transport.Request) (resp transport.Response) { return }\n"},
			{file: "internal/fed/proxy.go", repl: "\nfunc probeFrame(ch chan transport.Response) {}\n"},
			{file: "internal/fed", to: "internal/federation"},
		},
	},
	{
		name: "one-landing-path",
		msg:  "a second landing path or a second move fence (serveADP or adoptOwner in internal/transport, a migrating field or settle method on hostSession, or an exported gvm MintSessionID):",
		why: "One landing path and one move fence: a session lands on a node one way, serveREQ — an ADP is a REQ whose " +
			"Data is a MIG blob, and gvm's AdoptSession mints its id — so non-test internal/transport declares no serveADP " +
			"or adoptOwner beside it and internal/gvm exports no MintSessionID for a second landing to re-id through; and " +
			"a socket frame is fenced from a move by the session's migMu alone, held from SND's staging copy to RCV's, so " +
			"hostSession declares no migrating latch and no settle method to lift it — a latch beside the lock is how a " +
			"SND raced a move and bounced.",
		checks: []archCheck{
			declares{in: []string{"internal/transport"}, re: `^func (\w+\.)?(serveADP|adoptOwner)$|^func hostSession\.settle$`},
			fields{in: []string{"internal/transport"}, typ: "hostSession", re: `^migrating `},
			declares{in: []string{"internal/gvm"}, re: `^func (\w+\.)?MintSessionID$`},
		},
		mutations: []archEdit{
			{file: "internal/transport/dispatch.go", repl: "\nfunc (d *Dispatcher) serveADP(c *ConnState, req *Request) {}\n"},
			{file: "internal/transport/dispatch.go", repl: "\nfunc adoptOwner(d *Dispatcher) {}\n"},
			{file: "internal/transport/dispatch.go", repl: "\nfunc (s *hostSession) settle() {}\n"},
			{file: "internal/transport/dispatch.go", find: "\tclosed bool", repl: "\tclosed, migrating bool"},
			{file: "internal/gvm/migrate_codec.go", repl: "\nfunc (m *Manager) MintSessionID() int { return 0 }\n"},
			{file: "internal/transport/dispatch.go", find: "type hostSession struct {", repl: "type hostedSession struct {"},
		},
	},
	{
		name: "one-launch",
		msg:  "a second kernel launch (an exported Launch... method or type beside Context.Launch in non-test internal/gpusim, or non-test internal/gvm reaching kernels other than through Context.Launch):",
		why: "One launch: gpusim.Context.Launch dispatches, waits and returns the kernel's fault, so its launch record " +
			"can be recycled the moment its launcher wakes — non-test internal/gpusim declares no other exported Launch... " +
			"method or type (the retired LaunchAsync, LaunchAsyncOpts, LaunchOptions), and non-test internal/gvm reaches " +
			"its kernels only through Context.Launch, naming no other Launch... identifier: an async launch beside it is " +
			"how an aborted kernel once read as success.",
		checks: []archCheck{
			declares{in: []string{"internal/gpusim"}, re: `^(func \w+\.|type )Launch[A-Z]`, need: `^func Context\.Launch$`},
			refs{in: []string{"internal/gvm"}, what: named(`^Launch[A-Z]`), max: 0},
			refs{in: []string{"internal/gvm"}, what: call("Launch", -1), min: 1, max: -1},
		},
		mutations: []archEdit{
			{file: "internal/gpusim/stream.go", repl: "\nfunc (c *Context) LaunchAsyncOpts(p *sim.Proc, k *cuda.Kernel, o LaunchOptions) {}\n"},
			{file: "internal/gpusim/stream.go", repl: "\ntype LaunchOptions struct{ Weight int }\n"},
			{file: "internal/gvm/gvm.go", repl: "\nfunc (m *Manager) probeLaunch(p *sim.Proc, k *cuda.Kernel) {\n\tm.ctx.LaunchAsyncOpts(p, k, gpusim.LaunchOptions{})\n}\n"},
			{file: "internal/gvm/gvm.go", find: ".Launch(", repl: ".launch("},
			{file: "internal/gpusim/device.go", find: "func (c *Context) Launch(", repl: "func (c *Context) Run("},
		},
	},
	{
		name: "one-restore",
		msg:  "a restore rebuilds again (bufReplay in non-test internal/gvm, a .Build( or prepareOps( call in resumeSession, or gpusim.Context.SwapIn returning more than an error):",
		why: "One restore: a session keeps its device addresses across an eviction, so its kernels and flush ops are " +
			"built once (REQ or adoption) and a restore only puts its buffers back — non-test internal/gvm declares no " +
			"bufReplay, gvm's resumeSession calls neither .Build( nor prepareOps(, and gpusim.Context.SwapIn places an " +
			"address the caller already holds, so it returns only an error, never a fresh pointer a rebuild would have to chase.",
		checks: []archCheck{
			refs{in: []string{"internal/gvm"}, what: named(`^bufReplay$`), max: 0},
			refs{in: []string{"internal/gvm"}, within: "Manager.resumeSession", what: named(`^(Build|prepareOps)$`), max: 0},
			sigs{in: []string{"internal/gpusim"}, decl: "Context.SwapIn", bad: onlyError},
		},
		mutations: []archEdit{
			{file: "internal/gvm/suspend.go", find: "\tm.waitSettled(p, s)\n\tsnap := s.susp", repl: "\tm.waitSettled(p, s)\n\tm.prepareOps(s)\n\tsnap := s.susp"},
			{file: "internal/gvm/suspend.go", find: "\tm.waitSettled(p, s)\n\tsnap := s.susp", repl: "\tm.waitSettled(p, s)\n\tk, _ := s.spec.Kernels[0].Build(s.devIn)\n\t_ = k\n\tsnap := s.susp"},
			{file: "internal/gvm/suspend.go", repl: "\ntype bufReplay struct{ ptr *cuda.DevPtr }\n"},
			{file: "internal/gpusim/device.go", find: "func (c *Context) SwapIn(p *sim.Proc, ptr cuda.DevPtr, data []byte) error {", repl: "func (c *Context) SwapIn(p *sim.Proc, ptr cuda.DevPtr, data []byte) (cuda.DevPtr, error) {"},
			// resumeSession renamed, then a rebuild added to its body.
			{file: "internal/gvm/suspend.go", find: "func (m *Manager) resumeSession(p *sim.Proc, s *session) error {", repl: "func (m *Manager) restoreSession(p *sim.Proc, s *session) error {\n\tm.prepareOps(s)"},
			{file: "internal/gpusim/device.go", find: "func (c *Context) SwapIn(", repl: "func (c *Context) PlaceBack("},
		},
	},
	{
		name: "one-suspend",
		msg:  "a second way off the card (a SUS or RES verb, or a \"SUS\"/\"RES\" verb literal, in non-test gvm, transport, fed, ipc or vgpu, or a suspended residency in gvm):",
		why: "One suspend: eviction with lazy restore is the only way an arena leaves the card — the manager, which " +
			"sees every tenant, pages an idle arena out and the session's next verb brings it back — so no front-end " +
			"or client declares or sends a SUS/RES verb, and gvm's residency is resident or evicted, with no " +
			"client-held suspended state beside them for the protocol table and every migration to carry.",
		checks: []archCheck{
			refs{in: suspendScope, what: named(`^(SUS|RES)$`), max: 0},
			refs{in: suspendScope, what: lit("SUS"), max: 0},
			refs{in: suspendScope, what: lit("RES"), max: 0},
			refs{in: []string{"internal/gvm"}, what: named(`^suspended$`), max: 0},
		},
		mutations: []archEdit{
			{file: "internal/gvm/gvm.go", find: `"RCV", "RLS"}`, repl: `"RCV", "RLS", "SUS", "RES"}`},
			{file: "internal/transport/frame.go", find: "\tcase \"BAT\":", repl: "\tcase \"SUS\":\n\t\treturn \"SUS\"\n\tcase \"BAT\":"},
			{file: "internal/gvm/gvm.go", find: "\tevicted            //", repl: "\tsuspended\n\tevicted //"},
			{file: "internal/gvm/suspend.go", repl: "\nconst RES Verb = RLS + 1\n"},
			{file: "internal/vgpu/vgpu.go", repl: "\nfunc (v *VGPU) Resume(p *sim.Proc) error { return v.ack(p, gvm.RES) }\n"},
		},
		benign: []archEdit{
			{file: "internal/gvm/suspend.go", repl: "\n// SUS and RES were the client's verbs; a suspended arena is an evicted one.\n"},
		},
	},
	{
		name: "one-wire-codec",
		msg:  "a second wire codec (a non-test file of internal/, cmd/ or examples/ imports encoding/json; a migrating session travels as gvm.ExtractedSession.Encode's binary blob, a load report as node.AppendLoad's record)",
		why: "One wire codec: every verb travels as a binary frame, a migrating session as the binary blob " +
			"gvm.ExtractedSession.Encode writes (MIG's answer, ADP's Data) and a node's STA answer as the binary load " +
			"record node.AppendLoad writes, so no non-test file of the module imports encoding/json — base64 inside " +
			"JSON inside a frame is how a migration once cost 8/3 of its footprint.",
		checks: []archCheck{
			imports{in: []string{"internal/...", "cmd/...", "examples/..."}, paths: []string{"encoding/json"}},
		},
		mutations: []archEdit{
			{file: "internal/gvm/migrate_codec.go", find: "import (", repl: "import (\n\t_ \"encoding/json\""},
			{file: "internal/transport/exec.go", find: "import (", repl: "import (\n\tjs \"encoding/json\""},
			{file: "internal/node/advert.go", find: "import (", repl: "import (\n\t\"encoding/json\""},
			{file: "cmd/gvmd/main.go", find: "import (", repl: "import (\n\t_ \"encoding/json\""},
		},
	},
	{
		name: "every-flag-tabled",
		msg:  "a daemon flag no row of its binary's config table sets (configRows in cmd/gvmd's and cmd/gvmfed's tests):",
		why: "Every option is wired and tested: gvmd and gvmfed parse their flags in a pure config(args), and each flag " +
			"is a row of TestConfig's table naming the field it must set. An option no command line sets is deleted, " +
			"not kept untested.",
		checks: []archCheck{
			tabledFlags{dir: "cmd/gvmd", table: "configRows"},
			tabledFlags{dir: "cmd/gvmfed", table: "configRows"},
		},
		mutations: []archEdit{
			{file: "cmd/gvmd/main.go", find: "\tif err := fs.Parse(args); err != nil {", repl: "\tfs.Bool(\"untabled\", false, \"a flag no row sets\")\n\tif err := fs.Parse(args); err != nil {"},
			{file: "cmd/gvmfed/main.go", find: "\tif err := fs.Parse(args); err != nil {", repl: "\tvar retries int\n\tfs.IntVar(&retries, \"retries\", 3, \"a flag no row sets\")\n\tif err := fs.Parse(args); err != nil {"},
			// The flag package's own set, from another file of the binary.
			{file: "cmd/gvmd/verbose.go", repl: "package main\n\nimport \"flag\"\n\nvar verbose = flag.Bool(\"verbose\", false, \"\")\n"},
			// A name the row cannot read.
			{file: "cmd/gvmfed/main.go", find: "\tif err := fs.Parse(args); err != nil {", repl: "\tfs.Duration(pollName, 0, \"\")\n\tif err := fs.Parse(args); err != nil {"},
		},
		benign: []archEdit{
			{file: "cmd/gvmd/main.go", repl: "\n// fs.Bool(\"untabled\", false, \"\") in a comment defines nothing.\n"},
		},
	},
	{
		name: "one-front-door",
		msg:  "a second front door (a Listener.Accept loop, a preamble check or a frame read loop outside transport.Door):",
		why: "One front door (DESIGN.md §3): gvmd and gvmfed reach their clients through transport.Door alone, which " +
			"binds the listen addresses, accepts, checks the preamble, runs each connection's read loop, hangs it up and " +
			"keeps the set of connections Close ends; ipc and fed say only how a frame is answered and what a hang-up " +
			"releases. Two copies of that loop once let a closed gvmd answer STA on a connection opened before Close, " +
			"and let the router's Close wait behind a frame parked at a backend barrier. metrics.Serve's HTTP accept " +
			"serves no daemon connection.",
		checks: []archCheck{
			refs{in: []string{"internal/...", "cmd/...", "examples/..."}, except: []string{"internal/metrics/serve.go"}, what: call("Accept", 0), max: 1},
			refs{in: []string{"internal/transport/door.go"}, within: "Door.accept", what: call("Accept", 0), min: 1, max: -1},
			refs{in: []string{"internal/...", "cmd/...", "examples/..."}, what: named(`^(?i)readPreamble$`), max: 2},
			refs{in: []string{"internal/transport/door.go"}, within: "Door.serve", what: call("readPreamble", 1), min: 1, max: -1},
			refs{in: []string{"internal/...", "cmd/...", "examples/..."}, what: call("ReadRequest", 0), max: 1},
			refs{in: []string{"internal/transport/door.go"}, within: "Door.serve", what: call("ReadRequest", 0), min: 1, max: -1},
		},
		mutations: []archEdit{
			// A second accept loop, the router's own again.
			{file: "internal/fed/proxy.go", repl: "\nfunc (r *Router) acceptz(ln net.Listener) {\n\tfor {\n\t\tif _, err := ln.Accept(); err != nil {\n\t\t\treturn\n\t\t}\n\t}\n}\n"},
			// A preamble check in the daemon.
			{file: "internal/ipc/server.go", repl: "\nfunc probePreamble(nc net.Conn) error { return transport.ReadPreamble(nc) }\n"},
			// A read loop of the daemon's own.
			{file: "internal/ipc/server.go", repl: "\nfunc probeRead(c *transport.Conn) { _, _ = c.ReadRequest() }\n"},
			// The door's loop renamed: its anchor is gone.
			{file: "internal/transport/door.go", find: "func (d *Door) accept(", repl: "func (d *Door) acceptz("},
		},
		benign: []archEdit{
			{file: "internal/metrics/serve.go", repl: "\n// ln.Accept() in a comment accepts nothing.\n"},
		},
	},
	{
		name: "no-http-stack",
		msg:  "the HTTP stack is linked again (a non-test file of internal/, cmd/ or examples/ imports net/http, a net/http/... package, expvar or crypto/tls; the -metrics listener is metrics.Serve)",
		why: "One debug listener, and no HTTP stack under it: gvmd's and gvmfed's -metrics listener is metrics.Serve, " +
			"one GET per connection over package net, serving /metrics and /debug/pprof/ (DESIGN.md §8). net/http and " +
			"net/http/pprof link crypto/tls, x509 and http2 besides; their package inits and the GC's scan of their " +
			"globals kept those file pages resident. In /proc/<gvmd>/smaps on ring-small the binary's resident pages " +
			"went 6.3 → 3.55 MB when they went, and fed-small's daemon_rss_mb 28.2 → 19.6 MB over its three daemons.",
		checks: []archCheck{
			imports{in: []string{"internal/...", "cmd/...", "examples/..."}, paths: []string{"net/http", "net/http/...", "expvar", "crypto/tls"}},
		},
		mutations: []archEdit{
			{file: "cmd/gvmd/main.go", find: "import (", repl: "import (\n\t_ \"net/http/pprof\""},
			{file: "internal/metrics/prom.go", find: "import (", repl: "import (\n\t\"net/http\""},
			{file: "cmd/gvmfed/main.go", find: "import (", repl: "import (\n\t_ \"expvar\""},
			{file: "internal/metrics/serve.go", find: "import (", repl: "import (\n\t_ \"crypto/tls\""},
		},
	},
}

// TestArchitecture holds the tree to every row of archRows, and each row to
// its mutations: every one must make the row fire, every benign edit must
// leave it silent.
func TestArchitecture(t *testing.T) {
	tr := repoTree(t)
	for _, r := range archRows {
		t.Run(r.name, func(t *testing.T) {
			if got := r.findings(tr); len(got) > 0 {
				t.Errorf("%s\n\t%s\nwhy: %s", r.msg, strings.Join(got, "\n\t"), r.why)
			}
			if len(r.mutations) == 0 {
				t.Error("no mutation makes the row fire")
			}
			for _, e := range r.mutations {
				if got, err := r.fires(tr, e); err != nil {
					t.Error(err)
				} else if len(got) == 0 {
					t.Errorf("%v: the row does not fire", e)
				}
			}
			for _, e := range r.benign {
				if got, err := r.fires(tr, e); err != nil {
					t.Error(err)
				} else if len(got) > 0 {
					t.Errorf("%v: the row fires:\n\t%s", e, strings.Join(got, "\n\t"))
				}
			}
		})
	}
}

// TestArchitectureRowsMatchDesignDoc holds archRows and DESIGN.md to each
// other in both directions: every row is cited there as
// TestArchitecture/<row>, and every such citation names a row. A renamed
// row and a citation of a row that does not exist must each make it fire.
func TestArchitectureRowsMatchDesignDoc(t *testing.T) {
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	for _, f := range rowCitations(archRows, doc) {
		t.Error(f)
	}
	renamed := slices.Clone(archRows)
	renamed[0].name += "-renamed"
	if len(rowCitations(renamed, doc)) == 0 {
		t.Errorf("renaming row %s goes unnoticed", archRows[0].name)
	}
	if len(rowCitations(archRows, doc+"\n`TestArchitecture/no-such-row`\n")) == 0 {
		t.Error("a citation of a row that does not exist goes unnoticed")
	}
}

var rowCitation = regexp.MustCompile(`TestArchitecture/([a-z0-9-]+)`)

// rowCitations returns what keeps rows and doc apart: a row doc does not
// cite, and a citation in doc that names no row.
func rowCitations(rows []archRow, doc string) []string {
	cited := map[string]bool{}
	for _, m := range rowCitation.FindAllStringSubmatch(doc, -1) {
		cited[m[1]] = true
	}
	var out []string
	for _, r := range rows {
		if !cited[r.name] {
			out = append(out, fmt.Sprintf("row %s: DESIGN.md never cites TestArchitecture/%s", r.name, r.name))
		}
		delete(cited, r.name)
	}
	for c := range cited {
		out = append(out, fmt.Sprintf("DESIGN.md cites TestArchitecture/%s, which is no row of archRows", c))
	}
	return out
}

func (r archRow) findings(tr *srcTree) []string {
	var out []string
	for _, c := range r.checks {
		out = append(out, c.findings(tr)...)
	}
	return out
}

// fires returns the row's findings on the tree with e made.
func (r archRow) fires(tr *srcTree, e archEdit) ([]string, error) {
	mt, err := tr.mutate(e)
	if err != nil {
		return nil, err
	}
	return r.findings(mt), nil
}

// An archEdit changes the tree in memory before the checks read it: the
// first occurrence of find in file becomes repl, or repl is appended when
// find is empty (a file the tree lacks is created from repl). With to set,
// the file, or every file of the package directory file names, moves there
// instead.
type archEdit struct {
	file, find, repl, to string
}

func (e archEdit) String() string {
	switch {
	case e.to != "":
		return fmt.Sprintf("%s moved to %s", e.file, e.to)
	case e.find == "":
		return fmt.Sprintf("%s + %q", e.file, e.repl)
	}
	return fmt.Sprintf("%s: %q -> %q", e.file, e.find, e.repl)
}

// mutate returns a copy of tr with e made; only an edited file is parsed
// again.
func (tr *srcTree) mutate(e archEdit) (*srcTree, error) {
	out := &srcTree{fset: tr.fset}
	if e.to != "" {
		for _, f := range tr.files {
			switch {
			case f.path == e.file:
				f = &srcFile{path: e.to, src: f.src, ast: f.ast}
			case path.Dir(f.path) == e.file:
				f = &srcFile{path: path.Join(e.to, path.Base(f.path)), src: f.src, ast: f.ast}
			}
			out.files = append(out.files, f)
		}
		return out, nil
	}
	var src string
	for _, f := range tr.files {
		if f.path == e.file {
			src = string(f.src)
			continue
		}
		out.files = append(out.files, f)
	}
	switch {
	case e.find == "":
		src += e.repl
	case !strings.Contains(src, e.find):
		return nil, fmt.Errorf("%v: %s does not contain %q", e, e.file, e.find)
	default:
		src = strings.Replace(src, e.find, e.repl, 1)
	}
	sf, err := out.parse(e.file, []byte(src))
	if err != nil {
		return nil, fmt.Errorf("%v: %w", e, err)
	}
	out.files = append(out.files, sf)
	return out, nil
}

// scope returns the files the entries of in name, minus those an entry of
// except names: "internal/gvm" is that package's files, "cmd/..." every file
// under cmd, and "internal/fed/proxy.go" one file. An entry of in that names
// no file is a missing anchor, returned as a finding.
func (tr *srcTree) scope(in, except []string) (files []*srcFile, missing []string) {
	for _, s := range in {
		n := 0
		for _, f := range tr.files {
			if inScope(f.path, s) && !slices.ContainsFunc(except, func(x string) bool { return inScope(f.path, x) }) {
				files = append(files, f)
				n++
			}
		}
		if n == 0 {
			missing = append(missing, s+": no non-test Go file")
		}
	}
	return files, missing
}

func inScope(file, s string) bool {
	switch {
	case strings.HasSuffix(s, "/..."):
		return strings.HasPrefix(file, strings.TrimSuffix(s, "..."))
	case strings.HasSuffix(s, ".go"):
		return file == s
	}
	return path.Dir(file) == s
}

// at renders n's position as file:line.
func (tr *srcTree) at(n ast.Node) string {
	p := tr.fset.Position(n.Pos())
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}

// text is n's source as written, up to its first line break: how a
// finding shows a node, and what a type or callee pattern matches.
func (sf *srcFile) text(n ast.Node) string {
	s := string(sf.src[n.Pos()-sf.ast.FileStart : n.End()-sf.ast.FileStart])
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i] + " …"
	}
	return s
}

// importName is the name f refers to the package at importPath by, "" when f
// does not import it.
func importName(f *ast.File, importPath string) string {
	for _, is := range f.Imports {
		if p, _ := strconv.Unquote(is.Path.Value); p == importPath {
			if is.Name != nil {
				return is.Name.Name
			}
			return path.Base(p)
		}
	}
	return ""
}

// funcName renders a declaration as "Name" or "Recv.Name".
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return fd.Name.Name
	}
	return recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name
}

// imports fails on an import of any of paths by a file of in, whatever the
// file's build tags. A path ending in "/..." stands for every package below
// it.
type imports struct {
	in    []string
	paths []string
}

func (c imports) findings(tr *srcTree) []string {
	files, out := tr.scope(c.in, nil)
	for _, f := range files {
		for _, is := range f.ast.Imports {
			p, _ := strconv.Unquote(is.Path.Value)
			if slices.ContainsFunc(c.paths, func(q string) bool { return q == p || strings.HasSuffix(q, "/...") && inScope(p, q) }) {
				out = append(out, fmt.Sprintf("%s: imports %s", tr.at(is), p))
			}
		}
	}
	return out
}

// declares fails on a declaration of in whose rendering matches re, and,
// when need is set, on no declaration matching need. A declaration renders
// as "func F", "func T.M" (T without its *), "type T" or "interface method
// M".
type declares struct {
	in       []string
	re, need string
}

func (c declares) findings(tr *srcTree) []string {
	files, out := tr.scope(c.in, nil)
	re := regexp.MustCompile(c.re)
	var need *regexp.Regexp
	if c.need != "" {
		need = regexp.MustCompile(c.need)
	}
	found := false
	visit := func(n ast.Node, decl string) {
		if re.MatchString(decl) {
			out = append(out, fmt.Sprintf("%s: declares %s", tr.at(n), decl))
		}
		found = found || need != nil && need.MatchString(decl)
	}
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				visit(n, "func "+funcName(n))
			case *ast.TypeSpec:
				visit(n, "type "+n.Name.Name)
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						visit(id, "interface method "+id.Name)
					}
				}
			}
			return true
		})
	}
	if need != nil && !found {
		out = append(out, fmt.Sprintf("%s: nothing declared matches %s", strings.Join(c.in, ", "), c.need))
	}
	return out
}

// fields fails on a field of the struct type typ, declared in in, whose
// rendering "name type" (an embedded field: its type) matches re. typ not
// declared is a missing anchor.
type fields struct {
	in      []string
	typ, re string
}

func (c fields) findings(tr *srcTree) []string {
	files, out := tr.scope(c.in, nil)
	re := regexp.MustCompile(c.re)
	found := false
	for _, f := range files {
		for _, d := range f.ast.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, sp := range gd.Specs {
				ts := sp.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || ts.Name.Name != c.typ {
					continue
				}
				found = true
				for _, fl := range st.Fields.List {
					typ := f.text(fl.Type)
					if len(fl.Names) == 0 && re.MatchString(typ) {
						out = append(out, fmt.Sprintf("%s: %s embeds %s", tr.at(fl), c.typ, typ))
					}
					for _, id := range fl.Names {
						if re.MatchString(id.Name + " " + typ) {
							out = append(out, fmt.Sprintf("%s: %s declares %s %s", tr.at(id), c.typ, id.Name, typ))
						}
					}
				}
			}
		}
	}
	if !found {
		out = append(out, fmt.Sprintf("%s: no struct type %s", strings.Join(c.in, ", "), c.typ))
	}
	return out
}

// sigs fails on every function type of in that bad rejects: declarations,
// func literals, func-typed fields, parameters and types, and interface
// methods. bad gets the name the type is declared under ("Name" or
// "Recv.Name" for a declaration, "func literal" for a literal). With decl
// set, only that declaration is read, and it must exist.
type sigs struct {
	in   []string
	decl string
	bad  func(sf *srcFile, name string, ft *ast.FuncType) string
}

func (c sigs) findings(tr *srcTree) []string {
	files, out := tr.scope(c.in, nil)
	found := false
	for _, f := range files {
		names := map[*ast.FuncType]string{}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				names[n.Type] = funcName(n)
			case *ast.FuncLit:
				names[n.Type] = "func literal"
			case *ast.TypeSpec:
				if ft, ok := n.Type.(*ast.FuncType); ok {
					names[ft] = n.Name.Name
				}
			case *ast.Field:
				if ft, ok := n.Type.(*ast.FuncType); ok && len(n.Names) > 0 {
					names[ft] = n.Names[0].Name
				}
			case *ast.FuncType:
				name, ok := names[n]
				if !ok {
					name = "func type"
				}
				if c.decl != "" && name != c.decl {
					return true
				}
				found = true
				if why := c.bad(f, name, n); why != "" {
					out = append(out, fmt.Sprintf("%s: %s %s", tr.at(n), name, why))
				}
			}
			return true
		})
	}
	if c.decl != "" && !found {
		out = append(out, fmt.Sprintf("%s: %s is not declared", strings.Join(c.in, ", "), c.decl))
	}
	return out
}

// isFrame reports whether e is a Request or Response value, or a channel of
// them: the bare name (transport's own, or ipc's alias) or one qualified by
// transport or ipc.
func isFrame(sf *srcFile, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.ChanType:
		return isFrame(sf, e.Value)
	case *ast.Ident:
		return e.Name == "Request" || e.Name == "Response"
	case *ast.SelectorExpr:
		x, ok := e.X.(*ast.Ident)
		return ok && (e.Sel.Name == "Request" || e.Sel.Name == "Response") &&
			(x.Name == importName(sf.ast, modTransport) || x.Name == importName(sf.ast, modIPC))
	}
	return false
}

// byValueFrame rejects a Request or Response value parameter, and a value
// result that is named or stands beside another result; a bare Request or
// Response result and frame.go's contiguous Encode*Binary API (bench/ calls
// it) are the exceptions.
func byValueFrame(sf *srcFile, name string, ft *ast.FuncType) string {
	if sf.path == "internal/transport/frame.go" && (name == "EncodeRequestBinary" || name == "EncodeResponseBinary") {
		return ""
	}
	for _, p := range ft.Params.List {
		if isFrame(sf, p.Type) {
			return "takes a " + sf.text(p.Type) + " by value"
		}
	}
	if rs := ft.Results; rs != nil && (len(rs.List) > 1 || len(rs.List[0].Names) > 0) {
		for _, r := range rs.List {
			if isFrame(sf, r.Type) {
				return "returns a " + sf.text(r.Type) + " by name or beside another result"
			}
		}
	}
	return ""
}

// procEngineFunc rejects a serve, dispatch or flushBatch that takes a
// *sim.Proc: an engine function sleeping on its caller's process.
func procEngineFunc(sf *srcFile, name string, ft *ast.FuncType) string {
	switch name[strings.LastIndex(name, ".")+1:] {
	case "serve", "dispatch", "flushBatch":
	default:
		return ""
	}
	for _, p := range ft.Params.List {
		if st, ok := p.Type.(*ast.StarExpr); ok && qual(modSim, "Proc")(sf, st.X) {
			return "takes a *sim.Proc"
		}
	}
	return ""
}

// onlyError rejects any result list but one unnamed error.
func onlyError(sf *srcFile, _ string, ft *ast.FuncType) string {
	if rs := ft.Results; rs != nil && len(rs.List) == 1 && len(rs.List[0].Names) == 0 && sf.text(rs.List[0].Type) == "error" {
		return ""
	}
	return "does not return only an error: " + sf.text(ft)
}

// refs counts the nodes of in, outside except (and inside the declaration
// within, "Name" or "Recv.Name", when set: it must be declared), that what
// matches; fewer than min or more than max fail (max < 0: no bound).
type refs struct {
	in, except []string
	within     string
	what       match
	min, max   int
}

func (c refs) findings(tr *srcTree) []string {
	files, out := tr.scope(c.in, c.except)
	var hits []string
	found := false
	for _, f := range files {
		var roots []ast.Node
		if c.within == "" {
			roots = []ast.Node{f.ast}
		} else {
			for _, d := range f.ast.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && funcName(fd) == c.within && fd.Body != nil {
					roots = append(roots, fd.Body)
				}
			}
		}
		found = found || len(roots) > 0
		for _, root := range roots {
			ast.Inspect(root, func(n ast.Node) bool {
				if n != nil && c.what(f, n) {
					hits = append(hits, fmt.Sprintf("%s: %s", tr.at(n), f.text(n)))
				}
				return true
			})
		}
	}
	where := strings.Join(c.in, ", ")
	if c.within != "" {
		if !found {
			return append(out, fmt.Sprintf("%s: %s is not declared", where, c.within))
		}
		where = c.within
	}
	switch {
	case c.max == 0:
		out = append(out, hits...)
	case c.max > 0 && len(hits) > c.max:
		out = append(out, fmt.Sprintf("%s: %d found, at most %d allowed:", where, len(hits), c.max))
		out = append(out, hits...)
	case len(hits) < c.min:
		out = append(out, fmt.Sprintf("%s: %d found, at least %d needed", where, len(hits), c.min))
	}
	return out
}

// A match picks the nodes a refs check counts. Comments never match.
type match func(sf *srcFile, n ast.Node) bool

// named matches an identifier whose name re matches: a use, a selector's
// name (a call, a method value or expression) or a declaration.
func named(re string) match {
	r := regexp.MustCompile(re)
	return func(_ *srcFile, n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		return ok && r.MatchString(id.Name)
	}
}

// qual matches pkg.name, pkg being whatever name the file imports
// importPath by.
func qual(importPath, name string) match {
	return func(sf *srcFile, n ast.Node) bool {
		se, ok := n.(*ast.SelectorExpr)
		if !ok || se.Sel.Name != name {
			return false
		}
		x, ok := se.X.(*ast.Ident)
		return ok && x.Name == importName(sf.ast, importPath)
	}
}

// call matches a call of a function or method called name with nargs
// arguments (any number when nargs < 0).
func call(name string, nargs int) match {
	return func(_ *srcFile, n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		if !ok || nargs >= 0 && len(c.Args) != nargs {
			return false
		}
		switch f := c.Fun.(type) {
		case *ast.Ident:
			return f.Name == name
		case *ast.SelectorExpr:
			return f.Sel.Name == name
		}
		return false
	}
}

// lit matches the string literal s.
func lit(s string) match {
	return func(_ *srcFile, n ast.Node) bool {
		bl, ok := n.(*ast.BasicLit)
		if !ok || bl.Kind != token.STRING {
			return false
		}
		v, err := strconv.Unquote(bl.Value)
		return err == nil && v == s
	}
}

// indexed matches an instantiation (or index) of a name re matches: Queue[T].
func indexed(re string) match {
	r := regexp.MustCompile(re)
	return func(_ *srcFile, n ast.Node) bool {
		var x ast.Expr
		switch n := n.(type) {
		case *ast.IndexExpr:
			x = n.X
		case *ast.IndexListExpr:
			x = n.X
		default:
			return false
		}
		return r.MatchString(typeName(x))
	}
}

// asserted matches a type assertion, or a type switch with a case, on a
// type whose name re matches (its qualifier and * dropped).
func asserted(re string) match {
	r := regexp.MustCompile(re)
	return func(_ *srcFile, n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeAssertExpr:
			return n.Type != nil && r.MatchString(typeName(n.Type))
		case *ast.TypeSwitchStmt:
			for _, cc := range n.Body.List {
				for _, e := range cc.(*ast.CaseClause).List {
					if r.MatchString(typeName(e)) {
						return true
					}
				}
			}
		}
		return false
	}
}

// typeName is e's name without its qualifier or *: "RingPlane" for
// *transport.RingPlane.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// gos fails on a go statement of in whose callee allow does not match
// ("" allows none).
type gos struct {
	in    []string
	allow string
}

func (c gos) findings(tr *srcTree) []string {
	files, out := tr.scope(c.in, nil)
	var allow *regexp.Regexp
	if c.allow != "" {
		allow = regexp.MustCompile(c.allow)
	}
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				if callee := f.text(g.Call.Fun); allow == nil || !allow.MatchString(callee) {
					out = append(out, fmt.Sprintf("%s: go %s", tr.at(g), callee))
				}
			}
			return true
		})
	}
	return out
}

// chans fails on a channel type of in, or a slice or array of channels,
// whose rendering re matches: "chan func()", "[]chan int".
type chans struct {
	in []string
	re string
}

func (c chans) findings(tr *srcTree) []string {
	files, out := tr.scope(c.in, nil)
	re := regexp.MustCompile(c.re)
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			var e ast.Expr
			switch n := n.(type) {
			case *ast.ChanType:
				e = n
			case *ast.ArrayType:
				if _, ok := n.Elt.(*ast.ChanType); ok {
					e = n
				}
			}
			if e != nil && re.MatchString(f.text(e)) {
				out = append(out, fmt.Sprintf("%s: %s", tr.at(e), f.text(e)))
			}
			return true
		})
	}
	return out
}

// tabledFlags fails on a flag that a non-test file of dir defines — a
// definer of the flag package or of a set made by flag.NewFlagSet, called
// with a literal name — and that no string literal "-name" or "-name=…" of
// table names. table is a top-level var of dir's test files: the rows
// those files hold the binary's flag handling to. A definer whose name is
// not a literal, and a missing table, are findings too.
type tabledFlags struct {
	dir, table string
}

// flagDefiners are the flag.FlagSet methods (and flag functions) that
// define a flag.
var flagDefiners = regexp.MustCompile(`^(Bool|Duration|Float64|Int|Int64|String|Uint|Uint64|Text)(Var|Func)?$|^(Var|Func)$`)

func (c tabledFlags) findings(tr *srcTree) []string {
	files, out := tr.scope([]string{c.dir}, nil)
	tabled, err := tableStrings(c.dir, c.table)
	if err != nil {
		out = append(out, fmt.Sprintf("%s: %v", c.dir, err))
	}
	for _, f := range files {
		sets := map[string]bool{}
		if n := importName(f.ast, "flag"); n != "" {
			sets[n] = true
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 && qual("flag", "NewFlagSet")(f, unCall(as.Rhs[0])) {
				if id, ok := as.Lhs[0].(*ast.Ident); ok {
					sets[id.Name] = true
				}
			}
			return true
		})
		ast.Inspect(f.ast, func(n ast.Node) bool {
			ce, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			se, ok := ce.Fun.(*ast.SelectorExpr)
			if !ok || !flagDefiners.MatchString(se.Sel.Name) {
				return true
			}
			if x, ok := se.X.(*ast.Ident); !ok || !sets[x.Name] {
				return true
			}
			i := 0
			if strings.HasSuffix(se.Sel.Name, "Var") {
				i = 1
			}
			var name string
			if i < len(ce.Args) {
				if bl, ok := ce.Args[i].(*ast.BasicLit); ok && bl.Kind == token.STRING {
					name, _ = strconv.Unquote(bl.Value)
				}
			}
			switch {
			case name == "":
				out = append(out, fmt.Sprintf("%s: %s defines a flag whose name is not a literal", tr.at(ce), f.text(ce)))
			case !slices.ContainsFunc(tabled, func(s string) bool { return s == "-"+name || strings.HasPrefix(s, "-"+name+"=") }):
				out = append(out, fmt.Sprintf("%s: flag -%s is no row of %s", tr.at(ce), name, c.table))
			}
			return true
		})
	}
	return out
}

// unCall is the function a call expression calls, or e itself.
func unCall(e ast.Expr) ast.Node {
	if ce, ok := e.(*ast.CallExpr); ok {
		return ce.Fun
	}
	return e
}

// tableStrings returns every string literal in the value of the top-level
// var table declared by a test file of dir.
func tableStrings(dir, table string) ([]string, error) {
	tests, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		return nil, err
	}
	for _, name := range tests {
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			return nil, err
		}
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, sp := range gd.Specs {
				vs := sp.(*ast.ValueSpec)
				if !slices.ContainsFunc(vs.Names, func(id *ast.Ident) bool { return id.Name == table }) {
					continue
				}
				var strs []string
				for _, v := range vs.Values {
					ast.Inspect(v, func(n ast.Node) bool {
						if bl, ok := n.(*ast.BasicLit); ok && bl.Kind == token.STRING {
							s, _ := strconv.Unquote(bl.Value)
							strs = append(strs, s)
						}
						return true
					})
				}
				return strs, nil
			}
		}
	}
	return nil, fmt.Errorf("no test file declares the table %s", table)
}
