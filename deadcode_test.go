// The dead-code guard: no production declaration may exist only for tests.
// It type-checks the Linux build of the tree's one parse and resolves every
// use to the object it names, so a method whose name a field or another
// method shares is not kept alive by that name. `make loc` quotes this
// test's -v lines: the guard's findings, the options and the exported
// identifiers per internal/ package.
package gpuvirt_test

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// testOnlyAllowed names the declarations the guard lets tests alone reach,
// each with its reason: another package's tests need it, and an
// export_test.go cannot serve a package other than its own.
var testOnlyAllowed = map[string]string{
	"sim.Env.Switches":   "ipc and gpusim tests pin a warm cycle's process switches; the latency budget reads it",
	"sim.Env.Scheduled":  "ipc and gpusim tests pin calendar entries per operation; the latency budget reads it",
	"gpusim.MustNew":     "the device constructor of 20 test call sites in direct, gvm, ipc and vgpu; gpusim.New only fails on an invalid Arch",
	"trace.Tracer.Spans": "gvm and trace tests read the recorded spans; ROADMAP item 2 folds internal/trace into the span recorder",
	"fermi.TeslaC1060":   "the pre-Fermi reference card of gpusim's overlap test and the root AblationOverlap benchmark (DESIGN.md §6)",
}

// optionAllowed names the options the guard lets tests alone set, each with
// the test or ablation that sets it: a reference path the paper's numbers
// are measured against, which no command line needs.
var optionAllowed = map[string]string{
	"gpusim.Config.PreemptRatio":   "-1 is the no-preemption QoS reference of gpusim's smsched_qos_test and of the experiments' interference harness",
	"ipc.Options.Plane":            "the ipc and fed tests that force a data plane other than the transport's default, such as inline over unix://",
	"ipc.ServerConfig.ExecWorkers": "1 is the serial kernel executor of ipc's oversub daemon config, so that what its cycle allocates does not depend on the host's cores",
	"spmd.Config.BlockingSTP":      "the root BenchmarkAblationBlockingSTP; vgpu's TestFrontEndCostClosedForm needs the same path",
	"spmd.Config.PageableStaging":  "the root BenchmarkAblationPinned",
	"spmd.Config.PartiesOverride":  "the root BenchmarkAblationBarrier",
}

// guardEdits are edits of the tree that the guard must answer as listed:
// fires names every declaration it must then report beside the tree's own
// findings, and an edit with none must leave it silent.
var guardEdits = []struct {
	name  string
	edits []archEdit
	fires []string
}{
	{
		// The field Options.Timeout, which client.go reads, shares the
		// method's name: a guard matching names keeps the method alive.
		name:  "method-named-like-a-field",
		edits: []archEdit{{file: "internal/ipc/client.go", repl: "\n// Timeout is the round-trip bound the client was dialled with.\nfunc (c *Client) Timeout() time.Duration { return c.timeout }\n"}},
		fires: []string{"ipc.Client.Timeout"},
	},
	{
		name:  "helper-of-dead-code",
		edits: []archEdit{{file: "internal/node/placement.go", repl: "\nfunc ProbeWeight(l Load) int64 { return probeBytes(l) }\n\nfunc probeBytes(l Load) int64 { return l.MemFree }\n"}},
		fires: []string{"node.ProbeWeight", "node.probeBytes"},
	},
	{
		// A third listener that listen returns: its methods are reached
		// only through the interface.
		name: "listener-reached-through-its-interface",
		edits: []archEdit{
			{file: "internal/transport/transport.go", find: "\t\treturn listenInproc(target)\n", repl: "\t\treturn listenInproc(target)\n\t}\n\tif target == \"-\" {\n\t\treturn nopListener{}, nil\n"},
			{file: "internal/transport/transport.go", repl: "\ntype nopListener struct{}\n\nfunc (nopListener) Accept() (net.Conn, error) { return nil, net.ErrClosed }\nfunc (nopListener) Close() error               { return nil }\nfunc (nopListener) Addr() string                { return \"nop://-\" }\nfunc (nopListener) DefaultPlane() string        { return PlaneInline }\n"},
		},
	},
	{
		name: "generic-method-called-through-an-instantiation",
		edits: []archEdit{
			{file: "internal/sim/store.go", repl: "\nfunc (s *Store[T]) Full() bool { return s.cap != 0 && s.Len() >= s.cap }\n"},
			{file: "internal/gpusim/stream.go", find: "\ts.ops.TryPut(streamOp{})\n", repl: "\tif !s.ops.Full() {\n\t\ts.ops.TryPut(streamOp{})\n\t}\n"},
		},
	},
	{
		name:  "generic-method-nobody-calls",
		edits: []archEdit{{file: "internal/sim/store.go", repl: "\nfunc (s *Store[T]) Full() bool { return s.cap != 0 && s.Len() >= s.cap }\n"}},
		fires: []string{"sim.Store.Full"},
	},
	{
		// The interface is used, its method is not: neither it nor the
		// implementation it would reach is live.
		name:  "interface-method-nobody-calls",
		edits: []archEdit{{file: "internal/node/placement.go", repl: "\ntype prober interface{ Probe() int }\n\ntype probeImpl struct{}\n\nfunc (probeImpl) Probe() int { return 1 }\n\nvar probers = []prober{probeImpl{}}\n"}},
		fires: []string{"node.probeImpl.Probe", "node.prober.Probe"},
	},
	{
		name:  "string-method",
		edits: []archEdit{{file: "internal/ipc/client.go", repl: "\nfunc (c *Client) String() string { return \"ipc client\" }\n"}},
	},
	{
		// Close counts, and only a test would read the count.
		name:  "field-only-tests-read",
		edits: closesField,
		fires: []string{"ipc.Client.closes"},
	},
	{
		name:  "field-read-by-dead-code",
		edits: slices.Concat(closesField, []archEdit{{file: "internal/ipc/client.go", repl: "\nfunc (c *Client) closeCount() int { return c.closes }\n"}}),
		fires: []string{"ipc.Client.closeCount", "ipc.Client.closes"},
	},
	{
		// An allowlisted accessor keeps the field it reads (sim.Env.switches
		// in the tree as it is), not a helper it calls.
		name: "helper-of-an-allowlisted-declaration",
		edits: []archEdit{{file: "internal/sim/sim.go",
			find: "func (e *Env) Switches() uint64 { return e.switches }\n",
			repl: "func (e *Env) Switches() uint64 { return e.switchCount() }\n\nfunc (e *Env) switchCount() uint64 { return e.switches }\n"}},
		fires: []string{"sim.Env.switchCount", "sim.Env.switches"},
	},
	{
		// Four fields production reads only indirectly, on one tree (the
		// guard then names whichever it misses): encoding/json reads a
		// tagged field by reflection; a generic type's field is read through
		// an instance; sync/atomic reads a field through its address; c.n
		// reads the embedded probeBase too, which Uses does not record.
		name: "fields-read-indirectly",
		edits: []archEdit{
			{file: "bench/gvmload/main.go", find: "\t\tFailed    int              `json:\"failed\"`\n", repl: "\t\tFailed    int              `json:\"failed\"`\n\t\tProbes    int              `json:\"probes\"`\n"},
			{file: "bench/gvmload/main.go", find: "{correct, r.attempted, r.failed, make(", repl: "{correct, r.attempted, r.failed, 0, make("},
			{file: "internal/sim/store.go", find: "\tcap     int\n", repl: "\tcap     int\n\tPuts    int\n"},
			{file: "internal/sim/store.go", find: "\ts.deliver(v)\n\treturn true\n", repl: "\ts.Puts++\n\ts.deliver(v)\n\treturn true\n"},
			{file: "internal/gpusim/stream.go", find: "\ts.ops.TryPut(streamOp{})\n", repl: "\tif s.ops.Puts >= 0 {\n\t\ts.ops.TryPut(streamOp{})\n\t}\n"},
			{file: "internal/metrics/metrics.go", find: "type Registry struct {\n", repl: "type Registry struct {\n\tcounters int64\n"},
			{file: "internal/metrics/metrics.go", find: "\ts := r.register(name, help, kindCounter, labels, nil)\n", repl: "\tatomic.AddInt64(&r.counters, 1)\n\ts := r.register(name, help, kindCounter, labels, nil)\n"},
			{file: "internal/ipc/client.go", find: "type Client struct {\n", repl: "type Client struct {\n\tprobeBase\n"},
			{file: "internal/ipc/client.go", find: "\terr := c.conn.Close()\n", repl: "\terr := c.conn.Close()\n\t_ = c.n\n"},
			{file: "internal/ipc/client.go", repl: "\ntype probeBase struct{ n int }\n"},
		},
	},
	{
		// Two options DialOptions reads: nothing outside tests sets Retries,
		// and bench/gvmload sets Backoff only to a constant zero.
		name: "options-only-tests-set",
		edits: []archEdit{
			{file: "internal/ipc/client.go", find: "\tNoPipeline bool\n}\n", repl: "\tNoPipeline bool\n\tRetries    int\n\tBackoff    time.Duration\n}\n"},
			{file: "internal/ipc/client.go", find: "\tif o.Plane != \"\" {\n", repl: "\t_, _ = o.Retries, o.Backoff\n\tif o.Plane != \"\" {\n"},
			{file: "bench/gvmload/traced.go", find: "ipc.Options{NoPipeline: true}, each, always(pipelined))", repl: "ipc.Options{NoPipeline: true, Backoff: 0}, each, always(pipelined))"},
		},
		fires: []string{"ipc.Options.Backoff", "ipc.Options.Retries"},
	},
	{
		// An option only bench/gvmload sets (as Options.NoPipeline in the
		// tree as it is), and one node sets by forwarding its own.
		name: "options-set-outside-tests",
		edits: []archEdit{
			{file: "internal/ipc/client.go", find: "\tNoPipeline bool\n}\n", repl: "\tNoPipeline bool\n\tRetries    int\n}\n"},
			{file: "internal/ipc/client.go", find: "\tif o.Plane != \"\" {\n", repl: "\t_ = o.Retries\n\tif o.Plane != \"\" {\n"},
			{file: "bench/gvmload/traced.go", find: "ipc.Options{NoPipeline: true}, each, always(pipelined))", repl: "ipc.Options{NoPipeline: true, Retries: 2}, each, always(pipelined))"},
			{file: "internal/gpusim/device.go", find: "\tPreemptRatio float64\n", repl: "\tPreemptRatio float64\n\tOvercommit   float64\n"},
			{file: "internal/gpusim/device.go", find: "\tif err := cfg.Arch.Validate(); err != nil {\n", repl: "\t_ = cfg.Overcommit\n\tif err := cfg.Arch.Validate(); err != nil {\n"},
			{file: "internal/node/node.go", find: "\t\t\tExecWorkers: cfg.ExecWorkers,\n", repl: "\t\t\tExecWorkers: cfg.ExecWorkers,\n\t\t\tOvercommit:  cfg.Overcommit,\n"},
		},
	},
}

// closesField is a field of ipc.Client that Close writes and nothing reads.
var closesField = []archEdit{
	{file: "internal/ipc/client.go", find: "\tnoPipeline bool\n", repl: "\tnoPipeline bool\n\tcloses     int\n"},
	{file: "internal/ipc/client.go", find: "\terr := c.conn.Close()\n", repl: "\tc.closes++\n\terr := c.conn.Close()\n"},
}

// TestNoTestOnlyCode fails on every top-level func, method or type, and
// every method of an interface type, declared in the Linux build of the
// tree's non-test Go files that no non-test code uses outside its own
// declaration. cmd/, examples/ and bench/gvmload count as users. A method is
// used too when a live interface that has it reaches it: an interface that
// non-test code names, writes as a literal or passes a value as, and error,
// fmt.Stringer and io.Writer, which the standard library reaches through
// any. It fails too on every struct field declared there that no non-test
// code reads: an assignment target, ++/-- and a composite-literal key only
// write it, &x.f and a promoted selector's embedded hops read it, a generic
// type's instances share their fields, and a struct with json: tags is
// exempt. Declarations found dead are taken out of the counts and the scan
// repeats, so a helper or field only dead code uses is dead too. And it
// fails on every option, an exported field of an exported struct type named
// …Config or …Options, that no non-test code sets to anything but a
// constant zero, unless optionAllowed names it. Each of guardEdits must
// then be answered as listed.
func TestNoTestOnlyCode(t *testing.T) {
	tr := repoTree(t)
	dead, options, err := testOnlyDecls(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(testOnlyAllowed) > 5 {
		t.Errorf("the allowlist has %d entries; it holds at most 5", len(testOnlyAllowed))
	}
	if len(optionAllowed) > 6 {
		t.Errorf("the option allowlist has %d entries; it holds at most 6", len(optionAllowed))
	}
	var findings, lines, unset int
	allowed := map[string]bool{}
	for _, d := range dead {
		allow := testOnlyAllowed
		if d.unset {
			unset++
			allow = optionAllowed
		}
		if _, ok := allow[d.key]; ok {
			allowed[d.key] = true
			continue
		}
		findings++
		lines += d.lines
		if d.unset {
			t.Errorf("%s: option %s is set only by tests (%d lines); delete it, or allowlist it naming the test or ablation that sets it", d.pos, d.key, d.lines)
			continue
		}
		if _, field := d.obj.(*types.Var); field {
			t.Errorf("%s: field %s is read by no non-test code (%d lines); delete it, or have production read it", d.pos, d.key, d.lines)
			continue
		}
		t.Errorf("%s: %s is used by no non-test code outside its own declaration (%d lines); delete it or move it into a _test.go file", d.pos, d.key, d.lines)
	}
	for key := range testOnlyAllowed {
		if !allowed[key] {
			t.Errorf("allowlist entry %s names no test-only declaration; drop it", key)
		}
	}
	for key := range optionAllowed {
		if !allowed[key] {
			t.Errorf("option allowlist entry %s names no option only tests set; drop it", key)
		}
	}
	t.Logf("test-only declarations: %d findings (%d lines), allowlist %d; options: %d Config/Options fields, %d set only by tests, allowlist %d",
		findings, lines, len(testOnlyAllowed), len(options), unset, len(optionAllowed))
	t.Logf("option fields: %s", strings.Join(options, " "))
	t.Logf("exported identifiers: %s", exportedIdents(tr))

	before := map[string]bool{}
	for _, d := range dead {
		before[d.key] = true
	}
	for _, g := range guardEdits {
		t.Run("edit/"+g.name, func(t *testing.T) {
			mt := tr
			for _, e := range g.edits {
				var err error
				if mt, err = mt.mutate(e); err != nil {
					t.Fatal(err)
				}
			}
			dead, _, err := testOnlyDecls(mt)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, d := range dead {
				if !before[d.key] {
					got = append(got, d.key)
				}
			}
			if !slices.Equal(got, g.fires) {
				t.Errorf("%v: the guard reports %q, want %q", g.edits, got, g.fires)
			}
		})
	}
}

// exportedIdents renders, per internal/ package, how many exported names its
// non-test files declare, as "internal/cuda=37 internal/direct=7 …": top-level
// funcs, types, vars and consts, grouped or not, and the exported methods of
// exported types. Struct fields and interface methods are not counted.
func exportedIdents(tr *srcTree) string {
	counts := map[string]int{}
	for _, sf := range tr.files {
		dir := path.Dir(sf.path)
		if path.Dir(dir) != "internal" {
			continue
		}
		n := counts[dir]
		for _, d := range sf.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && (d.Recv == nil || ast.IsExported(recvType(d.Recv.List[0].Type))) {
					n++
				}
			case *ast.GenDecl:
				for _, sp := range d.Specs {
					switch sp := sp.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() {
							n++
						}
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							if id.IsExported() {
								n++
							}
						}
					}
				}
			}
		}
		counts[dir] = n
	}
	var out []string
	for dir, n := range counts {
		out = append(out, fmt.Sprintf("%s=%d", dir, n))
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}

// srcFile is one non-test Go file of the tree, parsed with its comments.
type srcFile struct {
	path string // slash-separated, relative to the repository root
	src  []byte
	ast  *ast.File
}

// srcTree is every non-test .go file of the repository: cmd/, examples/ and
// bench/ included, whatever their build tags.
type srcTree struct {
	fset  *token.FileSet
	files []*srcFile
}

var (
	repoOnce sync.Once
	repo     *srcTree
	repoErr  error
)

// repoTree is the repository's tree, parsed once per test binary: every
// root test reads the same parse.
func repoTree(t *testing.T) *srcTree {
	t.Helper()
	repoOnce.Do(func() { repo, repoErr = loadTree() })
	if repoErr != nil {
		t.Fatal(repoErr)
	}
	return repo
}

// loadTree reads and parses every non-test .go file under the current
// directory, skipping hidden directories and testdata.
func loadTree() (*srcTree, error) {
	tr := &srcTree{fset: token.NewFileSet()}
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if n := e.Name(); path != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		sf, err := tr.parse(filepath.ToSlash(path), src)
		if err != nil {
			return err
		}
		tr.files = append(tr.files, sf)
		return nil
	})
	return tr, err
}

func (tr *srcTree) parse(path string, src []byte) (*srcFile, error) {
	f, err := parser.ParseFile(tr.fset, path, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	return &srcFile{path: path, src: src, ast: f}, nil
}

// modulePath is the import path of the repository's root package; a
// directory's package is modulePath/dir, bench/gvmload's included.
const modulePath = "gpuvirt"

// typedPkg is one directory's package of the tree's Linux build,
// type-checked.
type typedPkg struct {
	files []*srcFile
	pkg   *types.Package
	info  *types.Info
}

// typedTree type-checks the Linux build of a srcTree, each package once, on
// demand.
type typedTree struct {
	tr   *srcTree
	pkgs map[string]*typedPkg // by import path
}

// linuxBuild is the build the guard reads: files the Linux build excludes are
// type-checked by make vet's GOOS passes, not here.
var linuxBuild = func() build.Context {
	c := build.Default
	c.GOOS, c.GOARCH, c.CgoEnabled = "linux", "amd64", false
	return c
}()

// typecheck groups tr's files of the Linux build into packages by directory
// and type-checks each.
func typecheck(tr *srcTree) (*typedTree, error) {
	src := map[string][]byte{}
	for _, sf := range tr.files {
		src[sf.path] = sf.src
	}
	bc := linuxBuild
	bc.JoinPath = path.Join
	bc.OpenFile = func(p string) (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(src[p])), nil }
	tt := &typedTree{tr: tr, pkgs: map[string]*typedPkg{}}
	var imports []string
	for _, sf := range tr.files {
		dir, name := path.Split(sf.path)
		ok, err := bc.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		ip := path.Join(modulePath, dir)
		p := tt.pkgs[ip]
		if p == nil {
			p = &typedPkg{}
			tt.pkgs[ip] = p
		}
		p.files = append(p.files, sf)
		for _, is := range sf.ast.Imports {
			imports = append(imports, strings.Trim(is.Path.Value, `"`))
		}
	}
	var std []string
	for _, ip := range imports {
		if tt.pkgs[ip] == nil {
			std = append(std, ip)
		}
	}
	if err := locateStd(std); err != nil {
		return nil, err
	}
	for ip := range tt.pkgs {
		if _, err := tt.Import(ip); err != nil {
			return nil, err
		}
	}
	return tt, nil
}

// Import returns a module package, type-checked, or a standard one from its
// export data.
func (tt *typedTree) Import(ip string) (*types.Package, error) {
	p := tt.pkgs[ip]
	if p == nil {
		return stdPackage(ip)
	}
	if p.pkg != nil {
		return p.pkg, nil
	}
	files := make([]*ast.File, len(p.files))
	for i, sf := range p.files {
		files[i] = sf.ast
	}
	p.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: tt, Sizes: types.SizesFor("gc", linuxBuild.GOARCH)}
	pkg, err := conf.Check(ip, tt.tr.fset, files, p.info)
	if err != nil {
		return nil, err
	}
	p.pkg = pkg
	return pkg, nil
}

var (
	stdMu      sync.Mutex
	stdImports types.Importer
	stdExports = map[string]string{} // import path -> export data file
)

// locateStd finds the gc export data of the standard packages paths name,
// and of their dependencies, with one go list call for those not found yet.
func locateStd(paths []string) error {
	stdMu.Lock()
	defer stdMu.Unlock()
	var missing []string
	for _, ip := range paths {
		if _, ok := stdExports[ip]; !ok && ip != "unsafe" && !slices.Contains(missing, ip) {
			missing = append(missing, ip)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	// The export data must be the Linux build's, made by the toolchain that
	// runs this test, whatever the host.
	cmd := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), append([]string{"list", "-export", "-deps", "-f", "{{.ImportPath}} {{.Export}}"}, missing...)...)
	cmd.Env = append(os.Environ(), "GOOS="+linuxBuild.GOOS, "GOARCH="+linuxBuild.GOARCH, "CGO_ENABLED=0")
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go list -export %s: %v", strings.Join(missing, " "), err)
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		ip, file, _ := strings.Cut(sc.Text(), " ")
		stdExports[ip] = file
	}
	return nil
}

// stdPackage imports a standard package from its gc export data. Its
// positions go into the repository parse's file set, which every edited
// tree shares.
func stdPackage(ip string) (*types.Package, error) {
	if err := locateStd([]string{ip}); err != nil {
		return nil, err
	}
	stdMu.Lock()
	defer stdMu.Unlock()
	if stdImports == nil {
		stdImports = importer.ForCompiler(repo.fset, "gc", func(ip string) (io.ReadCloser, error) {
			return os.Open(stdExports[ip])
		})
	}
	return stdImports.Import(ip)
}

// A decl is one candidate: a top-level func, method or type of the Linux
// build, or a method of an interface type declared there.
type decl struct {
	key      string       // pkg.Name or pkg.Recv.Name
	obj      types.Object // *types.Func (a generic method's origin) or *types.TypeName
	pos      token.Position
	from, to token.Pos   // the declaration, without its doc comment
	lines    int         // with its doc comment
	inner    []*decl     // an interface type's methods
	uses     map[any]int // what it uses: objects, and interfaces (*types.Interface)
	dead     bool
	option   bool // an exported field of an exported *Config or *Options struct
	unset    bool // an option that no non-test code sets
}

// ifaceEdge is one way to reach a method: a call of method on a value of
// interface type iface.
type ifaceEdge struct {
	iface  *types.Interface
	method *types.Func
}

// testOnlyDecls returns the declarations of the tree that the fixed-point
// scan finds dead and the live options no non-test code sets, allowlisted
// ones included, and the keys of every option the tree declares, each
// sorted. Every call type-checks the whole tree: the edited trees of
// guardEdits too.
func testOnlyDecls(tr *srcTree) ([]*decl, []string, error) {
	tt, err := typecheck(tr)
	if err != nil {
		return nil, nil, err
	}

	// The candidates, by file, in source order, and by object.
	byFile := map[*token.File][]*decl{}
	byObj := map[types.Object]*decl{}
	var all []*decl
	var named []*types.TypeName
	for _, p := range tt.pkgs {
		for _, sf := range p.files {
			ds := fileDecls(tr.fset, sf, p.info)
			byFile[tr.fset.File(sf.ast.Pos())] = ds
			for _, d := range ds {
				for _, d := range append([]*decl{d}, d.inner...) {
					all = append(all, d)
					byObj[d.obj] = d
					if tn, ok := d.obj.(*types.TypeName); ok {
						if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
							named = append(named, tn)
						}
					}
				}
			}
		}
	}
	declAt := func(pos token.Pos) *decl {
		ds := byFile[tr.fset.File(pos)]
		i := sort.Search(len(ds), func(i int) bool { return ds[i].to > pos })
		if i == len(ds) || ds[i].from > pos {
			return nil
		}
		for _, in := range ds[i].inner {
			if in.from <= pos && pos < in.to {
				return in
			}
		}
		return ds[i]
	}

	// Every use, counted in total and in the declaration it lies in.
	counts := map[any]int{}
	use := func(pos token.Pos, k any) {
		counts[k]++
		if d := declAt(pos); d != nil {
			d.uses[k]++
		}
	}
	useIface := func(pos token.Pos, t types.Type) {
		if _, ok := t.(*types.TypeParam); ok {
			return
		}
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			use(pos, it)
		}
	}
	sets := map[types.Object]int{}
	for _, p := range tt.pkgs {
		written := map[*ast.Ident]bool{}
		for _, sf := range p.files {
			// An interface type's own declaration does not use it.
			ast.Inspect(sf.ast, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok {
					if it, ok := ts.Type.(*ast.InterfaceType); ok {
						ast.Inspect(it.Methods, func(n ast.Node) bool { return inspectUse(p.info, n, useIface) })
						return false
					}
				}
				inspectWrite(n, written)
				inspectSet(p.info, n, sets)
				return inspectUse(p.info, n, useIface)
			})
		}
		for id, obj := range p.info.Uses {
			switch obj := obj.(type) {
			case *types.Func:
				use(id.Pos(), obj.Origin())
			case *types.TypeName:
				use(id.Pos(), obj)
				useIface(id.Pos(), obj.Type())
			case *types.Var:
				if obj.IsField() && !written[id] {
					use(id.Pos(), obj.Origin())
				}
			}
		}
		// A promoted selector reads the embedded fields on its path, which
		// Uses does not record.
		for e, s := range p.info.Selections {
			t, path := s.Recv(), s.Index()
			for _, i := range path[:len(path)-1] {
				if ptr, ok := t.Underlying().(*types.Pointer); ok {
					t = ptr.Elem()
				}
				st, ok := t.Underlying().(*types.Struct)
				if !ok {
					break
				}
				use(e.Pos(), st.Field(i).Origin())
				t = st.Field(i).Type()
			}
		}
	}
	for _, it := range reachedThroughAny() {
		counts[it]++
	}

	// Which methods each used interface reaches, on which named type.
	declaring := map[string][]*types.TypeName{}
	for _, tn := range named {
		for _, m := range methodNames(tn) {
			declaring[m] = append(declaring[m], tn)
		}
	}
	reach := map[types.Object][]ifaceEdge{}
	for k := range counts {
		it, ok := k.(*types.Interface)
		if !ok {
			continue
		}
		seen := map[*types.TypeName]bool{}
		for i := 0; i < it.NumMethods(); i++ {
			for _, tn := range declaring[it.Method(i).Name()] {
				if seen[tn] {
					continue
				}
				seen[tn] = true
				v := tn.Type()
				if !types.IsInterface(v) {
					v = types.NewPointer(v)
				}
				if !types.Implements(v, it) {
					continue
				}
				for j := 0; j < it.NumMethods(); j++ {
					im := it.Method(j)
					obj, _, _ := types.LookupFieldOrMethod(v, false, im.Pkg(), im.Name())
					if f, ok := obj.(*types.Func); ok && f.Origin() != im {
						reach[f.Origin()] = append(reach[f.Origin()], ifaceEdge{it, im})
					}
				}
			}
		}
	}

	live := func(d *decl) bool {
		if counts[d.obj] > d.uses[d.obj] {
			return true
		}
		for _, e := range reach[d.obj] {
			if counts[e.iface] > 0 && (byObj[e.method] == nil || !byObj[e.method].dead) {
				return true
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for _, d := range all {
			if d.dead || live(d) {
				continue
			}
			d.dead, changed = true, true
			_, kept := testOnlyAllowed[d.key]
			for k, n := range d.uses {
				if _, field := k.(*types.Var); kept && field {
					continue // the state an allowlisted accessor exposes stays
				}
				counts[k] -= n
			}
		}
	}
	var out []*decl
	var options []string
	for _, ds := range byFile {
		for _, d := range ds {
			if d.dead {
				out = append(out, d)
			}
			for _, in := range d.inner {
				if in.option {
					options = append(options, in.key)
					in.unset = !in.dead && sets[in.obj] == 0
				}
				// A dead type's fields are its lines, reported once.
				if _, field := in.obj.(*types.Var); in.dead && !(d.dead && field) || in.unset {
					out = append(out, in)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	sort.Strings(options)
	return out, options, nil
}

// inspectWrite records the field names n writes and does not read: an
// assignment's or ++/--'s target, and a composite literal's keys.
func inspectWrite(n ast.Node, written map[*ast.Ident]bool) {
	target := func(e ast.Expr) {
		if s, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			written[s.Sel] = true
		}
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, e := range n.Lhs {
			target(e)
		}
	case *ast.IncDecStmt:
		target(n.X)
	case *ast.CompositeLit:
		for _, e := range n.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok {
					written[id] = true
				}
			}
		}
	}
}

// inspectSet counts the fields n sets to anything but a constant zero value
// (0, false, "", nil): a composite literal's key, an assignment's or
// ++/--'s target and &x.f, each with the fields its target is reached
// through, so that x.f[i] = v and x.f.g = v set f too.
func inspectSet(info *types.Info, n ast.Node, sets map[types.Object]int) {
	set := func(id *ast.Ident) {
		if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
			sets[v.Origin()]++
		}
	}
	target := func(e ast.Expr) {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				set(x.Sel)
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				return
			}
		}
	}
	zero := func(e ast.Expr) bool {
		tv := info.Types[e]
		if tv.IsNil() {
			return true
		}
		switch v := tv.Value; {
		case v == nil:
			return false
		case v.Kind() == constant.Bool:
			return !constant.BoolVal(v)
		case v.Kind() == constant.String:
			return constant.StringVal(v) == ""
		}
		return constant.Sign(tv.Value) == 0
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		for i, e := range n.Lhs {
			if len(n.Rhs) != len(n.Lhs) || !zero(n.Rhs[i]) {
				target(e)
			}
		}
	case *ast.IncDecStmt:
		target(n.X)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			target(n.X)
		}
	case *ast.CompositeLit:
		for _, e := range n.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok && !zero(kv.Value) {
				if id, ok := kv.Key.(*ast.Ident); ok {
					set(id)
				}
			}
		}
	}
}

// inspectUse records the interfaces n makes a value of: an interface literal,
// and every interface-typed parameter of a call.
func inspectUse(info *types.Info, n ast.Node, useIface func(token.Pos, types.Type)) bool {
	switch n := n.(type) {
	case *ast.InterfaceType:
		useIface(n.Pos(), info.Types[n].Type)
	case *ast.CallExpr:
		tv, ok := info.Types[n.Fun]
		if !ok || tv.IsType() || tv.IsBuiltin() {
			break
		}
		sig, ok := tv.Type.Underlying().(*types.Signature)
		if !ok {
			break
		}
		for i := 0; i < sig.Params().Len(); i++ {
			t := sig.Params().At(i).Type()
			if sig.Variadic() && i == sig.Params().Len()-1 && !n.Ellipsis.IsValid() {
				t = t.(*types.Slice).Elem()
			}
			useIface(n.Pos(), t)
		}
	}
	return true
}

// reachedThroughAny returns the standard interfaces the standard library
// finds on a value passed as any: error, fmt.Stringer and io.Writer.
func reachedThroughAny() []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, q := range [][2]string{{"fmt", "Stringer"}, {"io", "Writer"}} {
		pkg, err := stdPackage(q[0])
		if err != nil {
			panic(err)
		}
		out = append(out, pkg.Scope().Lookup(q[1]).Type().Underlying().(*types.Interface))
	}
	return out
}

// methodNames returns the methods a named type declares, or an interface
// type's method set.
func methodNames(tn *types.TypeName) []string {
	n := tn.Type().(*types.Named)
	var out []string
	if it, ok := n.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			out = append(out, it.Method(i).Name())
		}
		return out
	}
	for i := 0; i < n.NumMethods(); i++ {
		out = append(out, n.Method(i).Name())
	}
	return out
}

// fileDecls returns the file's candidate declarations in source order, an
// interface type's methods as its inner ones.
func fileDecls(fset *token.FileSet, sf *srcFile, info *types.Info) []*decl {
	pkg := sf.ast.Name.Name
	var out []*decl
	add := func(key string, id *ast.Ident, doc *ast.CommentGroup, from, to token.Pos) *decl {
		start := from
		if doc != nil {
			start = doc.Pos()
		}
		obj := info.Defs[id]
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin()
		}
		return &decl{
			key: key, obj: obj, pos: fset.Position(from), from: from, to: to,
			lines: fset.Position(to).Line - fset.Position(start).Line + 1,
			uses:  map[any]int{},
		}
	}
	for _, gd := range sf.ast.Decls {
		switch gd := gd.(type) {
		case *ast.FuncDecl:
			name := gd.Name.Name
			key := pkg + "." + name
			if gd.Recv != nil {
				key = pkg + "." + recvType(gd.Recv.List[0].Type) + "." + name
			} else if name == "main" || name == "init" {
				continue
			}
			d := add(key, gd.Name, gd.Doc, gd.Pos(), gd.End())
			if gd.Body != nil {
				d.inner = fieldDecls(d.key, gd.Body, add)
			}
			out = append(out, d)
		case *ast.GenDecl:
			if gd.Tok != token.TYPE {
				continue
			}
			for _, sp := range gd.Specs {
				ts := sp.(*ast.TypeSpec)
				doc, from := ts.Doc, ts.Pos()
				if len(gd.Specs) == 1 {
					doc, from = gd.Doc, gd.Pos()
				}
				d := add(pkg+"."+ts.Name.Name, ts.Name, doc, from, ts.End())
				if it, ok := ts.Type.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						if len(m.Names) == 1 {
							d.inner = append(d.inner, add(d.key+"."+m.Names[0].Name, m.Names[0], m.Doc, m.Pos(), m.End()))
						}
					}
				} else {
					d.inner = fieldDecls(d.key, ts.Type, add)
					markOptions(ts, d.inner, info)
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// markOptions marks the options among a type's fields: the exported fields
// of an exported struct type whose name ends in Config or Options.
func markOptions(ts *ast.TypeSpec, fields []*decl, info *types.Info) {
	st, ok := ts.Type.(*ast.StructType)
	if !ok || !ts.Name.IsExported() || !strings.HasSuffix(ts.Name.Name, "Config") && !strings.HasSuffix(ts.Name.Name, "Options") {
		return
	}
	option := map[types.Object]bool{}
	for _, f := range st.Fields.List {
		names := f.Names
		if len(names) == 0 {
			names = []*ast.Ident{embeddedIdent(f.Type)}
		}
		for _, id := range names {
			option[info.Defs[id]] = id.IsExported()
		}
	}
	for _, d := range fields {
		d.option = option[d.obj]
	}
}

// fieldDecls returns the fields of the struct types n holds, each keyed
// under key (and a local type's name), unless its struct's fields carry
// json: tags: encoding/json reads those by reflection. A field's range is
// its declaration, so that the uses its type makes are its own; names that
// share a declaration are their names alone.
func fieldDecls(key string, n ast.Node, add func(string, *ast.Ident, *ast.CommentGroup, token.Pos, token.Pos) *decl) []*decl {
	var out []*decl
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeSpec:
			out = append(out, fieldDecls(key+"."+n.Name.Name, n.Type, add)...)
			return false
		case *ast.StructType:
			for _, f := range n.Fields.List {
				if f.Tag != nil && strings.Contains(f.Tag.Value, `json:"`) {
					return true
				}
			}
			for _, f := range n.Fields.List {
				names := f.Names
				if len(names) == 0 {
					names = []*ast.Ident{embeddedIdent(f.Type)}
				}
				for _, id := range names {
					if id.Name == "_" {
						continue
					}
					if len(names) == 1 {
						out = append(out, add(key+"."+id.Name, id, f.Doc, f.Pos(), f.End()))
					} else {
						out = append(out, add(key+"."+id.Name, id, nil, id.Pos(), id.End()))
					}
				}
			}
		}
		return true
	})
	return out
}

// embeddedIdent is the name of an embedded field: T of T, *T, p.T and T[A].
func embeddedIdent(e ast.Expr) *ast.Ident {
	switch e := e.(type) {
	case *ast.StarExpr:
		return embeddedIdent(e.X)
	case *ast.SelectorExpr:
		return e.Sel
	case *ast.IndexExpr:
		return embeddedIdent(e.X)
	case *ast.IndexListExpr:
		return embeddedIdent(e.X)
	}
	return e.(*ast.Ident)
}

func recvType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvType(e.X)
	case *ast.IndexExpr:
		return recvType(e.X)
	case *ast.IndexListExpr:
		return recvType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return fmt.Sprintf("%T", e)
}
