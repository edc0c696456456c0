// The dead-code guard: no production declaration may exist only for tests.
// It type-checks the Linux build of the tree's one parse and resolves every
// use to the object it names, so a method whose name a field or another
// method shares is not kept alive by that name. `make loc` quotes this
// test's -v lines: the guard's findings and the exported identifiers per
// internal/ package.
package gpuvirt_test

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
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
		// A third Listener that ListenAddr returns: its methods are reached
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
}

// TestNoTestOnlyCode fails on every top-level func, method or type, and
// every method of an interface type, declared in the Linux build of the
// tree's non-test Go files that no non-test code uses outside its own
// declaration. cmd/, examples/ and bench/gvmload count as users. A method is
// used too when a live interface that has it reaches it: an interface that
// non-test code names, writes as a literal or passes a value as, and error,
// fmt.Stringer and io.Writer, which the standard library reaches through
// any. Declarations found dead are taken out of the counts and the scan
// repeats, so a helper only dead code calls is dead too. Each of guardEdits
// must then be answered as listed.
func TestNoTestOnlyCode(t *testing.T) {
	tr := repoTree(t)
	dead, err := testOnlyDecls(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(testOnlyAllowed) > 5 {
		t.Errorf("the allowlist has %d entries; it holds at most 5", len(testOnlyAllowed))
	}
	var findings, lines int
	allowed := map[string]bool{}
	for _, d := range dead {
		if _, ok := testOnlyAllowed[d.key]; ok {
			allowed[d.key] = true
			continue
		}
		findings++
		lines += d.lines
		t.Errorf("%s: %s is used by no non-test code outside its own declaration (%d lines); delete it or move it into a _test.go file", d.pos, d.key, d.lines)
	}
	for key := range testOnlyAllowed {
		if !allowed[key] {
			t.Errorf("allowlist entry %s names no test-only declaration; drop it", key)
		}
	}
	t.Logf("test-only declarations: %d findings (%d lines), allowlist %d", findings, lines, len(testOnlyAllowed))
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
			dead, err := testOnlyDecls(mt)
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
	p.info = &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
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
}

// ifaceEdge is one way to reach a method: a call of method on a value of
// interface type iface.
type ifaceEdge struct {
	iface  *types.Interface
	method *types.Func
}

// testOnlyDecls returns the declarations of the tree that the fixed-point
// scan finds dead, allowlisted ones included, sorted by key. Every call
// type-checks the whole tree: the edited trees of guardEdits too.
func testOnlyDecls(tr *srcTree) ([]*decl, error) {
	tt, err := typecheck(tr)
	if err != nil {
		return nil, err
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
	for _, p := range tt.pkgs {
		for id, obj := range p.info.Uses {
			switch obj := obj.(type) {
			case *types.Func:
				use(id.Pos(), obj.Origin())
			case *types.TypeName:
				use(id.Pos(), obj)
				useIface(id.Pos(), obj.Type())
			}
		}
		for _, sf := range p.files {
			// An interface type's own declaration does not use it.
			ast.Inspect(sf.ast, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok {
					if it, ok := ts.Type.(*ast.InterfaceType); ok {
						ast.Inspect(it.Methods, func(n ast.Node) bool { return inspectUse(p.info, n, useIface) })
						return false
					}
				}
				return inspectUse(p.info, n, useIface)
			})
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
			for k, n := range d.uses {
				counts[k] -= n
			}
		}
	}
	var out []*decl
	for _, d := range all {
		if d.dead {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out, nil
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
			out = append(out, add(key, gd.Name, gd.Doc, gd.Pos(), gd.End()))
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
				}
				out = append(out, d)
			}
		}
	}
	return out
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
