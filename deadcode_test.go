// The dead-code guard: no production declaration may exist only for tests.
// `make loc` quotes this test's -v lines: the guard's findings and the
// exported identifiers per internal/ package.
package gpuvirt_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// testOnlyAllowed names the declarations the guard lets tests alone reach,
// each with its reason: another package's tests need it, and an
// export_test.go cannot serve a package other than its own.
var testOnlyAllowed = map[string]string{
	"sim.Env.Switches":  "ipc and gpusim tests pin a warm cycle's process switches; the latency budget reads it",
	"sim.Env.Scheduled": "ipc and gpusim tests pin calendar entries per operation; the latency budget reads it",
	"gpusim.MustNew":    "the device constructor of 20 test call sites in direct, gvm, ipc and vgpu; gpusim.New only fails on an invalid Arch",
}

// Methods that satisfy a standard interface are called through it, so their
// names need not occur anywhere else.
var stdInterfaceMethods = map[string]bool{
	"String": true, "Error": true, "ServeHTTP": true, "Unwrap": true,
	"Len": true, "Less": true, "Swap": true,
	"Read": true, "Write": true, "Close": true,
}

type decl struct {
	key    string // pkg.Name or pkg.Recv.Name
	name   string
	pos    token.Position
	idents map[string]int // identifier tokens inside the declaration
	lines  int            // with its doc comment
	dead   bool
}

// TestNoTestOnlyCode fails on every top-level func, method or type of the
// tree's non-test Go files whose name occurs in no non-test file outside its
// own declaration. cmd/, examples/ and bench/ count as users; comments do
// not. Declarations found dead are taken out of the counts and the scan
// repeats, so a helper only dead code calls is dead too.
func TestNoTestOnlyCode(t *testing.T) {
	tr := repoTree(t)
	dead := testOnlyDecls(tr)
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
		t.Errorf("%s: %s is named by no non-test code outside its own declaration (%d lines); delete it or move it into a _test.go file", d.pos, d.key, d.lines)
	}
	for key := range testOnlyAllowed {
		if !allowed[key] {
			t.Errorf("allowlist entry %s names no test-only declaration; drop it", key)
		}
	}
	t.Logf("test-only declarations: %d findings (%d lines), allowlist %d", findings, lines, len(testOnlyAllowed))
	t.Logf("exported identifiers: %s", exportedIdents(tr))
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

// testOnlyDecls returns the declarations of the tree that the fixed-point
// scan finds dead, allowlisted ones included, sorted by key.
func testOnlyDecls(tr *srcTree) []*decl {
	counts := map[string]int{}
	var decls []*decl
	for _, sf := range tr.files {
		decls = append(decls, scanFile(tr.fset, sf, counts)...)
	}
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if d.dead || counts[d.name] > d.idents[d.name] {
				continue
			}
			d.dead, changed = true, true
			for id, n := range d.idents {
				counts[id] -= n
			}
		}
	}
	var out []*decl
	for _, d := range decls {
		if d.dead {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// scanFile adds the file's identifier tokens to counts and returns its
// candidate declarations.
func scanFile(fset *token.FileSet, sf *srcFile, counts map[string]int) []*decl {
	f, src := sf.ast, sf.src
	tf := fset.File(f.Pos())
	type ident struct {
		off  int
		name string
	}
	var ids []ident
	var s scanner.Scanner
	s.Init(tf, src, nil, 0)
	for {
		pos, tok, lit := s.Scan()
		if tok == token.EOF {
			break
		}
		if tok == token.IDENT {
			ids = append(ids, ident{tf.Offset(pos), lit})
			counts[lit]++
		}
	}
	pkg := f.Name.Name
	var out []*decl
	add := func(key, name string, doc *ast.CommentGroup, from, to token.Pos) {
		d := &decl{key: key, name: name, pos: fset.Position(from), idents: map[string]int{}}
		start := from
		if doc != nil {
			start = doc.Pos()
		}
		d.lines = fset.Position(to).Line - fset.Position(start).Line + 1
		lo, hi := tf.Offset(from), tf.Offset(to)
		for _, id := range ids {
			if id.off >= lo && id.off < hi {
				d.idents[id.name]++
			}
		}
		out = append(out, d)
	}
	for _, gd := range f.Decls {
		switch gd := gd.(type) {
		case *ast.FuncDecl:
			name := gd.Name.Name
			if gd.Recv == nil {
				if name == "main" || name == "init" {
					continue
				}
				add(pkg+"."+name, name, gd.Doc, gd.Pos(), gd.End())
				continue
			}
			if stdInterfaceMethods[name] {
				continue
			}
			add(pkg+"."+recvType(gd.Recv.List[0].Type)+"."+name, name, gd.Doc, gd.Pos(), gd.End())
		case *ast.GenDecl:
			if gd.Tok != token.TYPE {
				continue
			}
			for _, sp := range gd.Specs {
				ts := sp.(*ast.TypeSpec)
				doc := ts.Doc
				from := ts.Pos()
				if len(gd.Specs) == 1 {
					doc, from = gd.Doc, gd.Pos()
				}
				add(pkg+"."+ts.Name.Name, ts.Name.Name, doc, from, ts.End())
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
