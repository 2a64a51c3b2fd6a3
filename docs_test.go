//go:debug gotypesalias=1

package adr_test

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"adr/internal/doccheck"
)

// coreDocs are the documents `make docs` keeps healthy: links must resolve
// and DESIGN.md section references must point at sections that exist.
var coreDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "CHANGES.md", "ROADMAP.md"}

// TestDocsLinksResolve checks every relative markdown link and anchor in the
// core documents against the repository tree.
func TestDocsLinksResolve(t *testing.T) {
	for _, doc := range coreDocs {
		doccheck.CheckLinks(t, doc)
	}
}

// TestDocsDesignSectionRefs checks that every "DESIGN.md §N" cross-reference
// names a numbered section DESIGN.md actually has — the references drift
// when sections are appended.
func TestDocsDesignSectionRefs(t *testing.T) {
	for _, doc := range coreDocs {
		doccheck.CheckDesignSectionRefs(t, doc, "DESIGN.md")
	}
}

// TestDocsMetricFamilies checks README.md's metrics block against the adr_*
// families the code registers — the leading string literal of a
// Counter/Gauge/Histogram call in a non-test file under internal/, or a
// NewQueryLog prefix joined to one of the suffixes NewQueryLog registers — in
// both directions: a metric deleted from the code cannot stay in the docs,
// and a metric added to the code must be listed.
func TestDocsMetricFamilies(t *testing.T) {
	family := regexp.MustCompile(`^adr_[a-z0-9_]+`)
	// leading returns the leftmost string literal of a concatenation.
	leading := func(e ast.Expr) (string, bool) {
		for {
			b, ok := e.(*ast.BinaryExpr)
			if !ok {
				break
			}
			e = b.X
		}
		lit, ok := e.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return "", false
		}
		v, err := strconv.Unquote(lit.Value)
		return v, err == nil
	}
	registered := map[string]bool{}
	var prefixes, suffixes []string
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			name := ""
			switch fn := call.Fun.(type) {
			case *ast.SelectorExpr:
				name = fn.Sel.Name
			case *ast.Ident:
				name = fn.Name
			}
			switch name {
			case "Counter", "Gauge", "Histogram":
				if v, ok := leading(call.Args[0]); ok {
					registered[family.FindString(v)] = true
				} else if b, ok := call.Args[0].(*ast.BinaryExpr); ok {
					// prefix + "_suffix": a family completed by its caller.
					if v, ok := leading(b.Y); ok {
						suffixes = append(suffixes, v)
					}
				}
			case "NewQueryLog":
				if v, ok := leading(call.Args[len(call.Args)-1]); ok {
					prefixes = append(prefixes, v)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range prefixes {
		for _, s := range suffixes {
			registered[p+s] = true
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, block, found := strings.Cut(string(readme), "metric families:\n\n```\n")
	block, _, closed := strings.Cut(block, "\n```")
	if !found || !closed {
		t.Fatal("README.md: no fenced block after \"metric families:\"")
	}
	listed := map[string]bool{}
	for _, ln := range strings.Split(block, "\n") {
		if strings.HasPrefix(ln, "#") {
			continue // subsystem captions
		}
		for _, field := range strings.Fields(ln) {
			if name := family.FindString(field); name != "" {
				listed[name] = true
				if !registered[name] {
					t.Errorf("README.md metrics block names %s, which no code under internal/ registers", name)
				}
			}
		}
	}
	if len(listed) == 0 {
		t.Fatal("README.md metrics block names no adr_* family")
	}
	var unlisted []string
	for name := range registered {
		if name != "" && !listed[name] {
			unlisted = append(unlisted, name)
		}
	}
	sort.Strings(unlisted)
	for _, name := range unlisted {
		t.Errorf("%s is registered under internal/ but README.md's metrics block does not list it", name)
	}
}

// TestGodocPackageComments is the godoc lint: every package in the module —
// the public root, every internal/* package and every cmd binary — must
// carry a substantive package comment (not a bare "Package x does y" stub),
// because DESIGN.md §2 promises the system is navigable from its godoc.
func TestGodocPackageComments(t *testing.T) {
	const minLen = 120 // characters of doc text; a one-line stub is ~40

	roots := []string{".", "internal", "cmd"}
	seen := map[string]bool{}
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != "." {
					return filepath.SkipDir
				}
				return nil
			}
			dir := filepath.Dir(path)
			if seen[dir] || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			seen[dir] = true
			checkPackageDoc(t, dir, minLen)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// checkPackageDoc fails t unless some non-test file in dir carries a package
// doc comment of at least minLen characters.
func checkPackageDoc(t *testing.T, dir string, minLen int) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	best := 0
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			t.Errorf("%s: %v", filepath.Join(dir, name), err)
			continue
		}
		if f.Doc != nil {
			if n := len(strings.TrimSpace(f.Doc.Text())); n > best {
				best = n
			}
		}
	}
	if best == 0 {
		t.Errorf("package %s: no package doc comment", dir)
	} else if best < minLen {
		t.Errorf("package %s: package comment is %d chars, want >= %d (document what the package is for, not just its name)", dir, best, minLen)
	}
}

// surfaceEntry is one allowlisted export: a name that stays exported although
// no caller outside its package uses it, and why.
type surfaceEntry struct{ name, reason string }

// surfaceAllowlist lists every export under internal/ that has no caller by
// TestDocsExportedSurface's rules. A name is "pkg.Name" for a top-level
// identifier and "pkg.Type.Method" for a method.
var surfaceAllowlist = []surfaceEntry{
	// Test-helper packages: their callers are other packages' tests.
	{"doccheck.CheckFlagTable", testHelper},
	{"doccheck.CheckLinks", testHelper},
	{"doccheck.CheckDesignSectionRefs", testHelper},
	{"faultep.WrapFabric", testHelper},
	{"faultep.Endpoint.OnSend", testHelper},
	{"faultep.Endpoint.OnRecv", testHelper},
	{"leakcheck.Check", testHelper},

	// Test oracles and baselines (DESIGN.md §2).
	{"index.NewLinear", "the brute-force oracle the R-tree and the declustering tests are checked against"},
	{"decluster.Assigner", "the interface Hilbert shares with its baselines; bench_test.go's placement ablation ranges over it"},
	{"decluster.RoundRobin", "baseline the Hilbert assigner is measured against (bench_test.go ablation)"},
	{"decluster.Random", "baseline the Hilbert assigner is measured against (bench_test.go ablation)"},
	{"decluster.Balance", "the imbalance measure the declustering tests and ablation read"},
	{"emulator.SAT", emulatedApp},
	{"emulator.WCS", emulatedApp},
	{"emulator.VM", emulatedApp},
	{"apps.HistogramApp", "the second reference App; core's end-to-end test runs it through the engine"},
	{"apps.UnpackBucket", "decodes HistogramApp's output items for core's end-to-end test"},
	{"apps.MaxAccumBytes", "a raster's worst-case ghost size; the wire-bound tests in engine, frontend and backend pin against it"},
	{"costmodel.Predict", "prices one plan; core's volume tests hold it against a traced run"},
	{"costmodel.SeedCosts", "the pre-calibration costs core's volume tests predict with"},

	// Test seams: a test outside the package observes or steers the
	// mechanism through them.
	{"rpc.InprocFabric.FlowHighWater", "engine's flow test asserts the credit window bounds in-flight bytes"},
	{"backend.Server.Cache", "backend's cache tests read a node's cache counters"},
	{"layout.CachedStore.Cache", "backend's cache tests reach the cache behind a node's stores"},
	{"costmodel.Calibration.Samples", "backend's AUTO stack test polls a node's saved calibration until a trace is folded in"},

	// Typed errors a caller tells apart with errors.As.
	{"frontend.QueryError", "the error Client.Query returns for a back-end refusal (backend's stack tests match it)"},
	{"plan.NoHolderError", "the fatal degraded-mode error, a chunk no live node holds (engine's failover tests match it)"},

	// The wire protocol's frame reader, which backend's frame tests drive.
	{"frontend.ReadFrame", "reads one result frame; backend's frame and admission tests read raw streams with it"},

	// Public API reached through adr.Repository.Registry() and adr.AffineMapper.
	{"space.Registry.RegisterMapping", "the attribute space service's mapping registration (§2.1), public through adr.Repository.Registry"},
	{"space.Registry.Names", "lists the registered attribute spaces, public through adr.Repository.Registry"},
	{"space.NewAffineMapper", "the constructor of AffineMapper, which adr.go re-exports"},

	// Fig 2's parallel-client (Meta-Chaos) role: the path that reads result
	// streams straight from the back-end nodes, skipping the front-end
	// relay. Its measurement on bench/ is owed (DESIGN.md §16).
	{"frontend.NewParallelClient", parallelClient},
	{"frontend.NewParallelClientSlot", parallelClient},
	{"frontend.ParallelClient.Query", parallelClient},
}

const (
	testHelper     = "test-helper package: other packages' tests call it"
	emulatedApp    = "names a paper application class; tests and bench_test.go pick emulated scenarios by it"
	parallelClient = "Fig 2's parallel-client role; backend's stack tests drive it"
)

// stdlibInterfaces are the standard-library interfaces the module's types
// implement, each a type declared in this source: a method that completes
// one of these has a caller even if no code in the module selects it.
const stdlibInterfaces = `package stdlib

import (
	"container/heap"
	"flag"
	"fmt"
	"io"
	"net/http"
)

type (
	stringer  fmt.Stringer
	errorType error
	unwrapper interface{ Unwrap() error } // what errors.Is and errors.As look for
	closer    io.Closer
	reader    io.Reader
	writer    io.Writer
	handler   http.Handler
	heapIface heap.Interface
	flagValue flag.Value
)
`

// TestDocsExportedSurface keeps internal/'s exported surface to what some
// caller uses. It type-checks every non-test package of the repository —
// internal/, cmd/, examples/, the root package and bench/, which compiles
// against this surface — and fails on an export under internal/ that has no
// caller and no surfaceAllowlist entry, and on an allowlist entry that is
// stale: the name now has a caller, or no longer exists.
//
// A top-level name has a caller if another package uses it. A method of an
// exported type has one if non-test code selects that very method (a
// same-named method of another type does not count), if its type completes
// an interface that has the method — one declared at package level in the
// module or in stdlibInterfaces; an interface local to a function body does
// not count, so a method only such a body reaches by assertion must earn
// its place another way — or if adr.go re-exports its type (those methods
// are the library's public API). A type named in the signature or in the
// exported fields of a name that has a caller has one too: the caller holds
// values of it.
func TestDocsExportedSurface(t *testing.T) {
	pkgs := checkModule(t)
	dirOf := map[string]string{} // package name -> internal/... directory
	for _, p := range pkgs {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		if other, ok := dirOf[p.types.Name()]; ok {
			t.Fatalf("%s and %s are both package %s: names would be ambiguous", p.dir, other, p.types.Name())
		}
		dirOf[p.types.Name()] = p.dir
	}

	// Declarations: every exported name under internal/ and every exported
	// method of an exported type, keyed pkg.Name and pkg.Type.Method, with
	// the names each one's type refers to.
	declared := map[string]types.Object{}
	keyOf := map[types.Object]string{}
	declare := func(key string, obj types.Object) {
		declared[key] = obj
		keyOf[obj] = key
	}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			key := p.types.Name() + "." + name
			declare(key, obj)
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				named := tn.Type().(*types.Named)
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						declare(key+"."+m.Name(), m)
					}
				}
			}
		}
	}
	refs := map[string][]string{}
	for key, obj := range declared {
		typ := obj.Type()
		if _, ok := obj.(*types.TypeName); ok {
			typ = typ.Underlying()
		}
		typeNames(typ, func(tn *types.TypeName) {
			if k, ok := keyOf[tn]; ok {
				refs[key] = append(refs[key], k)
			}
		})
	}

	// Uses: objects used in non-test code (a top-level name only from
	// another package), the interfaces declared at package level in the
	// module and in stdlibInterfaces, and adr.go's re-exports.
	used := map[types.Object]bool{}
	reexported := map[types.Object]bool{}
	var interfaces []*types.Interface
	for _, p := range pkgs {
		for _, obj := range p.info.Uses {
			switch {
			case isMethod(obj):
				used[obj.(*types.Func).Origin()] = true
			case obj.Pkg() != nil && obj.Pkg() != p.types && obj.Parent() == obj.Pkg().Scope():
				used[obj] = true
			}
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			switch {
			case !ok:
			case tn.IsAlias() && p.dir == ".":
				typeNames(tn.Type(), func(tn *types.TypeName) { reexported[tn] = true })
			case types.IsInterface(tn.Type()) && !tn.IsAlias():
				interfaces = append(interfaces, tn.Type().Underlying().(*types.Interface))
			}
		}
	}

	called := map[string]bool{}
	for key, obj := range declared {
		if !isMethod(obj) {
			called[key] = used[obj]
			continue
		}
		recv := obj.(*types.Func).Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		recvObj := recv.(*types.Named).Obj()
		called[key] = used[obj] || reexported[recvObj] || slices.ContainsFunc(interfaces, func(iface *types.Interface) bool {
			return hasMethod(iface, obj.Name()) &&
				(types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface))
		})
	}
	reach := func(from map[string]bool) map[string]bool {
		out := map[string]bool{}
		var work []string
		for name, ok := range from {
			if ok && declared[name] != nil {
				out[name] = true
				work = append(work, name)
			}
		}
		for len(work) > 0 {
			name := work[len(work)-1]
			work = work[:len(work)-1]
			for _, r := range refs[name] {
				if !out[r] {
					out[r] = true
					work = append(work, r)
				}
			}
		}
		return out
	}
	called = reach(called)

	allowed := map[string]bool{}
	for _, e := range surfaceAllowlist {
		switch {
		case allowed[e.name]:
			t.Errorf("surfaceAllowlist: %s is listed twice", e.name)
		case strings.TrimSpace(e.reason) == "":
			t.Errorf("surfaceAllowlist: %s has no reason", e.name)
		case declared[e.name] == nil:
			t.Errorf("surfaceAllowlist: %s no longer exists; drop its entry", e.name)
		case called[e.name]:
			t.Errorf("surfaceAllowlist: %s now has a caller; drop its entry", e.name)
		}
		allowed[e.name] = true
	}
	for name := range called {
		allowed[name] = true
	}
	kept := reach(allowed)
	var missing []string
	for name := range declared {
		if !kept[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		t.Errorf("%s is exported but nothing outside its package uses it: unexport or delete it, or give it a surfaceAllowlist entry with a reason", name)
	}
}

// checkedPkg is one type-checked non-test package.
type checkedPkg struct {
	dir   string // repository-relative directory, "." for the root package
	types *types.Package
	info  *types.Info // Uses only
}

// moduleImporter type-checks adr/... packages from their directories and
// the standard library from source, caching each package by import path.
type moduleImporter struct {
	fset *token.FileSet
	std  types.ImporterFrom
	pkgs map[string]*checkedPkg
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path != "adr" && !strings.HasPrefix(path, "adr/") {
		return m.std.ImportFrom(path, dir, mode)
	}
	rel := "."
	if path != "adr" {
		rel = strings.TrimPrefix(path, "adr/")
	}
	p, err := m.check(path, rel, nil)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

// check type-checks the package at path from src, or from dir's non-test
// files when src is nil.
func (m *moduleImporter) check(path, dir string, src any) (*checkedPkg, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	p := &checkedPkg{dir: dir, info: &types.Info{Uses: map[*ast.Ident]types.Object{}}}
	var names []string
	if src == nil {
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			return nil, err
		}
		for _, name := range bp.GoFiles {
			names = append(names, filepath.Join(dir, name))
		}
	} else {
		names = []string{path + ".go"}
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(m.fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	var err error
	conf := types.Config{Importer: m}
	if p.types, err = conf.Check(path, m.fset, files, p.info); err != nil {
		return nil, err
	}
	m.pkgs[path] = p
	return p, nil
}

// checkModule type-checks every non-test package of the repository, bench/
// included, skipping hidden directories, testdata and run outputs, plus
// stdlibInterfaces as the package "stdlib". The result is keyed by import
// path.
func checkModule(t *testing.T) map[string]*checkedPkg {
	t.Helper()
	fset := token.NewFileSet()
	m := &moduleImporter{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: map[string]*checkedPkg{},
	}
	if _, err := m.check("stdlib", "", stdlibInterfaces); err != nil {
		t.Fatal(err)
	}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == filepath.Join("bench", "out")) {
			return filepath.SkipDir
		}
		if _, err := build.ImportDir(path, 0); err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			return err
		}
		ipath := "adr"
		if path != "." {
			ipath += "/" + filepath.ToSlash(path)
		}
		_, err = m.check(ipath, filepath.ToSlash(path), nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return m.pkgs
}

// typeNames calls f with every named type typ refers to: the type itself
// (an alias and the type it stands for) and its type arguments, the elements of composites, the parameters and
// results of a signature, a struct's embedded and exported fields and an
// interface's methods and embedded types.
func typeNames(typ types.Type, f func(*types.TypeName)) {
	rec := func(t types.Type) { typeNames(t, f) }
	tuple := func(tu *types.Tuple) {
		for i := 0; i < tu.Len(); i++ {
			rec(tu.At(i).Type())
		}
	}
	switch t := typ.(type) {
	case *types.Alias:
		f(t.Obj())
		rec(types.Unalias(t))
	case *types.Named:
		f(t.Origin().Obj())
		for i := 0; i < t.TypeArgs().Len(); i++ {
			rec(t.TypeArgs().At(i))
		}
	case *types.Pointer:
		rec(t.Elem())
	case *types.Slice:
		rec(t.Elem())
	case *types.Array:
		rec(t.Elem())
	case *types.Map:
		rec(t.Key())
		rec(t.Elem())
	case *types.Chan:
		rec(t.Elem())
	case *types.Signature:
		tuple(t.Params())
		tuple(t.Results())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if fld := t.Field(i); fld.Exported() || fld.Embedded() {
				rec(fld.Type())
			}
		}
	case *types.Interface:
		for i := 0; i < t.NumExplicitMethods(); i++ {
			rec(t.ExplicitMethod(i).Type())
		}
		for i := 0; i < t.NumEmbeddeds(); i++ {
			rec(t.EmbeddedType(i))
		}
	}
}

// isMethod reports whether obj is a method (of a concrete type or an
// interface).
func isMethod(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Type().(*types.Signature).Recv() != nil
}

// hasMethod reports whether iface's method set has a method called name.
func hasMethod(iface *types.Interface, name string) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == name {
			return true
		}
	}
	return false
}
