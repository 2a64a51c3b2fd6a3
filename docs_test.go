package adr_test

import (
	"go/ast"
	"go/parser"
	"go/token"
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
	{"layout.ChunkCache.Invalidate", "per-chunk form of InvalidateDataset; only the cache-coherence tests drive it"},

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
}

const (
	testHelper     = "test-helper package: other packages' tests call it"
	emulatedApp    = "names a paper application class; tests and bench_test.go pick emulated scenarios by it"
	parallelClient = "Fig 2's parallel-client role; backend's stack tests drive it"
)

// stdlibInterfaces are the standard-library interfaces the module's types
// implement, by method set: a method that completes one of these has a
// caller even if no code in the module selects it.
var stdlibInterfaces = [][]string{
	{"String"},                             // fmt.Stringer
	{"Error"},                              // error
	{"Unwrap"},                             // the errors package's unwrap interface
	{"Close"},                              // io.Closer
	{"Read"},                               // io.Reader
	{"Write"},                              // io.Writer
	{"ServeHTTP"},                          // http.Handler
	{"Len", "Less", "Swap", "Push", "Pop"}, // heap.Interface
	{"String", "Set"},                      // flag.Value
}

// goFile is one parsed non-test file of the module.
type goFile struct {
	dir     string // module-relative directory, "." for the root package
	f       *ast.File
	imports map[string]string // local name -> module-relative directory
}

// TestDocsExportedSurface keeps internal/'s exported surface to what some
// caller uses. It parses every non-test Go file in the repository —
// internal/, cmd/, examples/, the root package and bench/, which compiles
// against this surface — and fails on an export under internal/ that has no
// caller and no surfaceAllowlist entry, and on an allowlist entry that is
// stale: the name now has a caller, or no longer exists.
//
// A top-level name has a caller if another package selects it (pkg.Name).
// A method of an exported type has one if its name is selected anywhere in
// non-test code, if it completes the method set of an interface declared in
// the module or listed in stdlibInterfaces, or if adr.go re-exports its type
// (those methods are the library's public API). A type named in the
// signature or in the exported fields of a name that has a caller has one
// too: the caller holds values of it.
func TestDocsExportedSurface(t *testing.T) {
	files := parseModule(t)
	pkgName := map[string]string{} // internal/... directory -> package name
	for _, gf := range files {
		if strings.HasPrefix(gf.dir, "internal/") {
			pkgName[gf.dir] = gf.f.Name.Name
		}
	}
	dirOf := map[string]string{}
	for dir, name := range pkgName {
		if other, ok := dirOf[name]; ok {
			t.Fatalf("%s and %s are both package %s: names would be ambiguous", dir, other, name)
		}
		dirOf[name] = dir
	}

	// Declarations: every exported name under internal/, the exported
	// types each one's signature or exported fields name, and the method
	// sets interface satisfaction is judged by.
	declared := map[string]bool{} // pkg.Name and pkg.Type.Method
	refs := map[string][]string{}
	methodSets := map[string]map[string]bool{} // pkg.Type -> method names
	results := map[string]*ast.FieldList{}     // pkg.func -> its results, exported or not
	for _, gf := range files {
		if pkg, ok := pkgName[gf.dir]; ok {
			for _, decl := range gf.f.Decls {
				if d, ok := decl.(*ast.FuncDecl); ok && d.Recv == nil && d.Type.Results != nil {
					results[pkg+"."+d.Name.Name] = d.Type.Results
				}
			}
		}
	}
	for _, gf := range files {
		pkg, ok := pkgName[gf.dir]
		if !ok {
			continue
		}
		typeRefs := func(e ast.Expr) []string {
			var out []string
			gf.typeRefs(pkg, pkgName, e, &out)
			return out
		}
		for _, decl := range gf.f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				key := pkg + "." + d.Name.Name
				if d.Recv != nil {
					recv := recvTypeName(d.Recv.List[0].Type)
					typ := pkg + "." + recv
					if methodSets[typ] == nil {
						methodSets[typ] = map[string]bool{}
					}
					methodSets[typ][d.Name.Name] = true
					if !ast.IsExported(recv) {
						continue // unreachable from another package but by an interface
					}
					key = typ + "." + d.Name.Name
				}
				if d.Name.IsExported() {
					declared[key] = true
					refs[key] = typeRefs(d.Type)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							key := pkg + "." + s.Name.Name
							declared[key] = true
							refs[key] = typeRefs(s.Type)
						}
					case *ast.ValueSpec:
						for i, id := range s.Names {
							if !id.IsExported() {
								continue
							}
							key := pkg + "." + id.Name
							declared[key] = true
							refs[key] = typeRefs(s.Type)
							if s.Type == nil && i < len(s.Values) {
								// var X = f(...): X has f's result type.
								if call, ok := s.Values[i].(*ast.CallExpr); ok {
									if fn, ok := call.Fun.(*ast.Ident); ok && results[pkg+"."+fn.Name] != nil {
										refs[key] = typeRefs(&ast.FuncType{Results: results[pkg+"."+fn.Name]})
									}
								}
							}
						}
					}
				}
			}
		}
	}

	// Uses: pkg.Name selected from another package, every other selected
	// name, the module's interfaces, and adr.go's re-exported types.
	called := map[string]bool{}
	selected := map[string]bool{}
	reexported := map[string]bool{}
	interfaces := append([][]string(nil), stdlibInterfaces...)
	for _, gf := range files {
		ast.Inspect(gf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := gf.imports[x.Name]; ok {
						if name, ok := pkgName[dir]; ok && dir != gf.dir {
							called[name+"."+n.Sel.Name] = true
						}
						return true
					}
				}
				selected[n.Sel.Name] = true
			case *ast.InterfaceType:
				var set []string
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						set = append(set, id.Name)
					}
				}
				interfaces = append(interfaces, set)
			case *ast.TypeSpec:
				if gf.dir == "." && n.Assign.IsValid() {
					var out []string
					gf.typeRefs("", pkgName, n.Type, &out)
					for _, typ := range out {
						reexported[typ] = true
					}
				}
			}
			return true
		})
	}
	for key := range declared {
		typ, method, isMethod := cutLast(key)
		if !isMethod || !declared[typ] {
			continue
		}
		implements := false
		for _, set := range interfaces {
			complete := slices.Contains(set, method)
			for _, m := range set {
				complete = complete && methodSets[typ][m]
			}
			implements = implements || complete
		}
		if selected[method] || implements || reexported[typ] {
			called[key] = true
		}
	}
	reach := func(from map[string]bool) map[string]bool {
		out := map[string]bool{}
		var work []string
		for name := range from {
			if declared[name] {
				out[name] = true
				work = append(work, name)
			}
		}
		for len(work) > 0 {
			name := work[len(work)-1]
			work = work[:len(work)-1]
			for _, r := range refs[name] {
				if declared[r] && !out[r] {
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
		case !declared[e.name]:
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

// parseModule parses every non-test Go file of the repository, bench/
// included, skipping hidden directories, testdata and run outputs.
func parseModule(t *testing.T) []goFile {
	t.Helper()
	var files []goFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == filepath.Join("bench", "out")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		gf := goFile{dir: filepath.ToSlash(filepath.Dir(path)), f: f, imports: map[string]string{}}
		for _, imp := range f.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			dir, ok := strings.CutPrefix(ipath, "adr/")
			if !ok {
				continue
			}
			local := dir[strings.LastIndex(dir, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			gf.imports[local] = dir
		}
		files = append(files, gf)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// typeRefs appends to out the module's exported types that the type
// expression e names, as pkg.Name; pkg is the package e is written in.
// Function types contribute their parameters and results, struct types
// their embedded and exported fields, interfaces their methods.
func (gf *goFile) typeRefs(pkg string, pkgName map[string]string, e ast.Expr, out *[]string) {
	rec := func(e ast.Expr) { gf.typeRefs(pkg, pkgName, e, out) }
	fields := func(l *ast.FieldList, exportedOnly bool) {
		if l == nil {
			return
		}
		for _, f := range l.List {
			if !exportedOnly || len(f.Names) == 0 || slices.ContainsFunc(f.Names, (*ast.Ident).IsExported) {
				rec(f.Type)
			}
		}
	}
	switch x := e.(type) {
	case *ast.Ident:
		if x.IsExported() && pkg != "" {
			*out = append(*out, pkg+"."+x.Name)
		}
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			if name, ok := pkgName[gf.imports[id.Name]]; ok {
				*out = append(*out, name+"."+x.Sel.Name)
			}
		}
	case *ast.StarExpr:
		rec(x.X)
	case *ast.ArrayType:
		rec(x.Elt)
	case *ast.MapType:
		rec(x.Key)
		rec(x.Value)
	case *ast.ChanType:
		rec(x.Value)
	case *ast.Ellipsis:
		rec(x.Elt)
	case *ast.IndexExpr:
		rec(x.X)
		rec(x.Index)
	case *ast.FuncType:
		fields(x.Params, false)
		fields(x.Results, false)
	case *ast.StructType:
		fields(x.Fields, true)
	case *ast.InterfaceType:
		fields(x.Methods, false)
	}
}

// cutLast splits "pkg.Type.Method" into "pkg.Type" and "Method"; ok is false
// for a top-level "pkg.Name".
func cutLast(key string) (head, last string, ok bool) {
	i := strings.LastIndexByte(key, '.')
	head, last = key[:i], key[i+1:]
	return head, last, strings.Contains(head, ".")
}

// recvTypeName is the base type name of a method receiver: T for T, *T,
// T[P] and *T[P].
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
