package adr_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
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

// TestDocsMetricFamilies checks, README → code, that every adr_* metric
// family README.md's metrics block names is one the code registers: the
// leading string literal of a Counter/Gauge/Histogram call in a non-test file
// under internal/, or a NewQueryLog prefix joined to one of the suffixes
// NewQueryLog registers. A metric deleted from the code cannot stay in the
// docs. (The other direction is not checked: the block is a selection.)
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
	checked := 0
	for _, ln := range strings.Split(block, "\n") {
		if strings.HasPrefix(ln, "#") {
			continue // subsystem captions
		}
		for _, field := range strings.Fields(ln) {
			if name := family.FindString(field); name != "" {
				checked++
				if !registered[name] {
					t.Errorf("README.md metrics block names %s, which no code under internal/ registers", name)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("README.md metrics block names no adr_* family")
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
