// Package doccheck keeps the repository's markdown documentation honest by
// cross-checking it against the code. It backs three `make docs` test
// families: the README flag tables are parsed and compared against each
// binary's actually-registered flag set (names and default values), relative
// markdown links and intra-document anchors are resolved against the files
// and headings they point to, and "DESIGN.md §N" cross-references are
// checked against DESIGN.md's numbered section headings. The package is
// test-support code — it has no role at runtime — but lives in internal/ so
// the cmd packages and the root test package share one parser instead of
// three drifting copies.
package doccheck

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// tableFlag is one row of a README flag table: the flag's name (without the
// leading dash) and its documented default value, exactly as flag.DefValue
// renders it.
type tableFlag struct {
	Name    string
	Default string
	Line    int
}

// parseFlagTable extracts the flag table documented for the given binary: the
// first markdown table after a heading whose text contains `binary` in
// backticks. The first column is the flag name, the second its default; an
// empty default is written as `""` in the table.
func parseFlagTable(md []byte, binary string) ([]tableFlag, error) {
	lines := strings.Split(string(md), "\n")
	marker := "`" + binary + "`"
	section := -1
	for i, ln := range lines {
		if strings.HasPrefix(ln, "#") && strings.Contains(ln, marker) {
			section = i
			break
		}
	}
	if section < 0 {
		return nil, fmt.Errorf("no heading mentioning %s", marker)
	}
	var rows []tableFlag
	inTable := false
	for i := section + 1; i < len(lines); i++ {
		ln := strings.TrimSpace(lines[i])
		if strings.HasPrefix(ln, "#") {
			break // next section — table must precede it
		}
		if !strings.HasPrefix(ln, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		cells := splitRow(ln)
		if len(cells) < 2 || isSeparator(cells) || isHeader(cells) {
			continue
		}
		rows = append(rows, tableFlag{
			Name:    strings.TrimPrefix(stripCode(cells[0]), "-"),
			Default: defaultValue(cells[1]),
			Line:    i + 1,
		})
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("no flag table under the %s heading", marker)
	}
	return rows, nil
}

func splitRow(ln string) []string {
	parts := strings.Split(strings.Trim(ln, "|"), "|")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func isSeparator(cells []string) bool {
	for _, c := range cells {
		if strings.Trim(c, "-: ") != "" {
			return false
		}
	}
	return true
}

func isHeader(cells []string) bool {
	return strings.EqualFold(cells[0], "flag")
}

func stripCode(s string) string { return strings.Trim(s, "`") }

// defaultValue decodes a table's default cell: backticks removed, and the
// literal `""` meaning the empty string.
func defaultValue(cell string) string {
	v := stripCode(cell)
	if v == `""` {
		return ""
	}
	return v
}

// Errorf is the reporting subset of testing.TB that this package needs, so
// the helpers are callable from both tests and standalone tools.
type Errorf interface {
	Errorf(format string, args ...any)
	Helper()
}

// CheckFlagTable fails t unless the README table for binary lists exactly
// the flags that register declares, with matching defaults.
func CheckFlagTable(t Errorf, readmePath, binary string, register func(*flag.FlagSet)) {
	t.Helper()
	md, err := os.ReadFile(readmePath)
	if err != nil {
		t.Errorf("read %s: %v", readmePath, err)
		return
	}
	rows, err := parseFlagTable(md, binary)
	if err != nil {
		t.Errorf("%s: %v", readmePath, err)
		return
	}
	fs := flag.NewFlagSet(binary, flag.ContinueOnError)
	register(fs)
	want := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { want[f.Name] = f.DefValue })

	seen := map[string]bool{}
	for _, row := range rows {
		if seen[row.Name] {
			t.Errorf("%s:%d: flag -%s listed twice for %s", readmePath, row.Line, row.Name, binary)
			continue
		}
		seen[row.Name] = true
		def, ok := want[row.Name]
		if !ok {
			t.Errorf("%s:%d: table lists -%s but %s registers no such flag", readmePath, row.Line, row.Name, binary)
			continue
		}
		if row.Default != def {
			t.Errorf("%s:%d: -%s default documented as %q, registered as %q", readmePath, row.Line, row.Name, row.Default, def)
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("%s: %s registers -%s but the flag table omits it", readmePath, binary, name)
		}
	}
}

// mdLink is one inline markdown link: [text](target).
type mdLink struct {
	Target string
	Line   int
}

var linkRE = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// inlineLinks returns every inline link target in the document with its line.
func inlineLinks(md []byte) []mdLink {
	var out []mdLink
	for i, ln := range strings.Split(string(md), "\n") {
		for _, m := range linkRE.FindAllStringSubmatch(ln, -1) {
			out = append(out, mdLink{Target: m[1], Line: i + 1})
		}
	}
	return out
}

// headingAnchors returns the set of GitHub-style heading anchors in the
// document: lowercase, punctuation dropped, spaces as dashes.
func headingAnchors(md []byte) map[string]bool {
	anchors := map[string]bool{}
	inFence := false
	for _, ln := range strings.Split(string(md), "\n") {
		if strings.HasPrefix(strings.TrimSpace(ln), "```") {
			inFence = !inFence
			continue
		}
		if inFence || !strings.HasPrefix(ln, "#") {
			continue
		}
		text := strings.TrimSpace(strings.TrimLeft(ln, "#"))
		anchors[slugify(text)] = true
	}
	return anchors
}

func slugify(heading string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(heading) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		case r == ' ':
			b.WriteByte('-')
		}
	}
	return b.String()
}

// CheckLinks fails t for every relative link in docPath that points to a
// missing file, or to a missing anchor within this or another document.
// External (scheme-qualified) links are skipped — the checker runs offline.
func CheckLinks(t Errorf, docPath string) {
	t.Helper()
	md, err := os.ReadFile(docPath)
	if err != nil {
		t.Errorf("read %s: %v", docPath, err)
		return
	}
	dir := filepath.Dir(docPath)
	for _, l := range inlineLinks(md) {
		if strings.Contains(l.Target, "://") || strings.HasPrefix(l.Target, "mailto:") {
			continue
		}
		file, frag, _ := strings.Cut(l.Target, "#")
		target := md
		if file != "" {
			path := filepath.Join(dir, file)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Errorf("%s:%d: broken link %q: %v", docPath, l.Line, l.Target, err)
				continue
			}
			target = data
		}
		if frag != "" && strings.HasSuffix(strings.ToLower(file), ".md") || frag != "" && file == "" {
			if !headingAnchors(target)[frag] {
				t.Errorf("%s:%d: link %q: no heading with anchor %q", docPath, l.Line, l.Target, frag)
			}
		}
	}
}

var sectionRefRE = regexp.MustCompile("`?DESIGN\\.md`? ?§(\\d+)")

// CheckDesignSectionRefs fails t for every "DESIGN.md §N" reference in
// docPath whose section N has no "## N." heading in designPath.
func CheckDesignSectionRefs(t Errorf, docPath, designPath string) {
	t.Helper()
	md, err := os.ReadFile(docPath)
	if err != nil {
		t.Errorf("read %s: %v", docPath, err)
		return
	}
	design, err := os.ReadFile(designPath)
	if err != nil {
		t.Errorf("read %s: %v", designPath, err)
		return
	}
	sections := map[string]bool{}
	for _, ln := range strings.Split(string(design), "\n") {
		if m := regexp.MustCompile(`^## (\d+)\.`).FindStringSubmatch(ln); m != nil {
			sections[m[1]] = true
		}
	}
	for i, ln := range strings.Split(string(md), "\n") {
		for _, m := range sectionRefRE.FindAllStringSubmatch(ln, -1) {
			if !sections[m[1]] {
				t.Errorf("%s:%d: reference to DESIGN.md §%s, but DESIGN.md has no section %s", docPath, i+1, m[1], m[1])
			}
		}
	}
}
