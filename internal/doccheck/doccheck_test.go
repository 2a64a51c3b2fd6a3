package doccheck

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = "# Tool\n\n### `mytool` flags\n\n" +
	"| flag | default | effect |\n" +
	"|------|---------|--------|\n" +
	"| `-count` | `8` | how many |\n" +
	"| `-name` | `\"\"` | who |\n" +
	"| `-wait` | `1s` | how long |\n\n" +
	"## Next section\n"

func TestFlagTableParsesRows(t *testing.T) {
	rows, err := parseFlagTable([]byte(sample), "mytool")
	if err != nil {
		t.Fatal(err)
	}
	want := []tableFlag{
		{Name: "count", Default: "8", Line: 7},
		{Name: "name", Default: "", Line: 8},
		{Name: "wait", Default: "1s", Line: 9},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %v, want %v", rows, want)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, rows[i], want[i])
		}
	}
}

func TestFlagTableMissingBinary(t *testing.T) {
	if _, err := parseFlagTable([]byte(sample), "othertool"); err == nil {
		t.Error("unknown binary should fail")
	}
}

// recorder captures Errorf calls so the Check helpers can be tested for
// both the passing and failing direction.
type recorder struct{ errs []string }

func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}
func (r *recorder) Helper() {}

func sampleRegister(fs *flag.FlagSet) {
	fs.Int("count", 8, "")
	fs.String("name", "", "")
	fs.Duration("wait", 1000000000, "")
}

func TestCheckFlagTableAgreement(t *testing.T) {
	path := filepath.Join(t.TempDir(), "README.md")
	if err := os.WriteFile(path, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	var rec recorder
	CheckFlagTable(&rec, path, "mytool", sampleRegister)
	if len(rec.errs) != 0 {
		t.Fatalf("matching table reported errors: %v", rec.errs)
	}

	// A drifted default, a missing row and a stale row must each surface.
	drifted := strings.Replace(sample, "| `-count` | `8` |", "| `-count` | `9` |", 1)
	drifted = strings.Replace(drifted, "| `-wait` | `1s` | how long |\n", "| `-stale` | `0` | gone |\n", 1)
	if err := os.WriteFile(path, []byte(drifted), 0o644); err != nil {
		t.Fatal(err)
	}
	rec = recorder{}
	CheckFlagTable(&rec, path, "mytool", sampleRegister)
	if len(rec.errs) != 3 {
		t.Fatalf("drifted table: got %d errors %v, want 3 (default, stale row, missing row)", len(rec.errs), rec.errs)
	}
}

func TestCheckLinks(t *testing.T) {
	dir := t.TempDir()
	other := "# Other\n\n## Deep dive\ntext\n"
	doc := "see [other](OTHER.md), [section](OTHER.md#deep-dive), [self](#local-heading)\n\n## Local heading\n"
	if err := os.WriteFile(filepath.Join(dir, "OTHER.md"), []byte(other), 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "DOC.md")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var rec recorder
	CheckLinks(&rec, path)
	if len(rec.errs) != 0 {
		t.Fatalf("valid links reported errors: %v", rec.errs)
	}

	bad := "[missing file](NOPE.md) and [missing anchor](OTHER.md#nope)\n"
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	rec = recorder{}
	CheckLinks(&rec, path)
	if len(rec.errs) != 2 {
		t.Fatalf("broken links: got %d errors %v, want 2", len(rec.errs), rec.errs)
	}
}

func TestCheckDesignSectionRefs(t *testing.T) {
	dir := t.TempDir()
	design := "# D\n\n## 1. One\n\n## 2. Two\n"
	designPath := filepath.Join(dir, "DESIGN.md")
	if err := os.WriteFile(designPath, []byte(design), 0o644); err != nil {
		t.Fatal(err)
	}
	doc := filepath.Join(dir, "README.md")
	if err := os.WriteFile(doc, []byte("see DESIGN.md §2 and `DESIGN.md` §1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var rec recorder
	CheckDesignSectionRefs(&rec, doc, designPath)
	if len(rec.errs) != 0 {
		t.Fatalf("valid refs reported errors: %v", rec.errs)
	}
	if err := os.WriteFile(doc, []byte("see DESIGN.md §9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec = recorder{}
	CheckDesignSectionRefs(&rec, doc, designPath)
	if len(rec.errs) != 1 {
		t.Fatalf("stale ref: got %v, want 1 error", rec.errs)
	}
}

func TestAnchorsSlugging(t *testing.T) {
	md := []byte("## Install & test\n\n### `adr-node` flags\n\n```\n# not a heading\n```\n")
	a := headingAnchors(md)
	for _, want := range []string{"install--test", "adr-node-flags"} {
		if !a[want] {
			t.Errorf("anchor %q missing from %v", want, a)
		}
	}
	if a["not-a-heading"] {
		t.Error("fenced code line counted as a heading")
	}
}
