package main

import (
	"bytes"
	"strings"
	"testing"

	"adr/internal/chunk"
	"adr/internal/layout"
	"adr/internal/space"
)

// TestInspectDegenerateFarm runs the full report over a farm whose datasets
// are degenerate — one with no chunks at all, one whose chunks carry zero
// payload bytes under a codec — and asserts every line stays finite. The old
// describe() divided bytes by the used-disk count and stored by logical
// bytes without reporting the empty cases, so such farms produced no
// placement line at all (and a naive fix would have printed NaN ratios).
func TestInspectDegenerateFarm(t *testing.T) {
	dir := t.TempDir()
	sp := space.AttrSpace{Name: "grid", Bounds: space.R(0, 100, 0, 100)}
	empty := &layout.Dataset{Name: "empty", Space: sp}
	hollow := &layout.Dataset{
		Name:  "hollow",
		Space: sp,
		Codec: chunk.CodecColumnar,
		Chunks: []chunk.Meta{
			{ID: 0, Dataset: "hollow", MBR: space.R(0, 10, 0, 10), Bytes: 0, Items: 0, Disk: 0, Node: 0},
			{ID: 1, Dataset: "hollow", MBR: space.R(10, 20, 0, 10), Bytes: 0, Items: 0, Disk: 1, Node: 0},
		},
	}
	if err := layout.SaveManifest(dir, 1, 2, []*layout.Dataset{empty, hollow}); err != nil {
		t.Fatalf("SaveManifest: %v", err)
	}
	m, datasets, err := layout.LoadManifest(dir)
	if err != nil {
		t.Fatalf("LoadManifest: %v", err)
	}

	var out bytes.Buffer
	if err := inspect(&out, dir, m, datasets, "", "0,50,0,50"); err != nil {
		t.Fatalf("inspect: %v", err)
	}
	got := out.String()
	for _, bad := range []string{"NaN", "Inf", "+Inf", "-Inf"} {
		if strings.Contains(got, bad) {
			t.Fatalf("inspect output contains %s:\n%s", bad, got)
		}
	}
	for _, want := range []string{
		`dataset "empty"`,
		"placement: empty dataset, 0/2 disks used",
		`dataset "hollow"`,
		"compression (columnar): no payload bytes, ratio not meaningful",
		"placement: 2 chunks carry no payload bytes, 0/2 disks used",
		"query",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("inspect output missing %q:\n%s", want, got)
		}
	}
}

// TestProbeBadQuery exercises probe's error paths (they used to os.Exit the
// process via fatal, untestable and fatal to any embedding caller).
func TestProbeBadQuery(t *testing.T) {
	ds := &layout.Dataset{Name: "d", Space: space.AttrSpace{Name: "s", Bounds: space.R(0, 1, 0, 1)}}
	var out bytes.Buffer
	if err := probe(&out, ds, "0,nope"); err == nil {
		t.Fatal("probe accepted a non-numeric query value")
	}
	if err := probe(&out, ds, "0,1,2"); err == nil {
		t.Fatal("probe accepted an odd-arity query")
	}
	// lo above hi: space.R panics on it, so probe must refuse it first.
	if err := probe(&out, ds, "5,1"); err == nil || !strings.Contains(err.Error(), "lo 5 > hi 1") {
		t.Fatalf("probe(5,1) = %v, want a lo > hi error", err)
	}
}
