package main

import (
	"strings"
	"testing"
)

// TestParseBoundsRefuses: -bounds values space.R cannot build (it panics on
// nine increasing pairs), or that give an attribute space no extent, are
// errors.
func TestParseBoundsRefuses(t *testing.T) {
	for _, s := range []string{
		strings.TrimSuffix(strings.Repeat("0,1,", 9), ","), // 9 dimensions
		"0,1,5",   // odd count
		"0,1,5,1", // lo > hi
		"0,1,3,3", // lo == hi: no extent
		"0,x",
	} {
		if r, err := parseBounds(s); err == nil {
			t.Errorf("parseBounds(%q) = %v, want an error", s, r)
		}
	}
	r, err := parseBounds("0,100, -5,5")
	if err != nil || r.Dims != 2 || r.Lo[1] != -5 || r.Hi[0] != 100 {
		t.Fatalf("parseBounds = %v, %v", r, err)
	}
}
