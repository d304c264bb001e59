package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestServerDoesNotLinkOracle pins the boundary between the served
// matchers and Theorem 5.1's product-graph solvers: internal/product
// and internal/wis are the quality oracle of the tests and the
// experiments, exponential code that no request can reach, so phomd
// must not link them.
func TestServerDoesNotLinkOracle(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	out, err := exec.Command(goBin, "list", "-deps", "graphmatch/cmd/phomd").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	for _, pkg := range strings.Fields(string(out)) {
		if pkg == "graphmatch/internal/product" || pkg == "graphmatch/internal/wis" {
			t.Errorf("phomd links %s", pkg)
		}
	}
}
