package main

import (
	"os/exec"
	"path/filepath"
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

// TestServerDoesNotLinkDenseTier pins that the server probes only the
// SCC-condensed closure (closure.CompIndex): the dense per-node rows and
// the size-based selection that built them are a test and benchmark
// reference, so the linker must find no path from phomd to either.
func TestServerDoesNotLinkDenseTier(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "phomd")
	if out, err := exec.Command(goBin, "build", "-o", bin, "graphmatch/cmd/phomd").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(goBin, "tool", "nm", bin).Output()
	if err != nil {
		t.Fatalf("go tool nm: %v", err)
	}
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		switch f[len(f)-1] {
		case "graphmatch/internal/closure.NewRows", "graphmatch/internal/closure.BuildIndex":
			t.Errorf("phomd links %s", f[len(f)-1])
		}
	}
}
