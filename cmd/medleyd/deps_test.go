package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestDaemonLinksNoTestHarness pins the package boundary: the daemon links
// the stack it serves. The fault injector, the chaos runner and the
// workload harness measure it, the competitor STMs and TPC-C are what it
// is compared with and on, and its dependency closure must contain none.
func TestDaemonLinksNoTestHarness(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go list -deps: %v\n%s", err, out)
	}
	deps := strings.Fields(string(out))
	if len(deps) == 0 {
		t.Fatal("go list -deps printed nothing")
	}
	for _, dep := range deps {
		switch dep {
		case "medley/internal/faultnet", "medley/internal/chaos", "medley/internal/harness",
			"medley/internal/lftt", "medley/internal/tdsl", "medley/internal/onefile", "medley/internal/tpcc":
			t.Errorf("medleyd links %s", dep)
		}
	}
}
