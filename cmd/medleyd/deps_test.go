package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestDaemonLinksNoTestHarness pins the package boundary: the fault
// injector and the chaos runner are harness-side code, and the daemon's
// dependency closure must contain neither.
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
		if dep == "medley/internal/faultnet" || dep == "medley/internal/chaos" {
			t.Errorf("medleyd links %s", dep)
		}
	}
}
