package store

import (
	"os/exec"
	"strings"
	"testing"
)

// TestStoreLinksNoServiceOrHarness pins the package boundary: the store is
// the top of the library stack. The service serves it and the harness
// measures it beside the competitor STMs; it imports none of them.
func TestStoreLinksNoServiceOrHarness(t *testing.T) {
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
		case "medley/internal/service", "medley/internal/replica", "medley/internal/harness",
			"medley/internal/lftt", "medley/internal/tdsl", "medley/internal/onefile", "medley/internal/tpcc":
			t.Errorf("store links %s", dep)
		}
	}
}
