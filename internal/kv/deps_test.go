package kv

import (
	"os/exec"
	"strings"
	"testing"
)

// TestKVLinksNoCompetitorOrHarness pins the package boundary: TxMap is the
// seam for structures whose operations join a core.Tx. The competitor STMs
// cannot (see the package comment) and are adapted above this package, and
// the harness drives kv, never the reverse.
func TestKVLinksNoCompetitorOrHarness(t *testing.T) {
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
		case "medley/internal/onefile", "medley/internal/tdsl", "medley/internal/lftt", "medley/internal/harness":
			t.Errorf("kv links %s", dep)
		}
	}
}
