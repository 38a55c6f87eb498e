package service

import (
	"os/exec"
	"strings"
	"testing"
)

// TestServiceLinksNoHarnessOrCompetitor pins the package boundary: the
// service runs a store behind a txpool. The harness drives the service,
// never the reverse (only this package's tests import it), and a
// competitor STM reaches the pipeline as a Backend from above.
func TestServiceLinksNoHarnessOrCompetitor(t *testing.T) {
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
		case "medley/internal/harness", "medley/internal/chaos", "medley/internal/faultnet",
			"medley/internal/lftt", "medley/internal/tdsl", "medley/internal/onefile", "medley/internal/tpcc":
			t.Errorf("service links %s", dep)
		}
	}
}
