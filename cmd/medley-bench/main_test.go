package main

import (
	"strings"
	"testing"

	"medley/internal/harness"
)

// TestRunScenarioUnknownNameFails pins the CI-smoke contract: an unknown
// -scenario value must surface an error (main turns it into exit 2), not
// print-and-exit-zero.
func TestRunScenarioUnknownNameFails(t *testing.T) {
	err := runScenario("no-such-scenario", []int{1})
	if err == nil {
		t.Fatal("unknown scenario did not error")
	}
	if !strings.Contains(err.Error(), "no-such-scenario") {
		t.Fatalf("error does not name the scenario: %v", err)
	}
}

func TestSelectSystemsRejectsUnknown(t *testing.T) {
	old := *systemsFlag
	defer func() { *systemsFlag = old }()
	*systemsFlag = "medley-hash,bogus-system"
	sc, err := harness.LookupScenario("uniform-mixed")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := selectSystems(sc); err == nil {
		t.Fatal("unknown system did not error")
	}
}

// TestDefaultSystemsAuto checks the 'auto' set: crash scenarios get the
// persistent systems (so the durability verification actually runs) plus
// one transient system for the recoverable:false path.
func TestDefaultSystemsAuto(t *testing.T) {
	crash, err := harness.LookupScenario("crash-recover-zipfian")
	if err != nil {
		t.Fatal(err)
	}
	got := harness.DefaultSystems(crash)
	joined := strings.Join(got, ",")
	if !strings.Contains(joined, "txmontage") || !strings.Contains(joined, "ponefile") {
		t.Fatalf("crash default %v lacks a persistent system", got)
	}
	plain, err := harness.LookupScenario("uniform-mixed")
	if err != nil {
		t.Fatal(err)
	}
	if p := harness.DefaultSystems(plain); strings.Contains(strings.Join(p, ","), "ponefile") {
		t.Fatalf("plain default %v should not include persistent systems", p)
	}
	for _, n := range append(got, harness.DefaultSystems(plain)...) {
		if err := harness.ValidateSystemSpec(n); err != nil {
			t.Fatalf("default system %q not valid: %v", n, err)
		}
	}
}

func TestParseThreads(t *testing.T) {
	if _, err := parseThreads("1,2,x"); err == nil {
		t.Fatal("bad thread list accepted")
	}
	if _, err := parseThreads("0"); err == nil {
		t.Fatal("zero thread count accepted")
	}
	got, err := parseThreads(" 1, 2,8")
	if err != nil || len(got) != 3 || got[2] != 8 {
		t.Fatalf("parseThreads = %v, %v", got, err)
	}
}
