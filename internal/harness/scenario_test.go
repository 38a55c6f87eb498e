package harness

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

func TestScenarioRegistry(t *testing.T) {
	names := ScenarioNames()
	if len(names) < 8 {
		t.Fatalf("only %d scenarios registered", len(names))
	}
	for _, required := range []string{
		"uniform-mixed", "zipfian-mixed", "hotspot-readmostly",
		"transfer", "tpcc-mini", "load-mixed-drain",
	} {
		sc, err := LookupScenario(required)
		if err != nil {
			t.Fatalf("required scenario missing: %v", err)
		}
		if sc.Name != required || sc.Description == "" || len(sc.Phases) == 0 {
			t.Fatalf("scenario %q incomplete: %+v", required, sc)
		}
	}
	if _, err := LookupScenario("no-such-scenario"); err == nil {
		t.Fatal("lookup of unknown scenario succeeded")
	}
}

func TestTxGenDeterministic(t *testing.T) {
	mix := Mix{Ratio: Ratio{Get: 2, Insert: 1, Remove: 1}, TxMin: 1, TxMax: 10,
		Mixed: 2, Transfer: 1, Order: 1}
	a := NewTxGen(Dist{Kind: DistZipfian}, 1<<12, mix, 99)
	b := NewTxGen(Dist{Kind: DistZipfian}, 1<<12, mix, 99)
	for i := 0; i < 1000; i++ {
		opsA, opsB := a.Next(), b.Next()
		if len(opsA) != len(opsB) {
			t.Fatalf("txn %d: lengths differ", i)
		}
		for j := range opsA {
			if opsA[j] != opsB[j] {
				t.Fatalf("txn %d op %d: %+v vs %+v", i, j, opsA[j], opsB[j])
			}
		}
	}
}

func TestTxGenMixedBounds(t *testing.T) {
	mix := Mix{Ratio: Ratio{Get: 2, Insert: 1, Remove: 1}, TxMin: 3, TxMax: 7, Mixed: 1}
	g := NewTxGen(Dist{Kind: DistUniform}, 1<<12, mix, 5)
	for i := 0; i < 1000; i++ {
		ops := g.Next()
		if len(ops) < 3 || len(ops) > 7 {
			t.Fatalf("txn %d has %d ops, want 3..7", i, len(ops))
		}
	}
}

func TestTxGenTransferShape(t *testing.T) {
	g := NewTxGen(Dist{Kind: DistUniform}, 1<<12, Mix{Transfer: 1}, 5)
	for i := 0; i < 1000; i++ {
		ops := g.Next()
		if len(ops) != 4 {
			t.Fatalf("transfer txn %d has %d ops", i, len(ops))
		}
		if ops[0].Kind != OpGet || ops[1].Kind != OpGet ||
			ops[2].Kind != OpInsert || ops[3].Kind != OpInsert {
			t.Fatalf("transfer txn %d shape wrong: %+v", i, ops)
		}
		if ops[0].Key != ops[2].Key || ops[1].Key != ops[3].Key {
			t.Fatalf("transfer txn %d reads and writes different keys: %+v", i, ops)
		}
		if ops[0].Key == ops[1].Key {
			t.Fatalf("transfer txn %d transfers to itself", i)
		}
		for _, op := range ops {
			if op.Key >= 1<<12 {
				t.Fatalf("transfer txn %d key %d escapes the key space", i, op.Key)
			}
		}
	}
}

func TestTxGenOrderShape(t *testing.T) {
	g := NewTxGen(Dist{Kind: DistZipfian}, 1<<12, Mix{Order: 1}, 5)
	for i := 0; i < 1000; i++ {
		ops := g.Next()
		if len(ops) != 8 {
			t.Fatalf("order txn %d has %d ops, want 8", i, len(ops))
		}
		if ops[0].Kind != OpGet {
			t.Fatalf("order txn %d missing customer read", i)
		}
		for j := 1; j < 7; j += 2 {
			if ops[j].Kind != OpGet || ops[j+1].Kind != OpInsert || ops[j].Key != ops[j+1].Key {
				t.Fatalf("order txn %d item %d not a read-update pair: %+v", i, j, ops)
			}
		}
		last := ops[7]
		if last.Kind != OpInsert || last.Key&orderLineBit == 0 {
			t.Fatalf("order txn %d order line not in the disjoint region: %+v", i, last)
		}
	}
}

func TestScenarioPhaseWeightsAndMeasure(t *testing.T) {
	sc, err := LookupScenario("load-mixed-drain")
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Phases) != 3 {
		t.Fatalf("load-mixed-drain has %d phases", len(sc.Phases))
	}
	measured := 0
	for _, ph := range sc.Phases {
		if ph.Weight <= 0 {
			t.Fatalf("phase %q has no weight", ph.Name)
		}
		if ph.Measure {
			measured++
		}
	}
	if measured != 1 {
		t.Fatalf("want exactly the steady-state phase measured, got %d", measured)
	}
}

// TestPaperFamilyMatchesHandWrittenRows pins the product of the dist and
// ratio tables to the rows it replaced: each name resolves to the Dist and
// Phases that were written out by hand (here, not derived from the
// tables), and the two rows that only renamed another row's workload are
// gone.
func TestPaperFamilyMatchesHandWrittenRows(t *testing.T) {
	uniform := Dist{Kind: DistUniform}
	zipf := Dist{Kind: DistZipfian, Theta: 1.2}
	phases := func(get int) []Phase {
		return []Phase{{Name: "mixed", Weight: 1, Measure: true,
			Mix: Mix{Ratio: Ratio{Get: get, Insert: 1, Remove: 1}, TxMin: 1, TxMax: 10, Mixed: 1}}}
	}
	for _, c := range []struct {
		name   string
		dist   Dist
		phases []Phase
	}{
		{"uniform-mixed", uniform, phases(2)},
		{"uniform-readmostly", uniform, phases(18)},
		{"uniform-writeheavy", uniform, phases(0)},
		{"zipfian-mixed", zipf, phases(2)},
		{"zipfian-readmostly", zipf, phases(18)},
		{"latest-mixed", Dist{Kind: DistLatest, Theta: 1.2}, phases(2)},
		{"hotspot-readmostly", Dist{Kind: DistHotspot, HotFrac: 0.1, HotOpFrac: 0.9}, phases(18)},
		{"sharded-zipfian", zipf, phases(0)},
		{"alloc-pressure", zipf, phases(2)},
	} {
		sc, err := LookupScenario(c.name)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if sc.Name != c.name || sc.Description == "" {
			t.Errorf("%s: resolved as %q, description %q", c.name, sc.Name, sc.Description)
		}
		if sc.Dist != c.dist || !reflect.DeepEqual(sc.Phases, c.phases) {
			t.Errorf("%s: dist %+v phases %+v, want %+v %+v", c.name, sc.Dist, sc.Phases, c.dist, c.phases)
		}
	}
	for _, gone := range []string{"sharded-uniform", "sharded-transfer"} {
		_, err := LookupScenario(gone)
		if err == nil || !strings.Contains(err.Error(), "known:") || !strings.Contains(err.Error(), "uniform-mixed") {
			t.Errorf("%s: err = %v, want the known-names error", gone, err)
		}
	}
	// Every listed name resolves, and the list line for the family spells
	// the grammar the tables implement.
	for _, n := range ScenarioNames() {
		if _, err := LookupScenario(n); err != nil {
			t.Errorf("listed name does not resolve: %v", err)
		}
	}
	var ds, rs []string
	for _, d := range paperDists {
		ds = append(ds, d.name)
	}
	for _, r := range paperRatios {
		rs = append(rs, r.name)
	}
	slices.Sort(rs)
	if got := "{" + strings.Join(ds, "|") + "}-{" + strings.Join(rs, "|") + "}"; got != paperGrammar {
		t.Errorf("paperGrammar = %q, tables say %q", paperGrammar, got)
	}
}
