package obs

import (
	"reflect"
	"testing"

	"medley/internal/core"
)

// TestTxCountersExportsEveryStat pins the counter list to core.Stats: each
// field, set to a value no other field holds, must come out exactly once,
// under a name no other counter uses. A counter added to core.Stats
// without a metric fails here.
func TestTxCountersExportsEveryStat(t *testing.T) {
	var st core.Stats
	v := reflect.ValueOf(&st).Elem()
	field := make(map[uint64]string, v.NumField())
	for i := 0; i < v.NumField(); i++ {
		val := uint64(1000 + i)
		v.Field(i).SetUint(val)
		field[val] = v.Type().Field(i).Name
	}
	names := map[string]bool{}
	exported := map[string]string{}
	for _, m := range TxCounters(st) {
		if names[m.Name] {
			t.Errorf("metric name %q exported twice", m.Name)
		}
		names[m.Name] = true
		f, ok := field[m.Value]
		if !ok {
			t.Errorf("metric %q = %d is no field of core.Stats", m.Name, m.Value)
			continue
		}
		if prev, dup := exported[f]; dup {
			t.Errorf("core.Stats.%s exported twice: %q and %q", f, prev, m.Name)
		}
		exported[f] = m.Name
	}
	for _, f := range field {
		if _, ok := exported[f]; !ok {
			t.Errorf("core.Stats.%s has no metric", f)
		}
	}
}

// TestAppendRatio checks the gauge arithmetic and that a zero denominator
// omits the gauge instead of reporting NaN or 0.
func TestAppendRatio(t *testing.T) {
	out := AppendRatio(nil, "hit_rate", 3, 4)
	if len(out) != 1 || out[0] != (Gauge{Name: "hit_rate", Value: 0.75}) {
		t.Fatalf("AppendRatio(3/4) = %+v, want one hit_rate gauge of 0.75", out)
	}
	out = AppendRatio(out, "empty", 5, 0)
	if len(out) != 1 {
		t.Fatalf("zero denominator appended a gauge: %+v", out)
	}
	out = AppendRatio(out, "none", 0, 2)
	if len(out) != 2 || out[1] != (Gauge{Name: "none", Value: 0}) {
		t.Fatalf("AppendRatio(0/2) = %+v, want a zero gauge appended", out)
	}
}
