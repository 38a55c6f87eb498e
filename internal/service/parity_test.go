package service

import (
	"bytes"
	"net/http/httptest"
	"testing"
	"time"

	"medley/internal/harness"
)

// TestDriverParityEmitsSchemaValidReports is the acceptance check of the
// driver seam: the SAME open-loop sweep definition runs through the
// in-process driver and the HTTP driver (against a medleyd-equivalent
// httptest server over the same system spec), and both reports validate
// against testdata/bench_schema.json — one scenario body, two transports,
// one report shape.
func TestDriverParityEmitsSchemaValidReports(t *testing.T) {
	if testing.Short() {
		t.Skip("two open-loop sweeps")
	}
	schema, err := harness.LoadSchema("../../testdata/bench_schema.json")
	if err != nil {
		t.Fatal(err)
	}
	cfg := harness.OpenLoopConfig{
		Rates:       []float64{2000},
		Duration:    250 * time.Millisecond,
		MaxInFlight: 8,
		KeyRange:    1 << 10,
		Preload:     256,
		Seed:        42,
		Mix:         harness.Mix{Ratio: harness.Ratio{Get: 18, Insert: 1, Remove: 1}, TxMin: 1, TxMax: 4, Mixed: 4, Transfer: 1},
		Dist:        harness.Dist{Kind: harness.DistZipfian, Theta: 1.2},
	}

	drivers := map[string]func(t *testing.T) (harness.Driver, func()){
		"inproc": func(t *testing.T) (harness.Driver, func()) {
			sys, err := harness.NewSystem("medley-hash@2", harness.SystemOpts{Buckets: 1 << 10, KeyRange: cfg.KeyRange})
			if err != nil {
				t.Fatal(err)
			}
			return harness.NewInProcDriver(sys), func() {}
		},
		"http": func(t *testing.T) (harness.Driver, func()) {
			n, err := NewNode(NodeConfig{Backend: kvBackend(t, "medley-hash@2"),
				Service: Config{Tick: 200 * time.Microsecond, Workers: 4}})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(n.Handler())
			return NewHTTPDriver(ts.URL), func() {
				n.Close()
				ts.Close()
			}
		},
	}

	for kind, mk := range drivers {
		t.Run(kind, func(t *testing.T) {
			d, cleanup := mk(t)
			defer cleanup()
			res, err := harness.RunOpenLoop(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Driver != kind {
				t.Errorf("driver kind = %q, want %q", res.Driver, kind)
			}
			if res.Shards != 2 {
				t.Errorf("shards = %d, want 2", res.Shards)
			}
			ph := res.Phases[0]
			if ph.Completed == 0 {
				t.Fatal("no transaction completed")
			}
			if ph.Errors > 0 {
				t.Errorf("errors = %d, want 0", ph.Errors)
			}

			rep := harness.NewReport("service-mixed", []int{cfg.MaxInFlight}, cfg.Duration,
				cfg.KeyRange, cfg.Preload, cfg.Seed)
			rep.AddOpenLoop(res, "service-mixed", cfg.MaxInFlight)
			var buf bytes.Buffer
			if err := rep.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			paths, err := harness.CanonicalPaths(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if drift := schema.Diff(paths); drift != nil {
				t.Fatalf("%s report drifts from schema: %v", kind, drift)
			}
		})
	}
}
