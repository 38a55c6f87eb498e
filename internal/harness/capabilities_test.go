package harness

import (
	"testing"

	"medley/internal/kv"
)

// bareSystem implements only the System interface — no optional
// capabilities at all.
type bareSystem struct{}

func (bareSystem) Name() string             { return "bare" }
func (bareSystem) Preload(keys []uint64)    {}
func (bareSystem) NewExecutor() kv.Executor { return nil }
func (bareSystem) Start() func()            { return func() {} }

// TestCapabilitiesProbe pins the one-stop capability probe: a full-featured
// registry system surfaces its optional interfaces through Caps, a bare
// system yields the all-nil Caps with safe helper defaults.
func TestCapabilitiesProbe(t *testing.T) {
	sys, err := NewSystem("medley-hash@2", SystemOpts{Buckets: 1 << 8, KeyRange: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	caps := Capabilities(sys)
	if caps.TxStats == nil {
		t.Error("medley-hash@2: TxStats capability missing")
	}
	if caps.Metrics == nil {
		t.Error("medley-hash@2: Metrics capability missing")
	}
	if caps.Snapshot == nil {
		t.Error("medley-hash@2: Snapshot capability missing")
	}
	if got := caps.ShardCount(); got != 2 {
		t.Errorf("ShardCount() = %d, want 2", got)
	}
	if caps.CanRecover() {
		t.Error("transient system reports CanRecover")
	}

	bare := Capabilities(bareSystem{})
	if bare.TxStats != nil || bare.Metrics != nil || bare.Snapshot != nil ||
		bare.Consistency != nil || bare.Recovery != nil || bare.Shards != nil {
		t.Errorf("bare system grew capabilities: %+v", bare)
	}
	if got := bare.ShardCount(); got != 1 {
		t.Errorf("bare ShardCount() = %d, want 1", got)
	}
	if bare.CanRecover() {
		t.Error("bare system reports CanRecover")
	}
}
