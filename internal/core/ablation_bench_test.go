package core

import (
	"testing"
)

// Ablation benchmarks for the design choices DESIGN.md calls out: the cost
// of transactional instrumentation relative to plain CAS, of read-set validation as transactions grow, and of the
// publish-at-commit read-set copy.

// BenchmarkPlainCAS is the baseline: uncontended CAS on a Word.
func BenchmarkPlainCAS(b *testing.B) {
	o := newWord(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := o.Load()
		o.CAS(v, v+1)
	}
}

// BenchmarkNbtcCASInTx measures a single-write transaction end to end: the
// marginal cost of Begin + install + commit + uninstall over a plain CAS.
func BenchmarkNbtcCASInTx(b *testing.B) {
	mgr := NewTxManager()
	tx := mgr.Register()
	o := newWord(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tx.Run(func() error {
			v, _ := o.NbtcLoad(tx)
			o.NbtcCAS(tx, v, v+1, true, true)
			return nil
		})
	}
}

// BenchmarkTxSizeSweep isolates how commit cost scales with the number of
// critical accesses per transaction (the paper's transactions hold 1-10).
func BenchmarkTxSizeSweep(b *testing.B) {
	for _, size := range []int{1, 4, 10} {
		b.Run(itoa(size), func(b *testing.B) {
			mgr := NewTxManager()
			tx := mgr.Register()
			slots := make([]*Word, size)
			for i := range slots {
				slots[i] = newWord(0)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = tx.Run(func() error {
					for _, s := range slots {
						tx.OpStart()
						v, _ := s.NbtcLoad(tx)
						s.NbtcCAS(tx, v, v+1, true, true)
					}
					return nil
				})
			}
		})
	}
}

// BenchmarkReadOnlyTxValidation measures read-set tracking + commit
// validation for read-only transactions of growing size (invisible
// readers: no shared-memory writes at all).
func BenchmarkReadOnlyTxValidation(b *testing.B) {
	for _, size := range []int{1, 4, 10} {
		b.Run(itoa(size), func(b *testing.B) {
			mgr := NewTxManager()
			tx := mgr.Register()
			slots := make([]*Word, size)
			for i := range slots {
				slots[i] = newWord(uint32(i))
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = tx.Run(func() error {
					for _, s := range slots {
						tx.OpStart()
						_, w := s.NbtcLoad(tx)
						tx.AddToReadSet(w)
					}
					return nil
				})
			}
		})
	}
}

// BenchmarkAbortRollback measures the cost of installing and rolling back
// a transaction's writes (the uninstall-to-prev path).
func BenchmarkAbortRollback(b *testing.B) {
	mgr := NewTxManager()
	tx := mgr.Register()
	slots := make([]*Word, 4)
	for i := range slots {
		slots[i] = newWord(0)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tx.Run(func() error {
			for _, s := range slots {
				tx.OpStart()
				v, _ := s.NbtcLoad(tx)
				s.NbtcCAS(tx, v, v+1, true, true)
			}
			tx.Abort()
			return nil
		})
	}
}

// BenchmarkCommitFastPathAblation is the commit fast-path ablation: the
// same read-only and single-write transactions with the fast paths on
// (the default dispatch in Tx.End) and off (the full publish/InProg
// handshake). The deltas are the per-commit price of the handshake.
func BenchmarkCommitFastPathAblation(b *testing.B) {
	for _, cfg := range []struct {
		name string
		fast bool
	}{{"fast", true}, {"handshake", false}} {
		mgr := NewTxManager()
		if !cfg.fast {
			mgr.DisableFastPaths()
		}
		tx := mgr.Register()
		o := newWord(0)
		b.Run("readonly/"+cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = tx.Run(func() error {
					_, w := o.NbtcLoad(tx)
					tx.AddToReadSet(w)
					return nil
				})
			}
		})
		b.Run("singlewrite/"+cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = tx.Run(func() error {
					v, _ := o.NbtcLoad(tx)
					o.NbtcCAS(tx, v, v+1, true, true)
					return nil
				})
			}
		})
	}
}

func itoa(n int) string {
	if n >= 10 {
		return string(rune('0'+n/10)) + string(rune('0'+n%10))
	}
	return string(rune('0' + n))
}
