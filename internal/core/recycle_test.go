package core

import (
	"math/rand"
	"sync"
	"testing"

	"medley/internal/ebr"
)

// pooledTx registers a Tx with an EBR handle attached, which is what makes
// it recycle. Returns the handle so tests can bracket transactions in
// critical sections, as the harness workers do.
func pooledTx(mgr *TxManager, dom *ebr.Manager) (*Tx, *ebr.Handle) {
	tx := mgr.Register()
	h := dom.Register()
	tx.SetSMR(h)
	return tx, h
}

// TestGenerationMismatchRejectsWitness is the fault-injection half of the
// recycling contract: a witness whose word has changed and come back —
// the same payload in the very same slot, the scenario a bare value
// comparison would wrongly validate — must fail validation, because every
// change advanced the word's counter.
func TestGenerationMismatchRejectsWitness(t *testing.T) {
	mgr := NewTxManager()
	dom := ebr.New(1)
	tx, h := pooledTx(mgr, dom)

	o := newWord(100)
	h.Enter()
	defer h.Exit()

	tx.Begin()
	v, w := o.NbtcLoad(tx)
	if v != 100 {
		t.Fatalf("loaded %d", v)
	}
	tx.AddToReadSet(w)
	if !tx.ValidateReads() {
		t.Fatal("fresh witness must validate")
	}

	// Inject the fault: a change that leaves the payload as it was.
	if !o.CAS(100, 100) {
		t.Fatal("CAS failed")
	}
	if tx.ValidateReads() {
		t.Fatal("validator accepted a word that changed and came back: stale witness forged")
	}
	tx.AbortNow()

	// And the end-to-end commit path must abort for the same reason.
	tx.Begin()
	_, w = o.NbtcLoad(tx)
	tx.AddToReadSet(w)
	o.CAS(100, 100)
	if err := tx.End(); err == nil {
		t.Fatal("commit succeeded over a changed word")
	}
}

// box is a value kept in a slab node that a Word links, as the structures
// keep theirs: a write links a fresh node and retires the one it
// displaced, so every write churns a slot through EBR.
type box struct{ v int }

// boxes is a row of Words, each linking the box that holds its value.
type boxes struct {
	words []Word
	slab  Slab[box]
}

func newBoxes(n int, v func(i int) int) *boxes {
	b := &boxes{words: make([]Word, n)}
	for i := range b.words {
		j := b.slab.Get(nil)
		b.slab.At(j).v = v(i)
		b.words[i].Init(j)
	}
	return b
}

// load is the value of box i and the witness of its link.
func (b *boxes) load(tx *Tx, i int) (int, ReadWitness) {
	j, w := b.words[i].NbtcLoad(tx)
	return b.slab.At(j).v, w
}

// write replaces box i, whose link was observed holding a box of value
// old, with a fresh box of value v, and retires the displaced box when the
// write takes effect. It reports false if the link moved.
func (b *boxes) write(tx *Tx, i, old, v int) bool {
	cur, _ := b.words[i].NbtcLoad(tx)
	if b.slab.At(cur).v != old {
		return false
	}
	j := b.slab.Get(tx)
	b.slab.At(j).v = v
	if !b.words[i].NbtcCAS(tx, cur, j, true, true) {
		b.slab.Put(tx, j)
		return false
	}
	b.slab.Retire(tx, cur, true)
	return true
}

func (b *boxes) sum() int {
	s := 0
	for i := range b.words {
		s += b.slab.At(b.words[i].Load()).v
	}
	return s
}

// TestRecycleStressConservation hammers slot recycling with concurrent
// transfers over a small, hot row of boxes: every displaced box cycles
// through limbo and back into a cache within a few transactions, so a
// single recycle-then-validate hole (a stale witness validating, a slot
// reused before its grace period) shows up as a conservation violation or
// as a data race under -race.
func TestRecycleStressConservation(t *testing.T) {
	const nAccounts = 16
	const perAccount = 1000
	const goroutines = 8
	iters := 4000
	if testing.Short() {
		iters = 800
	}

	mgr := NewTxManager()
	dom := ebr.New(4)
	accounts := newBoxes(nAccounts, func(int) int { return perAccount })

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			tx := mgr.Register()
			h := dom.Register()
			tx.SetSMR(h)
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				from := rng.Intn(nAccounts)
				to := rng.Intn(nAccounts)
				if from == to {
					continue
				}
				amt := rng.Intn(10) + 1
				h.Enter()
				_ = tx.RunRetry(func() error {
					tx.OpStart()
					vf, wf := accounts.load(tx, from)
					tx.AddToReadSet(wf)
					if vf < amt {
						return errInsufficient
					}
					tx.OpStart()
					vt, wt := accounts.load(tx, to)
					tx.AddToReadSet(wt)
					tx.OpStart()
					if !accounts.write(tx, from, vf, vf-amt) {
						tx.Abort()
					}
					tx.OpStart()
					if !accounts.write(tx, to, vt, vt+amt) {
						tx.Abort()
					}
					return nil
				})
				h.Exit()
			}
		}(int64(g)*7919 + 17)
	}
	wg.Wait()

	if sum := accounts.sum(); sum != nAccounts*perAccount {
		t.Fatalf("conservation violated under recycling: sum %d, want %d",
			sum, nAccounts*perAccount)
	}
	st := mgr.Stats()
	if st.PoolGets == 0 || st.PoolHits == 0 || st.PoolRetires == 0 {
		t.Fatalf("recycling never engaged: %+v", st)
	}
	t.Logf("pool: gets=%d hits=%d (%.1f%%) retires=%d",
		st.PoolGets, st.PoolHits, 100*float64(st.PoolHits)/float64(st.PoolGets), st.PoolRetires)
}

// TestReadSetsRecycleOnlyWithAHandle runs warm two-write transactions,
// each of which publishes its read set to helpers, on a Tx with an EBR
// handle and on one without. The handle alone decides: with it the
// published read sets and their shells come back after a grace period and
// the pool counters move; without it every such transaction allocates
// both afresh and nothing is counted.
func TestReadSetsRecycleOnlyWithAHandle(t *testing.T) {
	allocs := map[bool]float64{}
	for _, withHandle := range []bool{true, false} {
		mgr := NewTxManager()
		tx := mgr.Register()
		h := ebr.New(1).Register()
		if withHandle {
			tx.SetSMR(h)
		}
		b := newBoxes(2, func(int) int { return 0 })
		v := 0
		transfer := func() {
			h.Enter()
			err := tx.RunRetry(func() error {
				for i := range 2 {
					tx.OpStart()
					if !b.write(tx, i, v, v+1) {
						tx.Abort()
					}
				}
				return nil
			})
			h.Exit()
			if err != nil {
				t.Fatal(err)
			}
			v++
		}
		for range 64 {
			transfer()
		}
		allocs[withHandle] = testing.AllocsPerRun(256, transfer)
		st := mgr.Stats()
		if withHandle && st.PoolHits == 0 {
			t.Errorf("a Tx with an EBR handle reused nothing: %+v", st)
		}
		if !withHandle && (st.PoolGets != 0 || st.PoolRetires != 0) {
			t.Errorf("a Tx without an EBR handle counted pool traffic: %+v", st)
		}
	}
	if allocs[true] != 0 || allocs[false] < 2 {
		t.Errorf("a warm published transaction allocates %.0f objects with an EBR handle and %.0f without, want 0 and at least 2 (the read set and its shell)",
			allocs[true], allocs[false])
	}
}

// TestDeferWordCASRunsOnCommitOnly pins DeferWordCAS on its own: the
// deferred CAS runs after commit, is dropped on abort, and executes
// immediately outside a transaction; a nil Slots retires nothing.
func TestDeferWordCASRunsOnCommitOnly(t *testing.T) {
	mgr := NewTxManager()
	tx := mgr.Register()
	o := newWord(10)

	tx.Begin()
	DeferWordCAS(tx, o, 10, 11, nil, 0)
	if o.Load() != 10 {
		t.Fatal("deferred CAS ran before commit")
	}
	if err := tx.End(); err != nil {
		t.Fatal(err)
	}
	if o.Load() != 11 {
		t.Fatal("deferred CAS did not run on commit")
	}

	tx.Begin()
	DeferWordCAS(tx, o, 11, 12, nil, 0)
	tx.AbortNow()
	if o.Load() != 11 {
		t.Fatal("deferred CAS ran on abort")
	}

	DeferWordCAS(tx, o, 11, 12, nil, 0) // outside a transaction: immediate
	if o.Load() != 12 {
		t.Fatal("bare DeferWordCAS not immediate")
	}
}

// wordNode is a minimal slab node: one Word link.
type wordNode struct{ next Word }

// TestWitnessInRecycledNodeNeverValidates covers a witness that names a
// Word inside a slab node: the node can be retired, recycled and relinked
// elsewhere holding the very same payload, and the witness must not
// survive that. Init advances the counter it finds, so neither a witness
// of a written link nor one of a never-written (zero) link validates
// against the node's next life.
func TestWitnessInRecycledNodeNeverValidates(t *testing.T) {
	for _, tc := range []struct {
		name    string
		written bool
	}{{"written slot", true}, {"never-written slot", false}} {
		t.Run(tc.name, func(t *testing.T) {
			mgr := NewTxManager()
			tx, h := pooledTx(mgr, ebr.New(1))
			var s Slab[wordNode]

			i := s.Get(tx)
			n := s.At(i)
			if tc.written {
				n.next.Init(0)
			}
			h.Enter()
			tx.Begin()
			_, w := n.next.NbtcLoad(tx)
			tx.AddToReadSet(w)
			if !tx.ValidateReads() {
				t.Fatal("fresh witness must validate")
			}
			tx.AbortNow()
			h.Exit()

			s.Retire(tx, i, false)
			tx.SettleBare()
			h.Drain() // grace period over: the index is free
			if got := s.Get(tx); got != i {
				t.Fatalf("slab returned index %d, want the retired node's %d", got, i)
			}
			n.next.Init(0) // relinked elsewhere, same payload as witnessed
			if w.valid(tx.desc, tx.serial) {
				t.Fatal("witness validates against a recycled, relinked node")
			}
		})
	}
}

// TestNilStateWitness pins the witness of a never-written Word, the zero
// word: loading it writes nothing; the witness holds while the word is
// still zero — including after a foreign install that aborted back to it,
// and under the validating transaction's own first write — and never
// again once anything has committed to the word, whatever payload it
// holds afterwards.
func TestNilStateWitness(t *testing.T) {
	mgr := NewTxManager()
	tx, other := mgr.Register(), mgr.Register()
	var o, o2 Word

	tx.Begin()
	v, w := o.NbtcLoad(tx)
	_, w2 := o2.NbtcLoad(tx)
	if v != 0 || w.isZero() {
		t.Fatalf("load of a never-written word: value %d, zero witness %v", v, w.isZero())
	}
	tx.AddToReadSet(w)
	tx.AddToReadSet(w) // same word: dropped
	tx.AddToReadSet(w2)
	if len(tx.reads) != 2 {
		t.Fatalf("read set has %d entries, want 2: witnesses of distinct words are distinct evidence", len(tx.reads))
	}
	if o.v.Load() != 0 {
		t.Fatal("a load wrote a never-written word")
	}
	if !tx.ValidateReads() {
		t.Fatal("witness of an untouched word must validate")
	}

	other.Begin()
	if !o.NbtcCAS(other, 0, 5, true, true) {
		t.Fatal("install over a never-written word failed")
	}
	if w.valid(tx.desc, tx.serial) {
		t.Fatal("witness validates under a foreign install")
	}
	other.AbortNow()
	if o.v.Load() != 0 {
		t.Fatal("abort did not restore the zero word")
	}
	if !tx.ValidateReads() {
		t.Fatal("witness must survive an install that aborted back to zero")
	}

	if !o.NbtcCAS(tx, 0, 7, true, true) {
		t.Fatal("own install failed")
	}
	if !tx.ValidateReads() {
		t.Fatal("witness must hold under the validating transaction's own first write")
	}
	if err := tx.End(); err != nil {
		t.Fatalf("get-then-put of a never-written word: %v", err)
	}
	if got := o.Load(); got != 7 {
		t.Fatalf("word holds %d after commit, want 7", got)
	}
	if w.valid(tx.desc, tx.serial) {
		t.Fatal("witness validates after a commit to the word")
	}
	if !o.CAS(7, 0) {
		t.Fatal("CAS back to zero failed")
	}
	if w.valid(tx.desc, tx.serial) {
		t.Fatal("witness validates again once the word holds zero again")
	}

	var fresh Word
	if n := testing.AllocsPerRun(100, func() {
		_ = fresh.Load()
		tx.Begin()
		_, fw := fresh.NbtcLoad(tx)
		tx.AddToReadSet(fw)
		_ = tx.End()
	}); n != 0 {
		t.Fatalf("loading a never-written word allocates %.1f objects/run, want 0", n)
	}
}

// TestRecycleStormSnapshots is the -race storm over recycled boxes: words
// that start at zero, transfers that install and commit (one box retired
// per write), installs that abort (their fresh boxes straight back to the
// cache), and read-only sweeps whose every commit must have seen a
// consistent snapshot — a stale witness validating shows up as a sweep
// that commits a wrong total. Workers park on a start gate so the storm
// begins with all of them live.
func TestRecycleStormSnapshots(t *testing.T) {
	const nSlots = 8
	const total = 1000
	const workers = 6
	iters := 20000
	if testing.Short() {
		iters = 2000
	}

	mgr := NewTxManager()
	dom := ebr.New(2)
	slots := newBoxes(nSlots, func(i int) int {
		if i == 0 {
			return total
		}
		return 0
	})

	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			tx := mgr.Register()
			h := dom.Register()
			tx.SetSMR(h)
			rng := rand.New(rand.NewSource(seed))
			<-start
			for i := 0; i < iters; i++ {
				h.Enter()
				switch from, to := rng.Intn(nSlots), rng.Intn(nSlots); {
				case i%3 == 0:
					sum := 0
					tx.Begin()
					for s := range slots.words {
						tx.OpStart()
						v, w := slots.load(tx, s)
						tx.AddToReadSet(w)
						sum += v
					}
					if tx.End() == nil && sum != total {
						t.Errorf("read-only sweep committed an inconsistent snapshot: sum %d, want %d", sum, total)
					}
				case from != to:
					abort := i%7 == 0
					_ = tx.Run(func() error {
						tx.OpStart()
						vf, wf := slots.load(tx, from)
						tx.AddToReadSet(wf)
						tx.OpStart()
						vt, wt := slots.load(tx, to)
						tx.AddToReadSet(wt)
						amt := 0
						if vf > 0 {
							amt = rng.Intn(vf) + 1
						}
						tx.OpStart()
						if !slots.write(tx, from, vf, vf-amt) {
							tx.Abort()
						}
						tx.OpStart()
						if !slots.write(tx, to, vt, vt+amt) || abort {
							tx.Abort()
						}
						return nil
					})
				}
				h.Exit()
			}
		}(int64(g)*104729 + 3)
	}
	close(start)
	wg.Wait()

	if sum := slots.sum(); sum != total {
		t.Fatalf("conservation violated: sum %d, want %d", sum, total)
	}
	if st := mgr.Stats(); st.PoolHits == 0 || st.PoolRetires == 0 {
		t.Fatalf("recycling never engaged: %+v", st)
	}
}
