package core

import (
	"math/rand"
	"sync"
	"testing"

	"medley/internal/ebr"
)

// pooledTx registers a Tx with pooling active: manager pooling enabled and
// an EBR handle attached. Returns the handle so tests can bracket
// transactions in critical sections, as the harness workers do.
func pooledTx(t *testing.T, mgr *TxManager, dom *ebr.Manager) (*Tx, *ebr.Handle) {
	t.Helper()
	tx := mgr.Register()
	h := dom.Register()
	tx.SetSMR(h)
	if !tx.pooled {
		t.Fatal("pooling did not activate (SetSMR with an *ebr.Handle on a pooling manager)")
	}
	return tx, h
}

// TestGenerationMismatchRejectsWitness is the fault-injection half of the
// recycling contract: a witness whose cell has been recycled (generation
// bumped) must fail validation even if the cell is reinstalled, bitwise
// identical, in the very same slot — the scenario that pointer identity
// alone would wrongly validate.
func TestGenerationMismatchRejectsWitness(t *testing.T) {
	mgr := NewTxManager()
	mgr.EnablePooling()
	dom := ebr.New(1)
	tx, h := pooledTx(t, mgr, dom)

	o := NewCASObj(100)
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

	// Inject the fault: pretend the witnessed cell went through a
	// retire→grace→recycle cycle and was reinstalled in the same slot with
	// the same value. Pointer identity and value are unchanged; only the
	// generation differs. A reuse adds 2: bit 0 is the cell's kind.
	c := o.state.Load()
	c.gen.Add(2)
	if tx.ValidateReads() {
		t.Fatal("validator accepted a recycled cell: stale witness forged")
	}
	tx.AbortNow()

	// And the end-to-end commit path must abort for the same reason.
	tx.Begin()
	_, w = o.NbtcLoad(tx)
	tx.AddToReadSet(w)
	o.state.Load().gen.Add(2)
	if err := tx.End(); err == nil {
		t.Fatal("commit succeeded over a recycled witness")
	}
}

// TestRecycledCellReuseBumpsGeneration checks the real cycle: a displaced
// cell that travels retire→limbo→arena→reuse comes back with a higher
// generation, so any witness captured in its previous life is dead.
func TestRecycledCellReuseBumpsGeneration(t *testing.T) {
	mgr := NewTxManager()
	mgr.EnablePooling()
	dom := ebr.New(1) // advance attempt on every retire: shortest grace
	tx, h := pooledTx(t, mgr, dom)

	o := NewCASObj(uint64(0))
	// Capture the initial cell and a witness to it.
	c0 := o.state.Load()
	gen0 := c0.gen.Load()
	w := o.witness(c0)

	// Churn transactions until c0 reappears from the arena (its grace
	// period takes a couple of epoch advances).
	reused := false
	for i := uint64(1); i < 200; i++ {
		h.Enter()
		tx.Begin()
		if !o.NbtcCAS(tx, i-1, i, true, true) {
			t.Fatalf("iteration %d: CAS failed single-threaded", i)
		}
		if err := tx.End(); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		h.Exit()
		if o.state.Load() == c0 {
			reused = true
			break
		}
	}
	if !reused {
		t.Skip("cell never recycled back into this slot (pool ordering changed); covered by fault injection above")
	}
	if g := c0.gen.Load(); g == gen0 {
		t.Fatal("recycled cell reinstalled with unchanged generation")
	}
	if w.valid(tx.desc, tx.serial) {
		t.Fatal("witness from the cell's previous life still validates")
	}
}

// TestRecycleStressConservation hammers cell recycling with concurrent
// transfers over a small, hot slot array: every displaced cell cycles
// through limbo and back into an arena within a few transactions, so a
// single recycle-then-validate hole (a stale witness validating, a cell
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
	mgr.EnablePooling()
	dom := ebr.New(4)
	accounts := make([]*CASObj[int], nAccounts)
	for i := range accounts {
		accounts[i] = NewCASObj[int](perAccount)
	}

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
					vf, wf := accounts[from].NbtcLoad(tx)
					tx.AddToReadSet(wf)
					if vf < amt {
						return errInsufficient
					}
					tx.OpStart()
					vt, wt := accounts[to].NbtcLoad(tx)
					tx.AddToReadSet(wt)
					tx.OpStart()
					if !accounts[from].NbtcCAS(tx, vf, vf-amt, true, true) {
						tx.Abort()
					}
					tx.OpStart()
					if !accounts[to].NbtcCAS(tx, vt, vt+amt, true, true) {
						tx.Abort()
					}
					return nil
				})
				h.Exit()
			}
		}(int64(g)*7919 + 17)
	}
	wg.Wait()

	sum := 0
	for _, a := range accounts {
		sum += a.Load()
	}
	if sum != nAccounts*perAccount {
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

// TestPoolingOffUnchanged pins the default: without EnablePooling (or
// without an SMR handle) no pooling state activates and counters stay
// zero, so existing users see the historical allocation behavior.
func TestPoolingOffUnchanged(t *testing.T) {
	mgr := NewTxManager()
	tx := mgr.Register()
	h := ebr.New(1).Register()
	tx.SetSMR(h) // handle without EnablePooling: no pooling
	if tx.pooled {
		t.Fatal("pooling active without EnablePooling")
	}
	o := NewCASObj(1)
	tx.Begin()
	if !o.NbtcCAS(tx, 1, 2, true, true) {
		t.Fatal("CAS failed")
	}
	if err := tx.End(); err != nil {
		t.Fatal(err)
	}
	if st := mgr.Stats(); st.PoolGets != 0 || st.PoolRetires != 0 {
		t.Fatalf("pool counters moved without pooling: %+v", st)
	}
}

// TestDeferCASRunsOnCommitOnly pins DeferCAS semantics against the Defer
// closure idiom it replaces: deferred CASes run after commit, are dropped
// on abort, and execute immediately outside a transaction.
func TestDeferCASRunsOnCommitOnly(t *testing.T) {
	mgr := NewTxManager()
	tx := mgr.Register()
	o := NewCASObj(10)

	tx.Begin()
	DeferCAS(tx, o, 10, 11)
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
	DeferCAS(tx, o, 11, 12)
	tx.AbortNow()
	if o.Load() != 11 {
		t.Fatal("deferred CAS ran on abort")
	}

	DeferCAS(tx, o, 11, 12) // outside a transaction: immediate
	if o.Load() != 12 {
		t.Fatal("bare DeferCAS not immediate")
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
			mgr.EnablePooling()
			tx, h := pooledTx(t, mgr, ebr.New(1))
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

// TestCellKindsNeverCross pins the two-freelist routing. A committed write
// retires one value cell and one descriptor cell; each must come back as
// its own kind — a descriptor cell with its tail cleared, a value cell with
// none — and with a bumped generation. The witness half:
// when the recycled value cell returns to the same slot and the validating
// transaction then installs its (recycled) descriptor cell over it, the
// old witness sees prev pointer-equal to its cell and must still fail.
func TestCellKindsNeverCross(t *testing.T) {
	mgr := NewTxManager()
	mgr.EnablePooling()
	tx, h := pooledTx(t, mgr, ebr.New(1))
	o := NewCASObj(0)

	v0 := o.state.Load()
	w0 := o.witness(v0)

	h.Enter()
	tx.Begin()
	if !o.NbtcCAS(tx, 0, 1, true, true) {
		t.Fatal("install failed")
	}
	d0 := o.state.Load()
	if !d0.isDesc() || d0.dp().prev != v0 || d0.dp().slot != o {
		t.Fatalf("installed cell is not a descriptor cell over v0: %+v", d0)
	}
	if err := tx.End(); err != nil {
		t.Fatal(err)
	}
	h.Exit()
	h.Drain() // v0 and d0 recycle

	a := arenaFor[int](tx)
	if len(a.free) != 1 || a.free[0] != v0 || len(a.freeDesc) != 1 || a.freeDesc[0] != d0 {
		t.Fatalf("freelists after one committed write: value %v desc %v, want [v0] [d0]", a.free, a.freeDesc)
	}
	if v0.isDesc() {
		t.Fatal("recycled value cell became a descriptor cell")
	}
	if !d0.isDesc() {
		t.Fatal("recycled descriptor cell became a value cell")
	}
	if *d0.dp() != (descPart[int]{}) {
		t.Fatalf("recycled descriptor cell retains references: %+v", *d0.dp())
	}

	// The next committed write draws d0 to install and v0 to commit, so v0
	// is back in the slot it was witnessed in.
	h.Enter()
	tx.Begin()
	if !o.NbtcCAS(tx, 1, 0, true, true) {
		t.Fatal("install failed")
	}
	if err := tx.End(); err != nil {
		t.Fatal(err)
	}
	h.Exit()
	if o.state.Load() != v0 {
		t.Fatal("recycled value cell did not return to its slot (pool ordering changed)")
	}
	if w0.valid(tx.desc, tx.serial) {
		t.Fatal("witness from the value cell's previous life validates")
	}
	h.Drain()

	h.Enter()
	defer h.Exit()
	tx.Begin()
	defer tx.AbortNow()
	if !o.NbtcCAS(tx, 0, 2, true, true) {
		t.Fatal("install failed")
	}
	if cur := o.state.Load(); cur != d0 || cur.dp().prev != v0 {
		t.Fatal("expected the recycled descriptor cell installed over the recycled value cell")
	}
	if w0.valid(tx.desc, tx.serial) {
		t.Fatal("own descriptor over a recycled cell validated a witness from the cell's previous life")
	}
}

// TestCellKindSurvivesRecycling pins the kind bit: bit 0 of gen tells a
// descriptor cell from a value cell, so every generation bump must step
// over it. One slot's cells go round retire→grace→recycle many times; each
// must keep the kind it was first seen with, and no witness of an earlier
// life may validate.
func TestCellKindSurvivesRecycling(t *testing.T) {
	mgr := NewTxManager()
	mgr.EnablePooling()
	tx, h := pooledTx(t, mgr, ebr.New(1))
	o := NewCASObj(0)

	isDesc := map[*cell[int]]bool{}
	// seen checks that every cell recorded so far kept its kind, then
	// records the kind the slot's current cell must have for life.
	seen := func(desc bool) {
		t.Helper()
		for c, was := range isDesc {
			if c.isDesc() != was {
				t.Fatalf("a cell first seen with isDesc %v now reads %v (gen %d)", was, !was, c.gen.Load())
			}
		}
		isDesc[o.state.Load()] = desc
	}
	seen(false)
	var stale []ReadWitness
	const lives = 100
	for i := 1; i <= lives; i++ {
		stale = append(stale, o.witness(o.state.Load()))
		h.Enter()
		tx.Begin()
		if !o.NbtcCAS(tx, i-1, i, true, true) {
			t.Fatalf("life %d: install failed", i)
		}
		seen(true)
		if err := tx.End(); err != nil {
			t.Fatalf("life %d: %v", i, err)
		}
		h.Exit()
		seen(false)
		h.Drain()
		for j, w := range stale {
			if w.valid(tx.desc, tx.serial) {
				t.Fatalf("life %d: a witness of the value cell from life %d validates", i, j)
			}
		}
	}
	seen(false) // the last recycle
	if len(isDesc) > 4 {
		t.Fatalf("%d distinct cells over %d committed writes: the cells are not being recycled", len(isDesc), lives)
	}
}

// TestNilStateWitness pins the cell-less witness of a never-written slot:
// loading allocates nothing and leaves the state nil; the witness holds
// while the state is nil — including after a foreign install that aborted
// back to nil, and under the validating transaction's own first write —
// and never again once anything has committed to the slot, whatever value
// the slot holds afterwards.
func TestNilStateWitness(t *testing.T) {
	mgr := NewTxManager()
	tx, other := mgr.Register(), mgr.Register()
	var o, o2 CASObj[int]

	tx.Begin()
	v, w := o.NbtcLoad(tx)
	_, w2 := o2.NbtcLoad(tx)
	if v != 0 || w.isZero() {
		t.Fatalf("load of a never-written slot: value %d, zero witness %v", v, w.isZero())
	}
	tx.AddToReadSet(w)
	tx.AddToReadSet(w) // same slot: dropped
	tx.AddToReadSet(w2)
	if len(tx.reads) != 2 {
		t.Fatalf("read set has %d entries, want 2: cell-less witnesses of distinct slots are distinct evidence", len(tx.reads))
	}
	if o.state.Load() != nil {
		t.Fatal("a load installed a cell in a never-written slot")
	}
	if !tx.ValidateReads() {
		t.Fatal("witness of an untouched slot must validate")
	}

	other.Begin()
	if !o.NbtcCAS(other, 0, 5, true, true) {
		t.Fatal("install over a nil state failed")
	}
	if w.valid(tx.desc, tx.serial) {
		t.Fatal("witness validates under a foreign descriptor")
	}
	other.AbortNow()
	if o.state.Load() != nil {
		t.Fatal("abort did not restore the nil state")
	}
	if !tx.ValidateReads() {
		t.Fatal("witness must survive an install that aborted back to nil")
	}

	if !o.NbtcCAS(tx, 0, 7, true, true) {
		t.Fatal("own install failed")
	}
	if !tx.ValidateReads() {
		t.Fatal("witness must hold under the validating transaction's own first write")
	}
	if err := tx.End(); err != nil {
		t.Fatalf("get-then-put of a never-written slot: %v", err)
	}
	if got := o.Load(); got != 7 {
		t.Fatalf("slot holds %d after commit, want 7", got)
	}
	if w.valid(tx.desc, tx.serial) {
		t.Fatal("witness validates after a commit to the slot")
	}
	if !o.CAS(7, 0) {
		t.Fatal("CAS back to zero failed")
	}
	if w.valid(tx.desc, tx.serial) {
		t.Fatal("witness validates again once the slot holds zero in a cell")
	}

	var fresh CASObj[int]
	if n := testing.AllocsPerRun(100, func() {
		_ = fresh.Load()
		tx.Begin()
		_, fw := fresh.NbtcLoad(tx)
		tx.AddToReadSet(fw)
		_ = tx.End()
	}); n != 0 {
		t.Fatalf("loading a never-written slot allocates %.1f objects/run, want 0", n)
	}
}

// TestRecycleStormSnapshots is the -race storm over both cell kinds: slots
// that start cell-less, transfers that install and commit (one descriptor
// cell and one value cell recycled per write), installs that abort (back to
// nil while a slot is still unwritten), and read-only sweeps whose every
// commit must have seen a consistent snapshot — a stale witness of either
// flavour validating shows up as a sweep that commits a wrong total.
// Workers park on a start gate so the storm begins with all of them live.
func TestRecycleStormSnapshots(t *testing.T) {
	const nSlots = 8
	const total = 1000
	const workers = 6
	iters := 20000
	if testing.Short() {
		iters = 2000
	}

	mgr := NewTxManager()
	mgr.EnablePooling()
	dom := ebr.New(2)
	slots := make([]CASObj[int], nSlots) // all never-written
	slots[0].Init(total)

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
					for s := range slots {
						tx.OpStart()
						v, w := slots[s].NbtcLoad(tx)
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
						vf, wf := slots[from].NbtcLoad(tx)
						tx.AddToReadSet(wf)
						tx.OpStart()
						vt, wt := slots[to].NbtcLoad(tx)
						tx.AddToReadSet(wt)
						amt := 0
						if vf > 0 {
							amt = rng.Intn(vf) + 1
						}
						tx.OpStart()
						if !slots[from].NbtcCAS(tx, vf, vf-amt, true, true) {
							tx.Abort()
						}
						tx.OpStart()
						if !slots[to].NbtcCAS(tx, vt, vt+amt, true, true) || abort {
							tx.Abort()
						}
						return nil
					})
				}
				h.Exit()
			}
			// Kinds never crossed on this worker's freelists.
			a := arenaFor[int](tx)
			for _, c := range a.free {
				if c.isDesc() {
					t.Error("descriptor cell on the value freelist")
				}
			}
			for _, c := range a.freeDesc {
				if !c.isDesc() {
					t.Error("value cell on the descriptor freelist")
				}
			}
		}(int64(g)*104729 + 3)
	}
	close(start)
	wg.Wait()

	sum := 0
	for s := range slots {
		sum += slots[s].Load()
	}
	if sum != total {
		t.Fatalf("conservation violated: sum %d, want %d", sum, total)
	}
	if st := mgr.Stats(); st.PoolHits == 0 || st.PoolRetires == 0 {
		t.Fatalf("recycling never engaged: %+v", st)
	}
}
