package mhash

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"medley/internal/core"
	"medley/internal/ebr"
)

// TestLinkLayout pins what a chain link costs: the ref is one word, and the
// value cell a written link holds is therefore the 16 bytes
// core.TestCellLayout allows a one-word value.
func TestLinkLayout(t *testing.T) {
	if s := unsafe.Sizeof(ref[uint64]{}); s != 8 {
		t.Errorf("ref is %d bytes, want 8", s)
	}
	const links = 1024
	slots := make([]core.CASObj[ref[uint64]], links)
	n := &node[uint64]{}
	// TotalAlloc counts every goroutine's allocations, and another
	// goroutine's can only add to a reading, never subtract: the smallest
	// of a few readings is the loop's own.
	per := ^uint64(0)
	for range 5 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := range slots {
			slots[i].Init(marked(n))
		}
		runtime.ReadMemStats(&m1)
		per = min(per, (m1.TotalAlloc-m0.TotalAlloc)/links)
	}
	if per != 16 {
		t.Errorf("a link's value cell is %d bytes, want 16", per)
	}
	runtime.KeepAlive(slots)
}

func TestLinkEncoding(t *testing.T) {
	n := &node[uint64]{key: 7}
	for _, c := range []struct {
		name string
		r    ref[uint64]
		node *node[uint64]
		mark bool
	}{
		{"link(nil)", link[uint64](nil), nil, false},
		{"link(n)", link(n), n, false},
		{"marked(nil)", marked[uint64](nil), nil, true},
		{"marked(n)", marked(n), n, true},
	} {
		if c.r.node() != c.node || c.r.mark() != c.mark {
			t.Errorf("%s decodes to (%p, %v), want (%p, %v)", c.name, c.r.node(), c.r.mark(), c.node, c.mark)
		}
	}
	if link[uint64](nil) != (ref[uint64]{}) {
		t.Error("the unmarked nil link is not the zero ref: a never-written slot would not read as an empty chain")
	}
	if marked[uint64](nil) == link[uint64](nil) || marked(n) == link(n) {
		t.Error("a marked link compares equal to its unmarked form: a CAS expecting an unmarked link could change a marked one")
	}
}

// TestMarkedLinkKeepsReplacementAlive stops a replace of the tail node
// between its linearizing CAS and its unlink, where the replacement hangs
// off the list by nothing but its victim's marked link — an address one
// byte inside it — and has the collector run. The node must survive: the
// collector has to see that word as a pointer into the node.
func TestMarkedLinkKeepsReplacementAlive(t *testing.T) {
	var l chain[uint64]
	l.Put(nil, 1, 10)
	l.Put(nil, 2, 20)

	var collected atomic.Bool
	func() { // its own frame, so no stack slot keeps the replacement alive
		r := l.find(nil, 2)
		nn := newNode[uint64](nil, 2, 21, link(r.next))
		runtime.SetFinalizer(nn, func(*node[uint64]) { collected.Store(true) })
		if !r.curr.next.NbtcCAS(nil, link(r.next), marked(nn), true, true) {
			t.Fatal("uncontended replace CAS failed")
		}
	}()
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	if collected.Load() {
		t.Fatal("the replacement was collected while its victim's marked link still led to it")
	}
	if v, ok := l.Get(nil, 2); !ok || v != 21 { // unlinks the victim on its way
		t.Fatalf("Get(2) = %d, %v after the replace; want 21, true", v, ok)
	}
	if n := l.Len(); n != 2 {
		t.Fatalf("chain holds %d keys, want 2", n)
	}
	if v, ok := l.Remove(nil, 2); !ok || v != 21 { // the tail: a marked nil link
		t.Fatalf("Remove(2) = %d, %v; want 21, true", v, ok)
	}
	runtime.GC()
	if _, ok := l.Get(nil, 2); ok || l.Len() != 1 {
		t.Fatal("removed tail still present")
	}
}

// TestLinkStorm churns the tail of a one-bucket table — every worker
// removes, reinserts and replaces a key of its own above a run of stable
// keys, so whichever worker key is present last is the chain's tail and
// its neighbours' links flip between node, marked node, nil and marked nil
// — while the collector runs back to back. Each worker is its key's only
// writer and so knows what every one of its operations must return; a lost
// node, a duplicated key or a link the collector mistook for an integer
// shows up as a wrong answer, under -race as a checkptr or race report.
// Unpooled, unlinked nodes are the collector's to free; pooled, they come
// back through ResetForReuse and the never-written-slot rule.
func TestLinkStorm(t *testing.T) {
	const (
		stable  = 4
		workers = 6
		tag     = uint64(1) << 40
	)
	rounds := 4000
	if testing.Short() {
		rounds = 400
	}
	for _, pooled := range []bool{false, true} {
		name := "unpooled"
		if pooled {
			name = "pooled"
		}
		t.Run(name, func(t *testing.T) {
			mgr := core.NewTxManager()
			if pooled {
				mgr.EnablePooling()
			}
			dom := ebr.New(4)
			m := NewMap[uint64](mgr, 1)
			for k := uint64(0); k < stable; k++ {
				m.Put(nil, k, k|tag)
			}

			start := make(chan struct{})
			var stop atomic.Bool
			var wg, gcDone sync.WaitGroup
			gcDone.Add(1)
			go func() {
				defer gcDone.Done()
				<-start
				for !stop.Load() {
					runtime.GC()
				}
			}()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(k uint64) {
					defer wg.Done()
					tx := mgr.Register()
					h := dom.Register()
					tx.SetSMR(h)
					op := func(body func()) {
						h.Enter()
						if err := tx.RunRetry(func() error { body(); return nil }); err != nil {
							t.Error(err)
						}
						h.Exit()
					}
					<-start
					present, val := false, uint64(0)
					for i := 0; i < rounds && !t.Failed(); i++ {
						next := k | tag | uint64(i)<<8
						remove := present && i%3 == 0
						op(func() {
							switch {
							case !present:
								if v, ok := m.Get(tx, k); ok {
									t.Errorf("key %d: removed, yet Get finds %#x (duplicated node)", k, v)
								}
								if !m.Insert(tx, k, next) {
									t.Errorf("key %d: Insert of an absent key refused", k)
								}
							case remove:
								if v, ok := m.Remove(tx, k); !ok || v != val {
									t.Errorf("key %d: Remove = %#x, %v; want %#x, true (lost node)", k, v, ok, val)
								}
							default:
								if v, ok := m.Put(tx, k, next); !ok || v != val {
									t.Errorf("key %d: Put replaced %#x, %v; want %#x, true (lost node)", k, v, ok, val)
								}
							}
							// A stable key sits below every churned link.
							s := uint64(i) % stable
							if v, ok := m.Get(tx, s); !ok || v != s|tag {
								t.Errorf("stable key %d: Get = %#x, %v", s, v, ok)
							}
						})
						present, val = !remove, next
					}
					op(func() { m.Put(tx, k, k|tag) })
				}(uint64(stable + w))
			}
			close(start)
			wg.Wait()
			stop.Store(true)
			gcDone.Wait()

			// Quiescent: exactly the stable and worker keys, once each, in order.
			want := uint64(0)
			m.Range(func(k, v uint64) bool {
				if k != want || v != k|tag {
					t.Errorf("position %d holds key %d = %#x", want, k, v)
				}
				want++
				return true
			})
			if want != stable+workers {
				t.Errorf("chain holds %d keys, want %d", want, stable+workers)
			}
		})
	}
}
