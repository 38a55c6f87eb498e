package cdc

import (
	"sync"
	"testing"
)

func readAll(t *testing.T, f *Feed, shard int, from uint64) []Entry {
	t.Helper()
	var out []Entry
	buf := make([]Entry, 4)
	for {
		got, err := f.ReadFrom(shard, from, buf)
		if err != nil {
			t.Fatalf("ReadFrom(%d, %d): %v", shard, from, err)
		}
		if len(got) == 0 {
			return out
		}
		out = append(out, got...)
		from = got[len(got)-1].Seq + 1
	}
}

func TestFeedOrderAndSeqs(t *testing.T) {
	// Fixed placement: even keys on stream 0, odd on 1.
	f := New(2, 8, func(key uint64) int { return int(key % 2) })
	t1 := f.DrawTicket()
	t2 := f.DrawTicket()
	if t1 != 1 || t2 != 2 {
		t.Fatalf("tickets = %d, %d, want 1, 2", t1, t2)
	}

	// Publish out of order: t2 first must park until t1 settles.
	f.Publish(t2, []Write{{Key: 2, Val: 20}, {Key: 4, Val: 40}})
	if got := readAll(t, f, 0, 1); len(got) != 0 {
		t.Fatalf("shard 0 admitted %v before ticket 1 settled", got)
	}
	f.Publish(t1, []Write{{Key: 0, Val: 10}, {Key: 3, Val: 30}})

	s0 := readAll(t, f, 0, 1)
	if len(s0) != 3 {
		t.Fatalf("shard 0 entries = %v, want 3", s0)
	}
	// Ticket order on the shard: t1's keys 0 then t2's keys 2, 4.
	wantKeys := []uint64{0, 2, 4}
	wantTx := []uint64{1, 2, 2}
	for i, e := range s0 {
		if e.Seq != uint64(i+1) {
			t.Errorf("entry %d seq = %d, want dense %d", i, e.Seq, i+1)
		}
		if e.Key != wantKeys[i] || e.TxID != wantTx[i] {
			t.Errorf("entry %d = %+v, want key %d txid %d", i, e, wantKeys[i], wantTx[i])
		}
	}
	s1 := readAll(t, f, 1, 1)
	if len(s1) != 1 || s1[0].Key != 3 || s1[0].Seq != 1 {
		t.Fatalf("shard 1 entries = %v, want key 3 at seq 1", s1)
	}
}

// The default routing spreads a strided key space over every stream: the
// paper's (and the benchmark's) keys are all even, which key % 4 would put
// on streams 0 and 2 only.
func TestDefaultRoutingSpreadsEvenKeys(t *testing.T) {
	const shards, keys = 4, 1 << 16
	f := New(shards, 8, nil)
	var n [shards]int
	for k := uint64(0); k < 2*keys; k += 2 {
		s := f.ShardOf(k)
		if s != f.ShardOf(k) || s < 0 || s >= shards {
			t.Fatalf("ShardOf(%d) = %d: not a deterministic stream in [0,%d)", k, s, shards)
		}
		n[s]++
	}
	for s, c := range n {
		if share := float64(c) / keys; share < 0.20 || share > 0.30 {
			t.Errorf("stream %d holds %.1f%% of %d even keys, want 20-30%% (all: %v)", s, 100*share, keys, n)
		}
	}
}

func TestFeedCancelFillsHole(t *testing.T) {
	f := New(1, 8, nil)
	t1 := f.DrawTicket()
	t2 := f.DrawTicket()
	f.Publish(t2, []Write{{Key: 7, Val: 70}})
	if got := readAll(t, f, 0, 1); len(got) != 0 {
		t.Fatalf("admitted %v across unsettled hole", got)
	}
	f.CancelTicket(t1)
	got := readAll(t, f, 0, 1)
	if len(got) != 1 || got[0].Key != 7 || got[0].TxID != t2 {
		t.Fatalf("after cancel got %v, want key 7 from ticket %d", got, t2)
	}
	st := f.Stats()
	if st.Cancelled != 1 || st.Published != 1 || st.Pending != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFeedTombstoneAndAbsoluteValues(t *testing.T) {
	f := New(1, 8, nil)
	ta := f.DrawTicket()
	f.Publish(ta, []Write{{Key: 5, Val: 50}, {Key: 5, Del: true}})
	got := readAll(t, f, 0, 1)
	if len(got) != 2 {
		t.Fatalf("entries = %v", got)
	}
	if got[0].Del || got[0].Val != 50 {
		t.Fatalf("first entry = %+v, want val 50", got[0])
	}
	if !got[1].Del {
		t.Fatalf("second entry = %+v, want tombstone", got[1])
	}
}

func TestFeedCompaction(t *testing.T) {
	const cap = 4
	f := New(1, cap, nil)
	for i := 0; i < 10; i++ {
		tk := f.DrawTicket()
		f.Publish(tk, []Write{{Key: uint64(i), Val: uint64(i)}})
	}
	if head := f.Head(0); head != 10 {
		t.Fatalf("head = %d, want 10", head)
	}
	// Oldest retained is 10-4+1 = 7; reading from 1 must demand a snapshot.
	if _, err := f.ReadFrom(0, 1, make([]Entry, 4)); err != ErrCompacted {
		t.Fatalf("ReadFrom(1) err = %v, want ErrCompacted", err)
	}
	if _, err := f.ReadFrom(0, 6, make([]Entry, 4)); err != ErrCompacted {
		t.Fatalf("ReadFrom(6) err = %v, want ErrCompacted", err)
	}
	got, err := f.ReadFrom(0, 7, make([]Entry, 8))
	if err != nil || len(got) != 4 {
		t.Fatalf("ReadFrom(7) = %v, %v, want 4 entries", got, err)
	}
	for i, e := range got {
		if e.Seq != uint64(7+i) || e.Key != uint64(6+i) {
			t.Fatalf("entry %d = %+v", i, e)
		}
	}
	// Beyond head: caught up, empty, no error.
	got, err = f.ReadFrom(0, 11, make([]Entry, 4))
	if err != nil || len(got) != 0 {
		t.Fatalf("ReadFrom(11) = %v, %v, want empty", got, err)
	}
	if st := f.Stats(); st.Compacted != 6 {
		t.Fatalf("compacted = %d, want 6", st.Compacted)
	}
}

func TestFeedNotify(t *testing.T) {
	f := New(1, 8, nil)
	ch := f.Notify()
	select {
	case <-ch:
		t.Fatal("notify fired with no admission")
	default:
	}
	tk := f.DrawTicket()
	f.Publish(tk, []Write{{Key: 1, Val: 1}})
	select {
	case <-ch:
	default:
		t.Fatal("notify did not fire on admission")
	}
	// Cancel-only settling admits nothing and must not wake readers.
	ch = f.Notify()
	f.CancelTicket(f.DrawTicket())
	select {
	case <-ch:
		t.Fatal("notify fired on cancel-only drain")
	default:
	}
}

func TestFeedConcurrent(t *testing.T) {
	const (
		writers = 8
		perW    = 500
	)
	f := New(4, writers*perW+1, nil)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				tk := f.DrawTicket()
				if i%5 == 4 {
					f.CancelTicket(tk)
					continue
				}
				f.Publish(tk, []Write{{Key: tk, Val: tk * 10}})
			}
		}(w)
	}
	wg.Wait()

	st := f.Stats()
	if st.Pending != 0 {
		t.Fatalf("pending = %d after all settled", st.Pending)
	}
	wantPub := uint64(writers * perW * 4 / 5)
	if st.Published != wantPub || st.Entries != wantPub {
		t.Fatalf("published = %d entries = %d, want %d", st.Published, st.Entries, wantPub)
	}
	total := 0
	for s := 0; s < f.ShardCount(); s++ {
		entries := readAll(t, f, s, 1)
		var lastTx uint64
		for _, e := range entries {
			if e.TxID <= lastTx {
				t.Fatalf("shard %d ticket order violated: %d after %d", s, e.TxID, lastTx)
			}
			lastTx = e.TxID
			if e.Val != e.Key*10 {
				t.Fatalf("shard %d entry %+v corrupt", s, e)
			}
		}
		total += len(entries)
	}
	if uint64(total) != wantPub {
		t.Fatalf("total entries read = %d, want %d", total, wantPub)
	}
}

func TestFeedReadFromNilBuf(t *testing.T) {
	// A nil (zero-capacity) buffer must not read as a permanently empty
	// feed — ReadFrom allocates a default-sized batch instead. Regression:
	// callers passing nil silently saw zero entries forever.
	f := New(1, 8, nil)
	t1 := f.DrawTicket()
	f.Publish(t1, []Write{{Key: 1, Val: 10}, {Key: 2, Val: 20}})
	got, err := f.ReadFrom(0, 1, nil)
	if err != nil {
		t.Fatalf("ReadFrom(nil buf): %v", err)
	}
	if len(got) != 2 || got[0].Key != 1 || got[1].Key != 2 {
		t.Fatalf("ReadFrom(nil buf) = %v, want keys 1, 2", got)
	}
}
