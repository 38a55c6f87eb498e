package cdc

import (
	"strings"
	"testing"
	"unsafe"
)

// A ring slot is key, value and a ticket word carrying the tombstone
// flag: the seq is the slot's position, so it is not stored.
func TestFeedRecordLayout(t *testing.T) {
	var r ring
	if got := unsafe.Sizeof(r.buf[0]); got != 24 {
		t.Fatalf("a ring slot is %d bytes, want 24", got)
	}
}

// The next ticket goes straight into the rings: no copy, no reorder-buffer
// entry and, with no reader armed, no fresh notify channel. A reader that
// armed the channel before the publish is still woken.
func TestInOrderPublishAllocatesNothing(t *testing.T) {
	f := New(2, 64, nil)
	writes := []Write{{Key: 1, Val: 10}, {Key: 2, Del: true}}
	if a := testing.AllocsPerRun(200, func() { f.Publish(f.DrawTicket(), writes) }); a != 0 {
		t.Errorf("an in-order Publish with no armed reader allocates %.1f times, want 0", a)
	}
	wake := f.Notify()
	f.Publish(f.DrawTicket(), writes)
	select {
	case <-wake:
	default:
		t.Fatal("a reader that called Notify before the publish was not woken")
	}
	wake = f.Notify()
	f.Publish(f.DrawTicket(), writes)
	select {
	case <-wake:
	default:
		t.Fatal("a reader that re-armed after a wake was not woken by the next publish")
	}
}

// Tickets share their word with the tombstone flag, so they stay below
// 2^63; the last one that fits is stored whole, the next one panics.
func TestTicketBound(t *testing.T) {
	f := New(1, 4, nil)
	f.next.Store(delBit - 2)
	f.watermark.Store(delBit - 2)
	last := f.DrawTicket()
	f.Publish(last, []Write{{Key: 1, Val: 7, Del: true}})
	got, err := f.ReadFrom(0, 1, nil)
	if err != nil || len(got) != 1 || got[0].TxID != last || !got[0].Del || got[0].Val != 7 {
		t.Fatalf("ticket 2^63-1 read back as %+v, %v", got, err)
	}
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "2^63") {
			t.Fatalf("ticket 2^63 panicked with %q, want the ticket bound", r)
		}
	}()
	f.Publish(f.DrawTicket(), []Write{{Key: 1}})
	t.Fatal("ticket 2^63 was admitted")
}

// FuzzFeedAdmission draws up to 16 tickets, settles each as a
// cancellation or a publication of up to three writes, and settles them
// in an input-chosen order, so in-place admissions, parked tickets and
// drains interleave. After every settlement each shard's ring must hold
// the retained suffix of the admitted writes in ticket order with dense
// seqs, and Stats must match the model.
func FuzzFeedAdmission(f *testing.F) {
	f.Add([]byte{5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 0, 0, 0, 0})
	f.Add([]byte{16, 255, 3, 9, 17, 200, 4, 4, 1, 0, 99, 31, 7, 130, 6, 3, 2, 1, 9, 9, 9, 15, 3})
	f.Add([]byte{9, 3, 0x81, 2, 3, 10, 0, 7, 7, 7, 7, 2, 4, 6, 8, 1, 5, 8, 0, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		const shards, ringCap = 2, 8
		feed := New(shards, ringCap, func(key uint64) int { return int(key % shards) })
		n := 1 + int(next()%16)
		cancel := make([]bool, n+1)
		writes := make([][]Write, n+1)
		for tk := 1; tk <= n; tk++ {
			if got := feed.DrawTicket(); got != uint64(tk) {
				t.Fatalf("drew ticket %d, want %d", got, tk)
			}
			b := next()
			if b%5 == 0 {
				cancel[tk] = true
				continue
			}
			for i := 0; i < int(b%4); i++ {
				k := next()
				writes[tk] = append(writes[tk], Write{Key: uint64(k % 8), Val: uint64(tk)<<8 | uint64(i), Del: k&0x80 != 0})
			}
		}
		order := make([]int, n)
		for i := range order {
			order[i] = i + 1
		}
		for i := n - 1; i > 0; i-- {
			j := int(next()) % (i + 1)
			order[i], order[j] = order[j], order[i]
		}

		settled := make([]bool, n+2)
		var model [shards][]Entry
		var wm, published, cancelled, entries uint64
		scratch := make([]Write, 0, 4)
		for _, tk := range order {
			if cancel[tk] {
				feed.CancelTicket(uint64(tk))
				cancelled++
			} else {
				// Publish from a scratch slice, then scribble over it: a
				// parked ticket must not alias the caller's writes.
				scratch = append(scratch[:0], writes[tk]...)
				feed.Publish(uint64(tk), scratch)
				for i := range scratch {
					scratch[i] = Write{Key: 1, Val: 1 << 60}
				}
				published++
			}
			settled[tk] = true
			for settled[wm+1] {
				wm++
				for _, w := range writes[wm] {
					s := w.Key % shards
					model[s] = append(model[s], Entry{Seq: uint64(len(model[s]) + 1), Key: w.Key, Val: w.Val, Del: w.Del, TxID: wm})
				}
				entries += uint64(len(writes[wm]))
			}

			var pending int
			for u := wm + 1; u <= uint64(n); u++ {
				if settled[u] {
					pending++
				}
			}
			var compacted uint64
			for s := range model {
				want := model[s]
				if len(want) > ringCap {
					compacted += uint64(len(want) - ringCap)
					if _, err := feed.ReadFrom(s, want[len(want)-ringCap-1].Seq, nil); err != ErrCompacted {
						t.Fatalf("shard %d: reading a dropped seq gave %v, want ErrCompacted", s, err)
					}
					want = want[len(want)-ringCap:]
				}
				from := uint64(1)
				if len(want) > 0 {
					from = want[0].Seq
				}
				got := readAll(t, feed, s, from)
				if len(got) != len(want) {
					t.Fatalf("after settling %d, shard %d holds %v, want %v", tk, s, got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("after settling %d, shard %d entry %d = %+v, want %+v", tk, s, i, got[i], want[i])
					}
				}
			}
			want := Stats{Drawn: uint64(n), Published: published, Cancelled: cancelled, Entries: entries, Compacted: compacted, Pending: pending}
			if st := feed.Stats(); st != want {
				t.Fatalf("after settling %d, Stats = %+v, want %+v", tk, st, want)
			}
		}
	})
}
