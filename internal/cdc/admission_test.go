package cdc

import (
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// A ring slot is key, value and a ticket word carrying the tombstone
// flag: the seq is the slot's position, so it is not stored.
func TestFeedRecordLayout(t *testing.T) {
	var r ring
	if got := unsafe.Sizeof(r.chunks[0][0]); got != 24 {
		t.Fatalf("a ring slot is %d bytes, want 24", got)
	}
}

// ringBytes is what r holds: its allocated chunks and its directory.
func ringBytes(r *ring) (chunks int, bytes uintptr) {
	bytes = uintptr(cap(r.chunks)) * unsafe.Sizeof(r.chunks[0])
	for _, c := range r.chunks {
		if c != nil {
			chunks++
			bytes += uintptr(cap(c)) * unsafe.Sizeof(c[0])
		}
	}
	return chunks, bytes
}

// A ring allocates its records a chunk at a time as entries arrive: k
// entries into a fresh ring, or into one a load ticket just emptied, hold
// ceil(k/1024) chunks, and a full ring holds ringCap records and its
// directory, nothing more, whether or not ringCap is a chunk multiple.
func TestRingHoldsWhatItRetains(t *testing.T) {
	const rec = unsafe.Sizeof(record{})
	for _, ringCap := range []int{1 << 14, 2500, 5} {
		dir := uintptr((ringCap+ringChunk-1)/ringChunk) * unsafe.Sizeof([]record(nil))
		for _, k := range []int{0, 1, ringChunk - 1, ringChunk, ringChunk + 1, 3000, ringCap} {
			if k > ringCap {
				continue
			}
			for _, loaded := range []bool{false, true} {
				f := New(1, ringCap, nil)
				if loaded {
					f.PublishLoad(f.DrawTicket(), []Write{{Key: 1}, {Key: 2}, {Key: 3}})
				}
				for i := 0; i < k; i++ {
					f.Publish(f.DrawTicket(), []Write{{Key: uint64(i), Val: 1}})
				}
				want := (k + ringChunk - 1) / ringChunk
				if n, _ := ringBytes(&f.shards[0]); n != want {
					t.Errorf("ringCap %d, load first %v: %d entries hold %d chunks, want %d", ringCap, loaded, k, n, want)
				}
			}
		}
		f := New(1, ringCap, nil)
		for i := 0; i < 2*ringCap+7; i++ {
			f.Publish(f.DrawTicket(), []Write{{Key: uint64(i)}})
		}
		if _, b := ringBytes(&f.shards[0]); b != uintptr(ringCap)*rec+dir {
			t.Errorf("ringCap %d: a full ring holds %d bytes, want %d records and a %d-byte directory (%d)",
				ringCap, b, ringCap, dir, uintptr(ringCap)*rec+dir)
		}
	}
}

// A ring wraps over a last chunk shorter than the others: publish past
// three laps of a ring that is not a chunk multiple, and at every
// checkpoint each retained seq reads back as written while the one below
// the oldest is compacted.
func TestRingWrapsOverPartialChunk(t *testing.T) {
	const ringCap, n = 2*ringChunk + 452, 3*(2*ringChunk+452) + 317
	f := New(1, ringCap, nil)
	buf := make([]Entry, 0, ringCap)
	for i := 1; i <= n; i++ {
		tk := f.DrawTicket()
		f.Publish(tk, []Write{{Key: uint64(i) * 3, Val: uint64(i) << 8, Del: i%11 == 0}})
		if i%97 != 0 && i != n {
			continue
		}
		oldest := uint64(max(1, i-ringCap+1))
		got, err := f.ReadFrom(0, oldest, buf)
		if err != nil || len(got) != i-int(oldest)+1 {
			t.Fatalf("after %d: ReadFrom(%d) = %d entries, %v; want %d", i, oldest, len(got), err, i-int(oldest)+1)
		}
		for j, e := range got {
			s := oldest + uint64(j)
			want := Entry{Seq: s, Key: s * 3, Val: s << 8, Del: s%11 == 0, TxID: s}
			if e != want {
				t.Fatalf("after %d: seq %d read %+v, want %+v", i, s, e, want)
			}
		}
		if oldest > 1 {
			if _, err := f.ReadFrom(0, oldest-1, buf); err != ErrCompacted {
				t.Fatalf("after %d: ReadFrom(%d), below the oldest retained, gave %v, want ErrCompacted", i, oldest-1, err)
			}
		}
	}
}

// A load ticket is a compaction point, not a window flush: it advances
// the heads of the shards it writes, so a reader that was caught up at
// head+1 is woken and gets ErrCompacted, where a flush alone would let it
// read "caught up" and miss the load. A shard the load does not touch
// keeps its window, and a load parked behind a lower ticket compacts when
// it is admitted.
func TestLoadTicketCompactsCaughtUpReader(t *testing.T) {
	f := New(2, 64, func(key uint64) int { return int(key % 2) })
	for i := uint64(0); i < 6; i++ {
		f.Publish(f.DrawTicket(), []Write{{Key: i, Val: i}})
	}
	if got, err := f.ReadFrom(0, 4, nil); err != nil || len(got) != 0 {
		t.Fatalf("caught-up reader at head+1 read %v, %v; want nothing", got, err)
	}
	wake := f.Notify()
	f.PublishLoad(f.DrawTicket(), []Write{{Key: 10, Val: 1}, {Key: 12, Val: 2}})
	select {
	case <-wake:
	default:
		t.Fatal("a load ticket did not wake an armed reader")
	}
	if h := f.Heads(); h[0] != 5 || h[1] != 3 {
		t.Fatalf("heads after a 2-write load on shard 0 = %v, want [5 3]", h)
	}
	for _, from := range []uint64{1, 4, 5} {
		if _, err := f.ReadFrom(0, from, nil); err != ErrCompacted {
			t.Fatalf("shard 0 ReadFrom(%d) after the load gave %v, want ErrCompacted", from, err)
		}
	}
	if got, err := f.ReadFrom(1, 1, nil); err != nil || len(got) != 3 {
		t.Fatalf("untouched shard 1 read %v, %v; want its 3 entries", got, err)
	}
	want := Stats{Drawn: 7, Published: 7, Entries: 8, Compacted: 3 + 2}
	if st := f.Stats(); st != want {
		t.Fatalf("Stats after the load = %+v, want %+v", st, want)
	}

	low := f.DrawTicket()
	f.PublishLoad(f.DrawTicket(), []Write{{Key: 1}})
	f.Publish(low, []Write{{Key: 3, Val: 9}})
	if _, err := f.ReadFrom(1, 4, nil); err != ErrCompacted {
		t.Fatalf("shard 1 ReadFrom(4) after a parked load drained gave %v, want ErrCompacted", err)
	}
	f.Publish(f.DrawTicket(), []Write{{Key: 14, Val: 4}})
	if got, err := f.ReadFrom(0, 6, nil); err != nil || len(got) != 1 || got[0] != (Entry{Seq: 6, Key: 14, Val: 4, TxID: 10}) {
		t.Fatalf("first write after the load read %v, %v", got, err)
	}
}

// A load parked behind a lower ticket keeps only its count of writes per
// shard, which is all its admission reads: parking a 512-write bootstrap
// chunk, the size a follower loads, costs a few bytes, not a 12 KB copy
// of its writes. Admitted, it takes its seqs as an in-order load does.
func TestParkedLoadKeepsCountsNotWrites(t *testing.T) {
	f := New(4, 64, func(key uint64) int { return int(key % 4) })
	writes := make([]Write, 512)
	for i := range writes {
		writes[i] = Write{Key: uint64(i), Val: uint64(i)}
	}
	const rounds = 64
	park := func() {
		hole := f.DrawTicket()
		f.PublishLoad(f.DrawTicket(), writes)
		f.CancelTicket(hole)
	}
	park() // the reorder buffer's first entry grows the map once
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rounds {
		park()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / rounds; per > 256 {
		t.Errorf("parking a 512-write load allocates %d bytes, want at most 256", per)
	}
	if h := f.Heads(); h[0] != (rounds+1)*128 || h[3] != (rounds+1)*128 {
		t.Errorf("heads after %d parked loads of 128 writes a shard = %v, want %d each", rounds+1, h, (rounds+1)*128)
	}
	want := Stats{Drawn: 2 * (rounds + 1), Published: rounds + 1, Cancelled: rounds + 1,
		Entries: (rounds + 1) * 512, Compacted: (rounds + 1) * 512}
	if st := f.Stats(); st != want {
		t.Errorf("Stats after the parked loads = %+v, want %+v", st, want)
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
// cancellation, a publication or a load of up to three writes, and
// settles them in an input-chosen order, so in-place admissions, parked
// tickets and drains interleave. After every settlement each shard's head
// must count its admitted writes, its ring must hold the retained suffix
// of them in ticket order with dense seqs — the last ringCap since the
// shard's last load, which retains none — and Stats must match the model.
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
		load := make([]bool, n+1)
		writes := make([][]Write, n+1)
		for tk := 1; tk <= n; tk++ {
			if got := feed.DrawTicket(); got != uint64(tk) {
				t.Fatalf("drew ticket %d, want %d", got, tk)
			}
			b := next()
			switch b % 6 {
			case 0:
				cancel[tk] = true
				continue
			case 1:
				load[tk] = true
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
		var model [shards][]Entry // every assigned seq, a load's too
		var floor [shards]int     // model index past each shard's last load
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
				if load[tk] {
					feed.PublishLoad(uint64(tk), scratch)
				} else {
					feed.Publish(uint64(tk), scratch)
				}
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
					if load[wm] {
						floor[s] = len(model[s])
					}
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
			heads := feed.Heads()
			for s := range model {
				head := uint64(len(model[s]))
				if heads[s] != head {
					t.Fatalf("after settling %d, shard %d head = %d, want %d", tk, s, heads[s], head)
				}
				want := model[s][max(floor[s], len(model[s])-ringCap):]
				dropped := uint64(len(model[s]) - len(want))
				compacted += dropped
				if dropped > 0 {
					if _, err := feed.ReadFrom(s, dropped, nil); err != ErrCompacted {
						t.Fatalf("shard %d: reading dropped seq %d gave %v, want ErrCompacted", s, dropped, err)
					}
				}
				got := readAll(t, feed, s, dropped+1)
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
