package tpcc

import (
	"sync"
	"testing"
)

func classesOf(vs []Violation) map[string]int {
	m := map[string]int{}
	for _, v := range vs {
		m[v.Class]++
	}
	return m
}

// requireClean checks db and fails on any violation, or if the check,
// which writes no row, claimed an arena chunk.
func requireClean(t *testing.T, db *DB, sc Scale) {
	t.Helper()
	claimed := db.rows.claimed.Load()
	vs, err := Check(db, sc)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if n := db.rows.claimed.Load() - claimed; n != 0 {
		t.Fatalf("check claimed %d arena chunks, want 0", n)
	}
	if len(vs) != 0 {
		t.Fatalf("unexpected violations: %v", vs)
	}
}

func TestDeliveryEffects(t *testing.T) {
	sc := smallScale()
	for _, e := range backends(t) {
		db := NewDB(e.b)
		t.Run(e.name, func(t *testing.T) {
			if err := Load(db, sc); err != nil {
				t.Fatalf("load: %v", err)
			}
			w := db.Conn()
			items := []OrderItem{{Item: 1, SupplyW: 1, Qty: 2}, {Item: 3, SupplyW: 1, Qty: 4}}
			if err := NewOrder(w, 1, 1, 7, items); err != nil {
				t.Fatalf("newOrder: %v", err)
			}
			n, err := Delivery(w, sc.Districts, 1, 5)
			if err != nil {
				t.Fatalf("delivery: %v", err)
			}
			if n != 1 {
				t.Fatalf("delivered %d districts, want 1", n)
			}
			err = w.Run(func(c Ctx) error {
				if _, ok := c.Get(TNewOrder, OrderKey(1, 1, 1)); ok {
					t.Error("new-order entry survived delivery")
				}
				oh, _ := c.Get(TOrder, OrderKey(1, 1, 1))
				if carrier := w.row(oh)[3]; carrier != 5 {
					t.Errorf("carrier = %d, want 5", carrier)
				}
				ch, _ := c.Get(TCustomer, CustomerKey(1, 1, 7))
				crow := w.row(ch)
				if crow[3] != 1 {
					t.Errorf("deliveryCnt = %d, want 1", crow[3])
				}
				if crow[0] == 0 {
					t.Error("balance not credited with order amount")
				}
				dh, _ := c.Get(TDistrict, DistrictKey(1, 1))
				if cursor := w.row(dh)[3]; cursor != 2 {
					t.Errorf("delivery cursor = %d, want 2", cursor)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("verify: %v", err)
			}
			// Re-delivering with nothing pending is a no-op.
			if n, err := Delivery(w, sc.Districts, 1, 6); err != nil || n != 0 {
				t.Fatalf("empty delivery = (%d, %v), want (0, nil)", n, err)
			}
			res, err := OrderStatus(w, 1, 1, 7)
			if err != nil {
				t.Fatalf("orderStatus: %v", err)
			}
			if res.LastOID != 1 || res.Lines != len(items) {
				t.Fatalf("orderStatus = %+v, want lastOID 1, %d lines", res, len(items))
			}
			if _, err := StockLevel(w, 1, 1, 1000); err != nil {
				t.Fatalf("stockLevel: %v", err)
			}
			requireClean(t, db, sc)
		})
	}
}

// TestFullMixConsistency runs the standard 45/43/4/4/4 mix concurrently on
// every backend and verifies all consistency classes afterwards.
func TestFullMixConsistency(t *testing.T) {
	sc := smallScale()
	iters := 120
	if testing.Short() {
		iters = 40
	}
	for _, e := range backends(t) {
		db := NewDB(e.b)
		t.Run(e.name, func(t *testing.T) {
			if err := Load(db, sc); err != nil {
				t.Fatalf("load: %v", err)
			}
			var wg sync.WaitGroup
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					d := NewDriver(db, sc, seed, FullMix())
					for i := 0; i < iters; i++ {
						if _, err := d.Step(); err != nil {
							t.Errorf("step: %v", err)
							return
						}
					}
				}(int64(g) + 31)
			}
			wg.Wait()
			requireClean(t, db, sc)
		})
	}
}

// TestMixDistribution checks the driver honors FullMix weights and reports
// every kind.
func TestMixDistribution(t *testing.T) {
	sc := smallScale()
	db := NewDB(NewMedleyBackend())
	if err := Load(db, sc); err != nil {
		t.Fatalf("load: %v", err)
	}
	d := NewDriver(db, sc, 1, FullMix())
	counts := map[TxKind]int{}
	steps := 2000
	if testing.Short() {
		steps = 500
	}
	for i := 0; i < steps; i++ {
		kind, err := d.Step()
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		counts[kind]++
	}
	for k := TxKind(0); k < NumTxKinds; k++ {
		if counts[k] == 0 {
			t.Errorf("kind %s never ran in %d steps", k, steps)
		}
	}
	noFrac := float64(counts[TxNewOrder]) / float64(steps)
	if noFrac < 0.35 || noFrac > 0.55 {
		t.Errorf("newOrder fraction = %.2f, want ~0.45", noFrac)
	}
}

// TestCheckDetectsDroppedDYTD injects the "dropped D_YTD update" fault: a
// payment that updates the warehouse and customer but skips the district.
// Only the money class may fire.
func TestCheckDetectsDroppedDYTD(t *testing.T) {
	sc := smallScale()
	db := NewDB(NewMedleyBackend())
	if err := Load(db, sc); err != nil {
		t.Fatalf("load: %v", err)
	}
	w := db.Conn()
	if err := Payment(w, 1, 1, 1, 500); err != nil {
		t.Fatalf("payment: %v", err)
	}
	requireClean(t, db, sc)

	const amount = 777
	err := w.Run(func(c Ctx) error {
		wk := WarehouseKey(1)
		wh, _ := c.Get(TWarehouse, wk)
		wrow := w.row(wh)
		c.Put(TWarehouse, wk, w.put(Row{wrow[0] + amount, wrow[1], 0, 0}))
		// Fault: the matching district Y-T-D update is dropped.
		ck := CustomerKey(1, 1, 1)
		ch, _ := c.Get(TCustomer, ck)
		crow := w.row(ch)
		c.Put(TCustomer, ck, w.put(Row{crow[0] - amount, crow[1] + amount, crow[2] + 1, crow[3]}))
		return nil
	})
	if err != nil {
		t.Fatalf("faulty payment: %v", err)
	}

	vs, err := Check(db, sc)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	classes := classesOf(vs)
	if classes[ClassMoney] == 0 {
		t.Fatalf("dropped D_YTD not detected; violations: %v", vs)
	}
	if len(classes) != 1 {
		t.Fatalf("expected only %q violations, got %v", ClassMoney, vs)
	}
}

// TestCheckDetectsDuplicatedDelivery injects the "duplicated delivery"
// fault: a delivered order's customer effects applied a second time. Only
// the delivery class may fire.
func TestCheckDetectsDuplicatedDelivery(t *testing.T) {
	sc := smallScale()
	db := NewDB(NewMedleyBackend())
	if err := Load(db, sc); err != nil {
		t.Fatalf("load: %v", err)
	}
	w := db.Conn()
	items := []OrderItem{{Item: 2, SupplyW: 1, Qty: 3}}
	if err := NewOrder(w, 1, 1, 4, items); err != nil {
		t.Fatalf("newOrder: %v", err)
	}
	if _, err := Delivery(w, sc.Districts, 1, 2); err != nil {
		t.Fatalf("delivery: %v", err)
	}
	requireClean(t, db, sc)

	// Fault: re-apply the delivery's customer credit without moving the
	// district cursor — the order is delivered twice from the customer's
	// point of view.
	err := w.Run(func(c Ctx) error {
		oh, _ := c.Get(TOrder, OrderKey(1, 1, 1))
		var total uint64
		olCnt := w.row(oh)[1]
		for ol := uint64(0); ol < olCnt; ol++ {
			lh, _ := c.Get(TOrderLine, OrderLineKey(1, 1, 1, ol))
			total += w.row(lh)[2]
		}
		ck := CustomerKey(1, 1, 4)
		ch, _ := c.Get(TCustomer, ck)
		crow := w.row(ch)
		c.Put(TCustomer, ck, w.put(Row{crow[0] + total, crow[1], crow[2], crow[3] + 1}))
		return nil
	})
	if err != nil {
		t.Fatalf("faulty delivery: %v", err)
	}

	vs, err := Check(db, sc)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	classes := classesOf(vs)
	if classes[ClassDelivery] == 0 {
		t.Fatalf("duplicated delivery not detected; violations: %v", vs)
	}
	if len(classes) != 1 {
		t.Fatalf("expected only %q violations, got %v", ClassDelivery, vs)
	}
}
