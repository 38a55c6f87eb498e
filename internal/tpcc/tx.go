package tpcc

import (
	"errors"
	"fmt"
	"math/rand"
)

// Scale holds the (scaled-down) TPC-C cardinalities.
type Scale struct {
	Warehouses int
	Districts  int // per warehouse (TPC-C: 10)
	Customers  int // per district (TPC-C: 3000)
	Items      int // (TPC-C: 100000)
}

// DefaultScale is a laptop-scale configuration preserving the TPC-C access
// skew structure (per-district sequences, per-warehouse stock).
func DefaultScale() Scale {
	return Scale{Warehouses: 4, Districts: 10, Customers: 100, Items: 1000}
}

// errRowMissing indicates a corrupted load; it aborts without retry.
var errRowMissing = errors.New("tpcc: row missing")

// Initial year-to-date totals loaded per TPC-C (cents). The consistency
// checks subtract these to recover the sum of committed payments.
const (
	InitWarehouseYTD = 30000000
	InitDistrictYTD  = 3000000
)

// Load populates the database per TPC-C's initial state, one row per
// transaction.
func Load(db *DB, sc Scale) error {
	cn := db.Conn()
	var err error
	load := func(table int, key uint64, r Row) {
		if err == nil {
			h := cn.put(r)
			err = cn.Run(func(c Ctx) error { c.Put(table, key, h); return nil })
		}
	}
	for i := uint64(1); i <= uint64(sc.Items); i++ {
		load(TItem, ItemKey(i), Row{100 + i%9900, i, 0, 0}) // price cents; shared, read-only
	}
	for wh := uint64(1); wh <= uint64(sc.Warehouses); wh++ {
		load(TWarehouse, WarehouseKey(wh), Row{InitWarehouseYTD, 100, 0, 0})
		for d := uint64(1); d <= uint64(sc.Districts); d++ {
			load(TDistrict, DistrictKey(wh, d), Row{InitDistrictYTD, 150, 1, 1}) // nextOID = nextDeliveryOID = 1
			for c := uint64(1); c <= uint64(sc.Customers); c++ {
				load(TCustomer, CustomerKey(wh, d, c), Row{})
			}
		}
		for i := uint64(1); i <= uint64(sc.Items); i++ {
			load(TStock, StockKey(wh, i), Row{10 + i%91, 0, 0, 0})
		}
	}
	return err
}

// OrderItem is one line of a newOrder request.
type OrderItem struct {
	Item    uint64
	SupplyW uint64
	Qty     uint64
}

// NewOrder executes the TPC-C newOrder transaction: allocate the district's
// next order id, create the order and its new-order entry, and for each
// line read the item, update the stock, and create the order line.
func NewOrder(cn *Conn, whID, dID, cID uint64, items []OrderItem) error {
	return cn.Run(func(c Ctx) error {
		dk := DistrictKey(whID, dID)
		dh, ok := c.Get(TDistrict, dk)
		if !ok {
			return fmt.Errorf("%w: district %d/%d", errRowMissing, whID, dID)
		}
		drow := cn.row(dh)
		oid := drow[2]
		c.Put(TDistrict, dk, cn.put(Row{drow[0], drow[1], oid + 1, drow[3]}))

		if _, ok := c.Get(TWarehouse, WarehouseKey(whID)); !ok {
			return fmt.Errorf("%w: warehouse %d", errRowMissing, whID)
		}
		if _, ok := c.Get(TCustomer, CustomerKey(whID, dID, cID)); !ok {
			return fmt.Errorf("%w: customer %d", errRowMissing, cID)
		}

		c.Insert(TOrder, OrderKey(whID, dID, oid),
			cn.put(Row{cID, uint64(len(items)), 0, 0}))
		c.Insert(TNewOrder, OrderKey(whID, dID, oid), cn.put(Row{}))
		c.Put(TCustOrder, CustomerKey(whID, dID, cID), cn.put(Row{oid, 0, 0, 0}))

		for ol, it := range items {
			ih, ok := c.Get(TItem, ItemKey(it.Item))
			if !ok {
				return fmt.Errorf("%w: item %d", errRowMissing, it.Item)
			}
			price := cn.row(ih)[0]
			sk := StockKey(it.SupplyW, it.Item)
			sh, ok := c.Get(TStock, sk)
			if !ok {
				return fmt.Errorf("%w: stock %d/%d", errRowMissing, it.SupplyW, it.Item)
			}
			srow := cn.row(sh)
			qty := srow[0]
			if qty >= it.Qty+10 {
				qty -= it.Qty
			} else {
				qty = qty + 91 - it.Qty
			}
			remote := srow[3]
			if it.SupplyW != whID {
				remote++
			}
			c.Put(TStock, sk, cn.put(Row{qty, srow[1] + it.Qty, srow[2] + 1, remote}))
			amount := it.Qty * price
			c.Insert(TOrderLine, OrderLineKey(whID, dID, oid, uint64(ol)),
				cn.put(Row{it.Item, it.Qty, amount, it.SupplyW}))
		}
		return nil
	})
}

// Payment executes the TPC-C payment transaction: update warehouse and
// district year-to-date totals and the customer's balance.
func Payment(cn *Conn, whID, dID, cID uint64, amount uint64) error {
	return cn.Run(func(c Ctx) error {
		wk := WarehouseKey(whID)
		wh, ok := c.Get(TWarehouse, wk)
		if !ok {
			return fmt.Errorf("%w: warehouse %d", errRowMissing, whID)
		}
		wrow := cn.row(wh)
		c.Put(TWarehouse, wk, cn.put(Row{wrow[0] + amount, wrow[1], 0, 0}))

		dk := DistrictKey(whID, dID)
		dh, ok := c.Get(TDistrict, dk)
		if !ok {
			return fmt.Errorf("%w: district %d/%d", errRowMissing, whID, dID)
		}
		drow := cn.row(dh)
		c.Put(TDistrict, dk, cn.put(Row{drow[0] + amount, drow[1], drow[2], drow[3]}))

		ck := CustomerKey(whID, dID, cID)
		ch, ok := c.Get(TCustomer, ck)
		if !ok {
			return fmt.Errorf("%w: customer %d", errRowMissing, cID)
		}
		crow := cn.row(ch)
		c.Put(TCustomer, ck, cn.put(Row{crow[0] - amount, crow[1] + amount, crow[2] + 1, crow[3]}))
		return nil
	})
}

// Delivery executes the TPC-C delivery transaction for one warehouse: in a
// single atomic transaction it delivers the oldest undelivered order in each
// of the warehouse's districts — removing its new-order entry, stamping the
// order with the carrier, crediting the order's total amount to the
// customer's balance, and advancing the district's delivery cursor. It
// returns how many districts had an order to deliver.
func Delivery(cn *Conn, districts int, whID, carrier uint64) (int, error) {
	delivered := 0
	err := cn.Run(func(c Ctx) error {
		delivered = 0
		for d := 1; d <= districts; d++ {
			dID := uint64(d)
			dk := DistrictKey(whID, dID)
			dh, ok := c.Get(TDistrict, dk)
			if !ok {
				return fmt.Errorf("%w: district %d/%d", errRowMissing, whID, dID)
			}
			drow := cn.row(dh)
			oid := drow[3]
			if oid >= drow[2] { // nothing undelivered in this district
				continue
			}
			ok = c.Remove(TNewOrder, OrderKey(whID, dID, oid))
			if !ok {
				return fmt.Errorf("%w: new-order %d/%d/%d", errRowMissing, whID, dID, oid)
			}
			oh, ok := c.Get(TOrder, OrderKey(whID, dID, oid))
			if !ok {
				return fmt.Errorf("%w: order %d/%d/%d", errRowMissing, whID, dID, oid)
			}
			orow := cn.row(oh)
			var total uint64
			for ol := uint64(0); ol < orow[1]; ol++ {
				lh, ok := c.Get(TOrderLine, OrderLineKey(whID, dID, oid, ol))
				if !ok {
					return fmt.Errorf("%w: order line %d/%d/%d/%d", errRowMissing, whID, dID, oid, ol)
				}
				total += cn.row(lh)[2]
			}
			c.Put(TOrder, OrderKey(whID, dID, oid),
				cn.put(Row{orow[0], orow[1], orow[2], carrier}))
			ck := CustomerKey(whID, dID, orow[0])
			ch, ok := c.Get(TCustomer, ck)
			if !ok {
				return fmt.Errorf("%w: customer %d/%d/%d", errRowMissing, whID, dID, orow[0])
			}
			crow := cn.row(ch)
			c.Put(TCustomer, ck, cn.put(Row{crow[0] + total, crow[1], crow[2], crow[3] + 1}))
			c.Put(TDistrict, dk, cn.put(Row{drow[0], drow[1], drow[2], oid + 1}))
			delivered++
		}
		return nil
	})
	return delivered, err
}

// OrderStatusResult is what the orderStatus transaction read.
type OrderStatusResult struct {
	Balance uint64
	LastOID uint64 // 0 when the customer has never ordered
	Lines   int
}

// OrderStatus executes the read-only TPC-C orderStatus transaction: report
// a customer's balance and the line items of their most recent order.
func OrderStatus(cn *Conn, whID, dID, cID uint64) (OrderStatusResult, error) {
	var res OrderStatusResult
	err := cn.Run(func(c Ctx) error {
		res = OrderStatusResult{}
		ch, ok := c.Get(TCustomer, CustomerKey(whID, dID, cID))
		if !ok {
			return fmt.Errorf("%w: customer %d/%d/%d", errRowMissing, whID, dID, cID)
		}
		res.Balance = cn.row(ch)[0]
		loh, ok := c.Get(TCustOrder, CustomerKey(whID, dID, cID))
		if !ok {
			return nil // no order yet
		}
		oid := cn.row(loh)[0]
		res.LastOID = oid
		oh, ok := c.Get(TOrder, OrderKey(whID, dID, oid))
		if !ok {
			return fmt.Errorf("%w: order %d/%d/%d", errRowMissing, whID, dID, oid)
		}
		olCnt := cn.row(oh)[1]
		for ol := uint64(0); ol < olCnt; ol++ {
			if _, ok := c.Get(TOrderLine, OrderLineKey(whID, dID, oid, ol)); !ok {
				return fmt.Errorf("%w: order line %d/%d/%d/%d", errRowMissing, whID, dID, oid, ol)
			}
			res.Lines++
		}
		return nil
	})
	return res, err
}

// StockLevel executes the read-only TPC-C stockLevel transaction: over the
// district's most recent orders (up to the standard 20), count distinct
// items whose stock quantity is below threshold.
func StockLevel(cn *Conn, whID, dID, threshold uint64) (int, error) {
	low := 0
	err := cn.Run(func(c Ctx) error {
		low = 0
		dh, ok := c.Get(TDistrict, DistrictKey(whID, dID))
		if !ok {
			return fmt.Errorf("%w: district %d/%d", errRowMissing, whID, dID)
		}
		next := cn.row(dh)[2]
		first := uint64(1)
		if next > 21 {
			first = next - 20
		}
		seen := make(map[uint64]bool)
		for oid := first; oid < next; oid++ {
			oh, ok := c.Get(TOrder, OrderKey(whID, dID, oid))
			if !ok {
				return fmt.Errorf("%w: order %d/%d/%d", errRowMissing, whID, dID, oid)
			}
			olCnt := cn.row(oh)[1]
			for ol := uint64(0); ol < olCnt; ol++ {
				lh, ok := c.Get(TOrderLine, OrderLineKey(whID, dID, oid, ol))
				if !ok {
					return fmt.Errorf("%w: order line %d/%d/%d/%d", errRowMissing, whID, dID, oid, ol)
				}
				item := cn.row(lh)[0]
				if seen[item] {
					continue
				}
				seen[item] = true
				sh, ok := c.Get(TStock, StockKey(whID, item))
				if !ok {
					return fmt.Errorf("%w: stock %d/%d", errRowMissing, whID, item)
				}
				if cn.row(sh)[0] < threshold {
					low++
				}
			}
		}
		return nil
	})
	return low, err
}

// TxKind identifies one of the five TPC-C transaction types.
type TxKind int

// The five TPC-C transaction kinds, in mix order.
const (
	TxNewOrder TxKind = iota
	TxPayment
	TxDelivery
	TxOrderStatus
	TxStockLevel
	NumTxKinds
)

var txKindNames = [NumTxKinds]string{
	"newOrder", "payment", "delivery", "orderStatus", "stockLevel",
}

// String returns the transaction's TPC-C name.
func (k TxKind) String() string {
	if k < 0 || k >= NumTxKinds {
		return "unknown"
	}
	return txKindNames[k]
}

// MixWeights is the relative frequency of each transaction kind.
type MixWeights [NumTxKinds]int

// PaperMix is the paper's Section 6.1 mix: newOrder and payment 1:1,
// following the DBx1000 methodology.
func PaperMix() MixWeights { return MixWeights{50, 50, 0, 0, 0} }

// FullMix is the standard TPC-C mix over all five transactions.
func FullMix() MixWeights { return MixWeights{45, 43, 4, 4, 4} }

// Driver generates a TPC-C transaction mix on one worker goroutine.
type Driver struct {
	sc    Scale
	rng   *rand.Rand
	cn    *Conn
	mix   MixWeights
	total int
}

// NewDriver creates a per-goroutine driver running mix on its own Conn.
func NewDriver(db *DB, sc Scale, seed int64, mix MixWeights) *Driver {
	total := 0
	for _, w := range mix {
		if w < 0 {
			panic("tpcc: negative mix weight")
		}
		total += w
	}
	if total == 0 {
		panic("tpcc: empty mix")
	}
	return &Driver{sc: sc, rng: rand.New(rand.NewSource(seed)), cn: db.Conn(), mix: mix, total: total}
}

// Worker exposes the driver's worker, e.g. for StatsWorker assertions.
func (d *Driver) Worker() Worker { return d.cn.Worker }

func (d *Driver) pick() TxKind {
	n := d.rng.Intn(d.total)
	for k, w := range d.mix {
		if n < w {
			return TxKind(k)
		}
		n -= w
	}
	panic("unreachable")
}

// Step runs one transaction of the mix and reports which kind ran.
func (d *Driver) Step() (TxKind, error) {
	kind := d.pick()
	whID := uint64(d.rng.Intn(d.sc.Warehouses) + 1)
	dID := uint64(d.rng.Intn(d.sc.Districts) + 1)
	cID := uint64(d.rng.Intn(d.sc.Customers) + 1)
	switch kind {
	case TxNewOrder:
		n := d.rng.Intn(11) + 5 // 5..15 lines per TPC-C
		items := make([]OrderItem, n)
		seen := map[uint64]bool{}
		for i := range items {
			it := uint64(d.rng.Intn(d.sc.Items) + 1)
			for seen[it] {
				it = uint64(d.rng.Intn(d.sc.Items) + 1)
			}
			seen[it] = true
			sw := whID
			if d.sc.Warehouses > 1 && d.rng.Intn(100) == 0 { // 1% remote
				for {
					sw = uint64(d.rng.Intn(d.sc.Warehouses) + 1)
					if sw != whID {
						break
					}
				}
			}
			items[i] = OrderItem{Item: it, SupplyW: sw, Qty: uint64(d.rng.Intn(10) + 1)}
		}
		return TxNewOrder, NewOrder(d.cn, whID, dID, cID, items)
	case TxPayment:
		amount := uint64(d.rng.Intn(500000) + 100)
		return TxPayment, Payment(d.cn, whID, dID, cID, amount)
	case TxDelivery:
		carrier := uint64(d.rng.Intn(10) + 1)
		_, err := Delivery(d.cn, d.sc.Districts, whID, carrier)
		return TxDelivery, err
	case TxOrderStatus:
		_, err := OrderStatus(d.cn, whID, dID, cID)
		return TxOrderStatus, err
	default:
		threshold := uint64(d.rng.Intn(11) + 10) // 10..20 per TPC-C
		_, err := StockLevel(d.cn, whID, dID, threshold)
		return TxStockLevel, err
	}
}
