package tpcc

import "fmt"

// Violation classes reported by Check, mirroring the TPC-C consistency
// conditions (clause 3.3.2) the harness verifies:
//
//	money:    W_YTD − init == Σ (D_YTD − init) over the warehouse's districts
//	          (conditions 1–2: payments apply atomically to both levels).
//	orders:   every allocated order id has an order row, exactly olCnt order
//	          lines, and a new-order entry iff it is not yet delivered
//	          (conditions 3–7: id sequences and row-count identities).
//	delivery: customer balance == Σ delivered order amounts − ytdPayment
//	          (mod 2^64), delivery counts match delivered orders, and
//	          carrier ids are set exactly on delivered orders
//	          (conditions 8–12 restricted to the fields this schema keeps).
const (
	ClassMoney    = "money"
	ClassOrders   = "orders"
	ClassDelivery = "delivery"
)

// Violation is one failed consistency condition.
type Violation struct {
	Class  string
	Detail string
}

func (v Violation) String() string { return v.Class + ": " + v.Detail }

// Check verifies the TPC-C consistency conditions over the whole database.
// It runs one read-dominant transaction per warehouse, so it is exact at any
// quiescent point (harness phase barriers) and still safe, if abort-prone,
// under concurrent load. The returned error reports a broken execution
// (e.g. an unreachable row), not a failed condition.
func Check(db *DB, sc Scale) ([]Violation, error) {
	cn := db.Conn()
	var out []Violation
	for wh := 1; wh <= sc.Warehouses; wh++ {
		vs, err := checkWarehouse(cn, sc, uint64(wh))
		if err != nil {
			return nil, err
		}
		out = append(out, vs...)
	}
	return out, nil
}

// custAgg accumulates delivered-order effects per customer key.
type custAgg struct {
	sum uint64
	cnt uint64
}

func checkWarehouse(cn *Conn, sc Scale, whu uint64) ([]Violation, error) {
	var vs []Violation
	err := cn.Run(func(c Ctx) error {
		vs = vs[:0] // retry-safe: restart collection on concurrency aborts
		delivered := make(map[uint64]custAgg)

		whh, ok := c.Get(TWarehouse, WarehouseKey(whu))
		if !ok {
			return fmt.Errorf("%w: warehouse %d", errRowMissing, whu)
		}
		wytd := cn.row(whh)[0] - InitWarehouseYTD
		var dsum uint64
		for d := 1; d <= sc.Districts; d++ {
			du := uint64(d)
			dh, ok := c.Get(TDistrict, DistrictKey(whu, du))
			if !ok {
				return fmt.Errorf("%w: district %d/%d", errRowMissing, whu, du)
			}
			drow := cn.row(dh)
			dsum += drow[0] - InitDistrictYTD
			next, dnext := drow[2], drow[3]
			if dnext > next {
				vs = append(vs, Violation{ClassDelivery, fmt.Sprintf(
					"district %d/%d delivery cursor %d beyond nextOID %d", whu, du, dnext, next)})
			}
			for oid := uint64(1); oid < next; oid++ {
				oh, ok := c.Get(TOrder, OrderKey(whu, du, oid))
				if !ok {
					vs = append(vs, Violation{ClassOrders, fmt.Sprintf(
						"order %d/%d/%d missing", whu, du, oid)})
					continue
				}
				orow := cn.row(oh)
				olCnt := orow[1]
				var total uint64
				for ol := uint64(0); ol < olCnt; ol++ {
					lh, ok := c.Get(TOrderLine, OrderLineKey(whu, du, oid, ol))
					if !ok {
						vs = append(vs, Violation{ClassOrders, fmt.Sprintf(
							"order line %d/%d/%d/%d missing", whu, du, oid, ol)})
						continue
					}
					total += cn.row(lh)[2]
				}
				if _, ok := c.Get(TOrderLine, OrderLineKey(whu, du, oid, olCnt)); ok {
					vs = append(vs, Violation{ClassOrders, fmt.Sprintf(
						"order %d/%d/%d has surplus line %d", whu, du, oid, olCnt)})
				}
				_, hasNO := c.Get(TNewOrder, OrderKey(whu, du, oid))
				isDelivered := oid < dnext
				if hasNO == isDelivered {
					vs = append(vs, Violation{ClassOrders, fmt.Sprintf(
						"order %d/%d/%d delivered=%v but new-order present=%v",
						whu, du, oid, isDelivered, hasNO)})
				}
				if isDelivered {
					if orow[3] == 0 {
						vs = append(vs, Violation{ClassDelivery, fmt.Sprintf(
							"delivered order %d/%d/%d has no carrier", whu, du, oid)})
					}
					ck := CustomerKey(whu, du, orow[0])
					agg := delivered[ck]
					agg.sum += total
					agg.cnt++
					delivered[ck] = agg
				} else if orow[3] != 0 {
					vs = append(vs, Violation{ClassDelivery, fmt.Sprintf(
						"undelivered order %d/%d/%d has carrier %d", whu, du, oid, orow[3])})
				}
			}
		}
		if wytd != dsum {
			vs = append(vs, Violation{ClassMoney, fmt.Sprintf(
				"warehouse %d ytd delta %d != district sum %d", whu, wytd, dsum)})
		}

		for d := 1; d <= sc.Districts; d++ {
			du := uint64(d)
			for cst := 1; cst <= sc.Customers; cst++ {
				ck := CustomerKey(whu, du, uint64(cst))
				ch, ok := c.Get(TCustomer, ck)
				if !ok {
					return fmt.Errorf("%w: customer %d/%d/%d", errRowMissing, whu, du, cst)
				}
				crow := cn.row(ch)
				agg := delivered[ck]
				// Unsigned arithmetic wraps; the identity holds mod 2^64.
				if crow[0] != agg.sum-crow[1] {
					vs = append(vs, Violation{ClassDelivery, fmt.Sprintf(
						"customer %d/%d/%d balance %d != delivered %d - payments %d",
						whu, du, cst, crow[0], agg.sum, crow[1])})
				}
				if crow[3] != agg.cnt {
					vs = append(vs, Violation{ClassDelivery, fmt.Sprintf(
						"customer %d/%d/%d deliveryCnt %d != delivered orders %d",
						whu, du, cst, crow[3], agg.cnt)})
				}
			}
		}
		return nil
	})
	return vs, err
}
