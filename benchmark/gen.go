package main

import (
	"math"

	"medley/internal/kv"
)

// This file is the benchmark's own op-stream generator: everything the
// program under test sees is a []kv.Op produced here from -seed alone.
// It deliberately does not reuse harness.TxGen (see README: pinned
// signatures), so a harness rewrite cannot change the measured inputs.

// keySpace describes the key layout every workload shares. Keys are
// [0, 1<<bits). Accounts are the even keys below 1<<(acctBits+1): there
// are 1<<acctBits of them and only transfers (paired OpAdds) ever write
// them, so their sum is conserved. Every other key is only ever put with
// val == key or deleted, exactly like the preload (every even key,
// key == value), so a successful get of a non-account key must return the
// key itself.
type keySpace struct {
	bits     uint
	acctBits uint
}

// fullKeys is the key space every declared metric is measured on: the
// paper's microbenchmark, 2^20 keys of which 2^19 are preloaded (tens of MB
// of nodes, far larger than L2, so lookups miss cache) and 2^16 accounts.
// smokeKeys is -smoke's: small enough that every workload and ten ladder
// rungs set up in a blink. It checks the plumbing and measures nothing.
var (
	fullKeys  = keySpace{bits: 20, acctBits: 16}
	smokeKeys = keySpace{bits: 12, acctBits: 8}
)

func (ks keySpace) keys() uint64     { return 1 << ks.bits }
func (ks keySpace) accounts() uint64 { return 1 << ks.acctBits }

func (ks keySpace) isAccount(k uint64) bool {
	return k&1 == 0 && k < 2<<ks.acctBits
}

// account maps an account index to its key.
func (ks keySpace) account(i uint64) uint64 { return i << 1 }

// probeKey is the replication prober's private key: outside the key
// space, so no generated op touches it and no val == key check covers it.
func (ks keySpace) probeKey() uint64 { return ks.keys() }

// preloadKeys lists the preloaded keys: every even key, so exactly half
// the key space, including every account.
func (ks keySpace) preloadKeys() []uint64 {
	out := make([]uint64, 0, ks.keys()/2)
	for k := uint64(0); k < ks.keys(); k += 2 {
		out = append(out, k)
	}
	return out
}

// rng is splitmix64: one add and three xor-shift-multiplies per draw, so
// generation stays a few ns per op against the ≥100 ns the op costs.
type rng struct{ s uint64 }

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// newRNG derives an independent stream for (seed, stream id).
func newRNG(seed, stream uint64) rng {
	return rng{s: mix64(seed) ^ mix64(stream*0xd1342543de82ef95+1)}
}

// zipf draws ranks in [1, n] with P(k) ∝ k^-s by rejection-inversion
// (Hörmann & Derflinger 1996): O(1) expected time, no tables — a CDF table
// for 2^20 keys would be 8 MB of benchmark-owned heap inside the number
// heap_peak_mb reports for the store.
type zipf struct {
	s          float64
	n          float64
	hX1, hN    float64
	acceptance float64
}

func newZipf(s float64, n uint64) zipf {
	z := zipf{s: s, n: float64(n)}
	z.hX1 = z.hIntegral(1.5) - 1
	z.hN = z.hIntegral(z.n + 0.5)
	z.acceptance = 2 - z.hIntegralInv(z.hIntegral(2.5)-z.h(2))
	return z
}

func (z *zipf) h(x float64) float64 { return math.Exp(-z.s * math.Log(x)) }

// hIntegral is the antiderivative of h, written so it stays accurate as
// s → 1.
func (z *zipf) hIntegral(x float64) float64 {
	lx := math.Log(x)
	return expm1Over((1-z.s)*lx) * lx
}

func (z *zipf) hIntegralInv(x float64) float64 {
	t := x * (1 - z.s)
	if t < -1 {
		t = -1 // rounding can push t below the pole of log1p
	}
	return math.Exp(log1pOver(t) * x)
}

func expm1Over(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Expm1(x) / x
	}
	return 1 + x*0.5*(1+x/3*(1+x*0.25))
}

func log1pOver(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Log1p(x) / x
	}
	return 1 - x*(0.5-x*(1.0/3-x*0.25))
}

func (z *zipf) rank(r *rng) uint64 {
	for {
		u := z.hN + r.float()*(z.hX1-z.hN)
		x := z.hIntegralInv(u)
		k := math.Floor(x + 0.5)
		if k < 1 {
			k = 1
		} else if k > z.n {
			k = z.n
		}
		if k-x <= z.acceptance || u >= z.hIntegral(k+0.5)-z.h(k) {
			return uint64(k)
		}
	}
}

// zipfTheta is the skew of every skewed draw in the benchmark.
const zipfTheta = 1.2

// scatter spreads ranks over [0, 1<<bits) with an odd multiplier (a
// bijection mod 2^bits), so the hottest ranks are not neighbouring keys.
func scatter(rank uint64, bits uint) uint64 {
	return ((rank - 1) * 0x9e3779b1) & (1<<bits - 1)
}

// stream kinds: the three op streams the four workloads draw from.
const (
	streamLibRead    = "lib-read"    // paper 18:1:1 get:put:delete, 1–10 ops, uniform
	streamLibContend = "lib-contend" // 50% Zipf transfers, 50% write-only 1–10 put/delete
	streamService    = "service-mix" // 80% 1–4 ops 90/10 get/put, 20% Zipf transfers
)

// generator emits one transaction at a time into a caller-owned buffer.
type generator struct {
	ks      keySpace
	kind    string
	r       rng
	acctZ   zipf
	keyZ    zipf
	keyMask uint64
}

func newGenerator(kind string, ks keySpace, seed, client uint64) *generator {
	var id uint64
	switch kind {
	case streamLibRead:
		id = 1
	case streamLibContend:
		id = 2
	case streamService:
		id = 3
	default:
		panic("benchmark: unknown stream " + kind)
	}
	return &generator{
		ks:      ks,
		kind:    kind,
		r:       newRNG(seed, id<<32|client),
		acctZ:   newZipf(zipfTheta, ks.accounts()),
		keyZ:    newZipf(zipfTheta, ks.keys()),
		keyMask: ks.keys() - 1,
	}
}

// nonAccount draws a uniform key and steps it off the account set (an
// account's odd neighbour is never an account).
func (g *generator) nonAccount() uint64 {
	k := g.r.next() & g.keyMask
	if g.ks.isAccount(k) {
		k |= 1
	}
	return k
}

func (g *generator) transfer(buf []kv.Op) []kv.Op {
	from := scatter(g.acctZ.rank(&g.r), g.ks.acctBits)
	to := scatter(g.acctZ.rank(&g.r), g.ks.acctBits)
	if to == from {
		to = (to + 1) & (g.ks.accounts() - 1)
	}
	x := 1 + g.r.next()%100
	return append(buf,
		kv.Op{Kind: kv.OpAdd, Key: g.ks.account(from), Val: -x},
		kv.Op{Kind: kv.OpAdd, Key: g.ks.account(to), Val: x})
}

// next appends one transaction's ops to buf[:0] and returns it.
func (g *generator) next(buf []kv.Op) []kv.Op {
	buf = buf[:0]
	switch g.kind {
	case streamLibRead:
		// lib-read has no accounts: every key is a val == key key.
		n := 1 + int(g.r.next()%10)
		for i := 0; i < n; i++ {
			v := g.r.next()
			k := v & g.keyMask
			switch (v >> 32) % 20 {
			case 0:
				buf = append(buf, kv.Op{Kind: kv.OpPut, Key: k, Val: k})
			case 1:
				buf = append(buf, kv.Op{Kind: kv.OpDelete, Key: k})
			default:
				buf = append(buf, kv.Op{Kind: kv.OpGet, Key: k})
			}
		}
	case streamLibContend:
		if g.r.next()&1 == 0 {
			return g.transfer(buf)
		}
		n := 1 + int(g.r.next()%10)
		for i := 0; i < n; i++ {
			k := g.nonAccount()
			if g.r.next()&1 == 0 {
				buf = append(buf, kv.Op{Kind: kv.OpPut, Key: k, Val: k})
			} else {
				buf = append(buf, kv.Op{Kind: kv.OpDelete, Key: k})
			}
		}
	case streamService:
		if g.r.next()%5 == 0 {
			return g.transfer(buf)
		}
		n := 1 + int(g.r.next()%4)
		for i := 0; i < n; i++ {
			if g.r.next()%10 == 0 {
				k := g.nonAccount()
				buf = append(buf, kv.Op{Kind: kv.OpPut, Key: k, Val: k})
			} else {
				buf = append(buf, kv.Op{Kind: kv.OpGet, Key: scatter(g.keyZ.rank(&g.r), g.ks.bits)})
			}
		}
	}
	return buf
}
