package store

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"time"

	"medley/internal/kv"
)

// This file is the one parser of the system spec every CLI, scenario
// default and budget file names a configuration by:
//
//	base{-nofast|-persistoff}[@N]
//
// base is a registered name. A suffix switches one ablation axis off
// (commit fast paths, txMontage persistence) and is an
// error on a base without that axis or when repeated; @N hash-partitions a
// shardable base over N stores. The spec is the lower-cased reported name:
// "medley-hash-nofast@8" reports as "Medley-hash-nofast-8shard".
//
// The parser works over any Registry of bases. Systems, below, holds what
// this package can build and medleyd can serve; the harness parses the
// same grammar over a registry that adds the competitor STMs.

// Opts carries the shared sizing knobs every constructor may read. Zero
// values mean "benchmark default".
type Opts struct {
	Buckets int // hash structures (default 1<<20)
	// KeyRange sizes the simulated NVM regions: region size never changes
	// measured latencies, only footprint, so smoke runs with small key
	// spaces stop allocating paper-scale half-gigabyte regions.
	KeyRange uint64

	WriteBackLatency time.Duration // injected NVM write-back, per line
	FenceLatency     time.Duration // injected NVM fence
	StoreLatency     time.Duration // injected NVM store, per payload word
}

// MontageRegionWords sizes the simulated NVM with the key space.
func (o Opts) MontageRegionWords() int { return max(1<<22, int(o.KeyRange)<<6) }

// specSuffixes are the ablation suffixes of the grammar, in the order
// reported names carry them.
var specSuffixes = []string{"nofast", "persistoff"}

// Spec is a parsed system spec.
type Spec struct {
	Base   string
	Shards int             // @N, 1 when absent
	Off    map[string]bool // suffixes present, keyed as in specSuffixes
}

// Registry names every base of one grammar exactly once; S is what its
// constructors build.
type Registry[S any] map[string]Entry[S]

// Entry registers one base.
type Entry[S any] struct {
	Ctor func(Opts, Spec) S
	// Shardable systems honor @N; the rest are single-instance (their
	// transactions live in their own STMs, so shards could not join one
	// transaction — the gap documented in internal/kv).
	Shardable bool
	Axes      []string // the suffixes this base accepts
}

// Store is what every base of Systems builds: exactly the methods the
// service needs of its backend, a superset of the harness's system under
// test.
type Store interface {
	Name() string
	Preload(keys []uint64)
	Start() (stop func())
	NewExecutor() kv.Executor
	SupportsChangeFeed() bool
}

func medleyEntry(structure string) Entry[Store] {
	return Entry[Store]{Shardable: true, Axes: []string{"nofast"}, Ctor: func(o Opts, s Spec) Store {
		return newSystem("Medley-"+structure, structure, false, o.Buckets, s)
	}}
}

// montageEntry is txMontage: shardable (N PStores over one System + one
// TxManager); -persistoff is the Figure 10b payloads-on-NVM variant.
func montageEntry(skiplist bool) Entry[Store] {
	return Entry[Store]{Shardable: true, Axes: []string{"persistoff"}, Ctor: func(o Opts, s Spec) Store {
		return newMontage(o, s, skiplist)
	}}
}

// Systems is the registry of this package's configurations.
var Systems = Registry[Store]{
	"medley-hash":     medleyEntry("hash"),
	"medley-skip":     medleyEntry("skip"),
	"medley-bst":      medleyEntry("bst"),
	"medley-rotating": medleyEntry("rotating"),
	"txmontage-hash":  montageEntry(false),
	"txmontage-skip":  montageEntry(true),
	// Fraser's untransformed skiplist ("Original" in Figure 10) and the
	// NBTC-transformed one with transactions off ("TxOff"): operations
	// execute directly, one generated group counted as a "transaction" for
	// latency comparability.
	"plain-skip": {Ctor: func(_ Opts, s Spec) Store {
		return newSystem("Original-skip", "plain-skip", true, 0, s)
	}},
	"txoff-skip": {Ctor: func(_ Opts, s Spec) Store {
		return newSystem("TxOff-skip", "skip", true, 0, s)
	}},
}

// Parse is the one parser of the grammar above. It strips "@N", then
// peels suffixes off the end until a registered base remains, and
// applies the two refusals: a suffix on a base without that axis, and "@N"
// on a single-instance system (a "sharded" competitor would silently lose
// cross-key atomicity).
func (reg Registry[S]) Parse(spec string) (Spec, Entry[S], error) {
	s := Spec{Base: spec, Shards: 1, Off: map[string]bool{}}
	if at := strings.LastIndexByte(spec, '@'); at >= 0 {
		n, err := strconv.Atoi(spec[at+1:])
		if err != nil || n < 1 {
			return s, Entry[S]{}, fmt.Errorf("bad shard suffix in system spec %q", spec)
		}
		s.Base, s.Shards = spec[:at], n
	}
	name := s.Base
	e, ok := reg[s.Base]
	for !ok {
		dash := strings.LastIndexByte(s.Base, '-')
		suffix := s.Base[dash+1:]
		if dash < 0 || !slices.Contains(specSuffixes, suffix) {
			return s, Entry[S]{}, fmt.Errorf("unknown system %q (known: %s; suffixes: -%s)",
				name, strings.Join(reg.Names(), ", "), strings.Join(specSuffixes, ", -"))
		}
		if s.Off[suffix] {
			return s, Entry[S]{}, fmt.Errorf("system spec %q repeats -%s", spec, suffix)
		}
		s.Off[suffix] = true
		s.Base = s.Base[:dash]
		e, ok = reg[s.Base]
	}
	for _, suffix := range specSuffixes {
		if s.Off[suffix] && !slices.Contains(e.Axes, suffix) {
			return s, Entry[S]{}, fmt.Errorf("system %q has no -%s variant", s.Base, suffix)
		}
	}
	if s.Shards > 1 && !e.Shardable {
		return s, Entry[S]{}, fmt.Errorf(
			"system %q cannot shard: its transactions live in its own STM, not the shared TxManager (see internal/kv)", s.Base)
	}
	return s, e, nil
}

// New resolves a system spec into a system.
func (reg Registry[S]) New(spec string, o Opts) (sys S, err error) {
	s, e, err := reg.Parse(spec)
	if err != nil {
		return sys, err
	}
	return e.Ctor(o, s), nil
}

// New resolves a system spec into a store: one of Systems.
func New(spec string, o Opts) (Store, error) { return Systems.New(spec, o) }

// Names lists the registered bases in stable order.
func (reg Registry[S]) Names() []string { return slices.Sorted(maps.Keys(reg)) }

// Usage lists each base with the suffixes it accepts, one grammar line
// per base, for the CLIs' list output.
func (reg Registry[S]) Usage() []string {
	lines := reg.Names()
	for i, n := range lines {
		e := reg[n]
		if len(e.Axes) > 0 {
			lines[i] += "{-" + strings.Join(e.Axes, "|-") + "}"
		}
		if e.Shardable {
			lines[i] += "[@N]"
		}
	}
	return lines
}
