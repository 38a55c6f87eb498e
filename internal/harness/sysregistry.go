package harness

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// This file is the registry of benchmark systems and the one parser of
// the system spec every CLI, scenario default and budget file names a
// configuration by:
//
//	base{-nopool|-nofast|-persistoff}[@N]
//
// base is a registered name. A suffix switches one ablation axis off
// (recycling arenas, commit fast paths, txMontage persistence) and is an
// error on a base without that axis or when repeated; @N hash-partitions a
// shardable base over N stores. The spec is the lower-cased reported name:
// "medley-hash-nopool@8" reports as "Medley-hash-nopool-8shard".

// SystemOpts carries the shared sizing knobs every constructor may read.
// Zero values mean "benchmark default".
type SystemOpts struct {
	Buckets int // hash structures (default 1<<20)
	// KeyRange sizes the simulated NVM regions: region size never changes
	// measured latencies, only footprint, so smoke runs with small key
	// spaces stop allocating paper-scale half-gigabyte regions.
	KeyRange uint64

	WriteBackLatency time.Duration // injected NVM write-back, per line
	FenceLatency     time.Duration // injected NVM fence
	StoreLatency     time.Duration // injected NVM store, per payload word
	AdvanceEvery     time.Duration // txMontage epoch length
}

func (o SystemOpts) buckets() int {
	if o.Buckets <= 0 {
		return 1 << 20
	}
	return o.Buckets
}

// montageRegionWords sizes the simulated NVM with the key space.
func (o SystemOpts) montageRegionWords() int {
	words := 1 << 22
	if need := int(o.KeyRange) << 6; need > words {
		words = need
	}
	return words
}

// ponefileRegionWords sizes POneFile's region: home words for the object
// graph plus the per-key durable directory, with room for the post-crash
// rebuild to allocate a second generation of words.
func (o SystemOpts) ponefileRegionWords() int {
	words := 1 << 20
	if need := int(o.KeyRange) << 5; need > words {
		words = need
	}
	return words
}

// specSuffixes are the ablation suffixes of the grammar, in the order
// reported names carry them.
var specSuffixes = []string{"nopool", "nofast", "persistoff"}

// sysSpec is a parsed system spec.
type sysSpec struct {
	base   string
	shards int             // @N, 1 when absent
	off    map[string]bool // suffixes present, keyed as in specSuffixes
}

type sysEntry struct {
	ctor func(SystemOpts, sysSpec) System
	// shardable systems honor @N; the rest are single-instance (their
	// transactions live in their own STMs, so shards could not join one
	// transaction — the gap documented in internal/kv).
	shardable bool
	axes      []string // the suffixes this base accepts
}

func medleyEntry(structure string) sysEntry {
	return sysEntry{shardable: true, axes: []string{"nopool", "nofast"}, ctor: func(o SystemOpts, s sysSpec) System {
		return newKVSystem("Medley-"+structure, structure, false, o.buckets(), s)
	}}
}

// montageEntry is txMontage: shardable (N PStores over one System + one
// TxManager); -persistoff is the Figure 10b payloads-on-NVM variant.
func montageEntry(skiplist bool) sysEntry {
	return sysEntry{shardable: true, axes: []string{"persistoff"}, ctor: func(o SystemOpts, s sysSpec) System {
		return NewMontage(MontageOpts{
			Skiplist: skiplist, Buckets: o.buckets(), Shards: s.shards,
			PersistOff:       s.off["persistoff"],
			RegionWords:      o.montageRegionWords(),
			WriteBackLatency: o.WriteBackLatency, FenceLatency: o.FenceLatency,
			StoreLatency: o.StoreLatency, AdvanceEvery: o.AdvanceEvery,
		})
	}}
}

func onefileEntry(skiplist, persistent bool) sysEntry {
	return sysEntry{ctor: func(o SystemOpts, _ sysSpec) System {
		of := OneFileOpts{Skiplist: skiplist, Buckets: o.buckets()}
		if persistent {
			of.Persistent, of.RegionWords = true, o.ponefileRegionWords()
			of.WriteBackLatency, of.FenceLatency = o.WriteBackLatency, o.FenceLatency
		}
		return NewOneFile(of)
	}}
}

// systemRegistry names every system under test exactly once.
var systemRegistry = map[string]sysEntry{
	"medley-hash":     medleyEntry("hash"),
	"medley-skip":     medleyEntry("skip"),
	"medley-bst":      medleyEntry("bst"),
	"medley-rotating": medleyEntry("rotating"),
	"txmontage-hash":  montageEntry(false),
	"txmontage-skip":  montageEntry(true),
	"onefile-hash":    onefileEntry(false, false),
	"onefile-skip":    onefileEntry(true, false),
	"ponefile-hash":   onefileEntry(false, true),
	"ponefile-skip":   onefileEntry(true, true),
	"tdsl":            {ctor: func(SystemOpts, sysSpec) System { return NewTDSL() }},
	"lftt":            {ctor: func(SystemOpts, sysSpec) System { return NewLFTT() }},
	// Fraser's untransformed skiplist ("Original" in Figure 10) and the
	// NBTC-transformed one with transactions off ("TxOff"): operations
	// execute directly, one generated group counted as a "transaction" for
	// latency comparability.
	"plain-skip": {ctor: func(_ SystemOpts, s sysSpec) System {
		return newKVSystem("Original-skip", "plain-skip", true, 0, s)
	}},
	"txoff-skip": {ctor: func(_ SystemOpts, s sysSpec) System {
		return newKVSystem("TxOff-skip", "skip", true, 0, s)
	}},
}

// parseSpec is the one parser of the grammar above. It strips "@N", then
// peels suffixes off the end until a registered base remains, and applies
// the two refusals: a suffix on a base without that axis, and "@N" on a
// single-instance system (a "sharded" competitor would silently lose
// cross-key atomicity).
func parseSpec(spec string) (sysSpec, sysEntry, error) {
	s := sysSpec{base: spec, shards: 1, off: map[string]bool{}}
	if at := strings.LastIndexByte(spec, '@'); at >= 0 {
		n, err := strconv.Atoi(spec[at+1:])
		if err != nil || n < 1 {
			return s, sysEntry{}, fmt.Errorf("bad shard suffix in system spec %q", spec)
		}
		s.base, s.shards = spec[:at], n
	}
	name := s.base
	e, ok := systemRegistry[s.base]
	for !ok {
		dash := strings.LastIndexByte(s.base, '-')
		suffix := s.base[dash+1:]
		if dash < 0 || !slices.Contains(specSuffixes, suffix) {
			return s, sysEntry{}, fmt.Errorf("unknown system %q (known: %s; suffixes: -%s)",
				name, strings.Join(SystemNames(), ", "), strings.Join(specSuffixes, ", -"))
		}
		if s.off[suffix] {
			return s, sysEntry{}, fmt.Errorf("system spec %q repeats -%s", spec, suffix)
		}
		s.off[suffix] = true
		s.base = s.base[:dash]
		e, ok = systemRegistry[s.base]
	}
	for _, suffix := range specSuffixes {
		if s.off[suffix] && !slices.Contains(e.axes, suffix) {
			return s, sysEntry{}, fmt.Errorf("system %q has no -%s variant", s.base, suffix)
		}
	}
	if s.shards > 1 && !e.shardable {
		return s, sysEntry{}, fmt.Errorf(
			"system %q cannot shard: its transactions live in its own STM, not the shared TxManager (see internal/kv)", s.base)
	}
	return s, e, nil
}

// ValidateSystemSpec checks a system spec without constructing the system
// (construction allocates paper-scale tables and regions).
func ValidateSystemSpec(spec string) error {
	_, _, err := parseSpec(spec)
	return err
}

// NewSystem resolves a system spec into a system.
func NewSystem(spec string, o SystemOpts) (System, error) {
	s, e, err := parseSpec(spec)
	if err != nil {
		return nil, err
	}
	return e.ctor(o, s), nil
}

// SystemNames lists the registered bases in stable order.
func SystemNames() []string {
	names := make([]string, 0, len(systemRegistry))
	for n := range systemRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SystemUsage lists each base with the suffixes it accepts, one grammar
// line per base, for the CLIs' list output.
func SystemUsage() []string {
	lines := SystemNames()
	for i, n := range lines {
		e := systemRegistry[n]
		if len(e.axes) > 0 {
			lines[i] += "{-" + strings.Join(e.axes, "|-") + "}"
		}
		if e.shardable {
			lines[i] += "[@N]"
		}
	}
	return lines
}
