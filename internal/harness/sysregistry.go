package harness

import (
	"medley/internal/lftt"
	"medley/internal/store"
	"medley/internal/tdsl"
)

// This file is the registry of benchmark systems: everything the stack
// itself can build (store.Systems: Medley, txMontage, the plain and txoff
// baselines) plus the competitor STMs it is compared with. Specs are
// parsed by the one parser of the grammar, store.Registry.Parse:
//
//	base{-nofast|-persistoff}[@N]

// ponefileRegionWords sizes POneFile's region: home words for the object
// graph plus the per-key durable directory, with room for the post-crash
// rebuild to allocate a second generation of words.
func ponefileRegionWords(o SystemOpts) int { return max(1<<20, int(o.KeyRange)<<5) }

type sysEntry = store.Entry[System]

func onefileEntry(skiplist, persistent bool) sysEntry {
	return sysEntry{Ctor: func(o SystemOpts, _ store.Spec) System {
		return newOneFile(o, skiplist, persistent)
	}}
}

// systemRegistry names every system under test exactly once: the
// competitors here, the stack's own bases lifted from store.Systems.
var systemRegistry = store.Registry[System]{
	"onefile-hash":  onefileEntry(false, false),
	"onefile-skip":  onefileEntry(true, false),
	"ponefile-hash": onefileEntry(false, true),
	"ponefile-skip": onefileEntry(true, true),
	"tdsl":          {Ctor: func(SystemOpts, store.Spec) System { return &TDSLSystem{sl: tdsl.New()} }},
	"lftt":          {Ctor: func(SystemOpts, store.Spec) System { return &LFTTSystem{sl: lftt.New()} }},
}

func init() {
	for base, e := range store.Systems {
		systemRegistry[base] = sysEntry{Shardable: e.Shardable, Axes: e.Axes,
			Ctor: func(o SystemOpts, s store.Spec) System { return e.Ctor(o, s) }}
	}
}

// ValidateSystemSpec checks a system spec without constructing the system
// (construction allocates paper-scale tables and regions).
func ValidateSystemSpec(spec string) error {
	_, _, err := systemRegistry.Parse(spec)
	return err
}

// NewSystem resolves a system spec into a system.
func NewSystem(spec string, o SystemOpts) (System, error) { return systemRegistry.New(spec, o) }

// SystemUsage lists each base with the suffixes it accepts, one grammar
// line per base, for the CLIs' list output.
func SystemUsage() []string { return systemRegistry.Usage() }
