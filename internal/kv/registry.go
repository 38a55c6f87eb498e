package kv

import (
	"fmt"
	"sort"
	"sync"

	"medley/internal/core"
	"medley/internal/structures/fraserskip"
	"medley/internal/structures/mhash"
	"medley/internal/structures/nmbst"
	"medley/internal/structures/plainskip"
	"medley/internal/structures/rotatingskip"
)

// Options parameterizes a registry constructor. Constructors read only
// the fields they need; zero values get sensible defaults.
type Options struct {
	// Mgr is the transaction manager transactional structures attach to.
	// Required by every NBTC-transformed structure; ignored by plain-skip.
	Mgr *core.TxManager
	// Buckets sizes hash-based structures (default 1<<20, the paper's 1M).
	Buckets int
	// ShardBits is how many top bits of the key hash a partitioner above
	// this structure has already spent choosing it. NewShardedNamed sets
	// it; hash-based structures take their bucket bits below it.
	ShardBits uint
}

func (o Options) buckets() int {
	if o.Buckets <= 0 {
		return 1 << 20
	}
	return o.Buckets
}

// Constructor builds one TxMap implementation.
type Constructor func(Options) (TxMap, error)

// composable records, per registered name, whether the implementation
// threads the *core.Tx into a shared TxManager (and therefore composes
// into cross-shard transactions).
var (
	regMu      sync.RWMutex
	registry   = map[string]Constructor{}
	composable = map[string]bool{}
)

// Register adds a named TxMap constructor. txComposable marks
// implementations whose operations compose under the Options.Mgr
// TxManager (the NBTC-transformed structures, which therefore require
// Options.Mgr); structures that ignore the Tx register false.
// Registering a duplicate name panics: names are API.
func Register(name string, txComposable bool, c Constructor) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("kv: duplicate registration of " + name)
	}
	registry[name] = c
	composable[name] = txComposable
}

// New builds the named implementation.
func New(name string, o Options) (TxMap, error) {
	regMu.RLock()
	c, ok := registry[name]
	needMgr := composable[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("kv: unknown structure %q (known: %v)", name, Names())
	}
	if needMgr && o.Mgr == nil {
		return nil, fmt.Errorf("kv: structure %q requires Options.Mgr", name)
	}
	return c(o)
}

// Composable reports whether the named implementation joins cross-shard
// transactions under a shared TxManager. Unknown names report false.
func Composable(name string) bool {
	regMu.RLock()
	defer regMu.RUnlock()
	return composable[name]
}

// Names lists registered implementations in stable order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// The transformed structures satisfy TxMap natively with V = uint64 —
// registering them is the whole adapter.
func init() {
	Register("hash", true, func(o Options) (TxMap, error) {
		return mhash.NewMapShard[uint64](o.Mgr, o.buckets(), o.ShardBits), nil
	})
	Register("skip", true, func(o Options) (TxMap, error) {
		return fraserskip.New[uint64](o.Mgr), nil
	})
	Register("bst", true, func(o Options) (TxMap, error) {
		return nmbst.New[uint64](o.Mgr), nil
	})
	Register("rotating", true, func(o Options) (TxMap, error) {
		return rotatingskip.New[uint64](o.Mgr), nil
	})
	Register("plain-skip", false, func(Options) (TxMap, error) {
		return plainMap{plainskip.New[uint64]()}, nil
	})
}

// plainMap adapts the untransformed skiplist: the Tx is ignored entirely
// (the structure has no transactional instrumentation to elide).
type plainMap struct{ l *plainskip.List[uint64] }

func (p plainMap) Get(_ *core.Tx, key uint64) (uint64, bool) { return p.l.Get(key) }
func (p plainMap) Put(_ *core.Tx, key, val uint64) (uint64, bool) {
	return p.l.Put(key, val)
}
func (p plainMap) Insert(_ *core.Tx, key, val uint64) bool { return p.l.Insert(key, val) }
func (p plainMap) Remove(_ *core.Tx, key uint64) (uint64, bool) {
	return p.l.Remove(key)
}
func (p plainMap) Range(fn func(key, val uint64) bool) { p.l.Range(fn) }
func (p plainMap) Len() int                            { return p.l.Len() }
