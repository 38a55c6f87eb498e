package mhash

import (
	"sync"
	"sync/atomic"

	"medley/internal/core"
)

// chunkBits sizes a slab chunk: 1024 nodes, 24 KB for uint64 values, which
// the allocator serves from a size class of its own.
const (
	chunkBits = 10
	chunkLen  = 1 << chunkBits
)

// slab is a map's grow-only node storage: fixed-size chunks that never
// move, so node i stays at one address for the life of the map, found
// through a directory that only grows. Indexes come from the map's
// core.Slots, which calls grow before it hands out any index of a new
// segment; a reader reaches index i only through a link published after
// that, so the directory it loads covers i.
type slab[V any] struct {
	mu  sync.Mutex
	dir atomic.Pointer[[]*[chunkLen]node[V]]
}

// at is node i.
func (s *slab[V]) at(i uint32) *node[V] {
	return &(*s.dir.Load())[i>>chunkBits][i&(chunkLen-1)]
}

// grow makes every index below end addressable.
func (s *slab[V]) grow(end uint32) {
	s.mu.Lock()
	core.GrowChunks(&s.dir, int((end+chunkLen-1)>>chunkBits))
	s.mu.Unlock()
}
