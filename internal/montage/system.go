// Package montage reimplements nbMontage (Cai et al., DISC 2021), the
// periodic-persistence system the paper grafts Medley onto to obtain
// txMontage, and the txMontage integration itself.
//
// Design, following Section 4 of the Medley paper:
//
//   - Wall-clock time is divided into epochs. Semantically significant data
//     ("payloads" — key/value pairs plus epoch tags) live in simulated NVM
//     (internal/pmem); indices (hash table, skiplist) stay in DRAM and are
//     rebuilt on recovery.
//   - Payload content is written during the operation, but the payload is
//     born (epoch-tagged) and scheduled for write-back only in post-commit
//     cleanup; an aborted transaction returns its unborn block to the
//     allocator and the persisted image never learns of it.
//   - The epoch advancer ends epoch e by (1) bumping the global epoch so no
//     further transaction can commit in e (every txMontage transaction
//     validates its begin-epoch through the MCNS read set), (2) waiting for
//     transactions already committed in e to finish their cleanups, (3)
//     writing back all epoch-≤e payload work, fencing, and (4) durably
//     recording e as persisted. A crash therefore recovers exactly the
//     state at the end of the last persisted epoch: buffered durable strict
//     serializability, with transactions of an unpersisted epoch lost as a
//     group.
//   - Freed blocks are reused only once their death epoch is persisted, so
//     recovery to any reachable horizon never sees a recycled block.
//
// The paper's claim that persistence comes "almost for free" corresponds
// here to the one extra read-set entry (the epoch check) per transaction.
package montage

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"medley/internal/core"
	"medley/internal/pmem"
)

// Block layout (words): birth | death | key | nData | data...
const (
	hdrBirth  = 0
	hdrDeath  = 1
	hdrKey    = 2
	hdrLen    = 3
	hdrWords  = 4
	epochWord = 0 // region word durably recording the last persisted epoch
	arenaBase = pmem.WordsPerLine
)

// classes are the payload block size classes, in words (header included).
var classes = []int{8, 16, 32, 64, 256}

// classShare is each class's share of the arena space, in sixteenths.
var classShare = []int{8, 3, 2, 2, 1}

// Config sizes the montage system.
type Config struct {
	// RegionWords is the simulated NVM size in 8-byte words.
	RegionWords int
	// WriteBackLatency, FenceLatency and StoreLatency are injected device
	// latencies (see pmem.Config).
	WriteBackLatency time.Duration
	FenceLatency     time.Duration
	StoreLatency     time.Duration
}

// DefaultConfig returns a 32 MiB region with no injected latency (tests);
// benchmarks override the latencies to model Optane.
func DefaultConfig() Config {
	return Config{RegionWords: 1 << 22}
}

type freeBlock struct {
	off  int
	safe uint64 // reusable once persistedEpoch >= safe
}

type arena struct {
	start, blockWords, nBlocks int

	mu   sync.Mutex
	bump int
	free []freeBlock
}

// System is one montage persistence domain: a region, an epoch clock, and
// the per-thread handles registered with it.
type System struct {
	Region *pmem.Region

	// epoch is the clock, a Word a transaction witnesses (Wrap). Its
	// payload is 32 bits: at the store's 20 ms advance it is exhausted
	// after about 2.7 years of one process's uptime (2^32 × 20 ms; the
	// simulated region does not outlive the process), and setEpoch
	// panics rather than wrap.
	epoch     core.Word
	persisted atomic.Uint64

	arenas []arena

	mu      sync.Mutex // handle registry
	handles []*Handle

	advMu    sync.Mutex   // serializes advancers
	advHs    []*Handle    // under advMu: the handles an advance waits for
	advFlush []flushRange // under advMu: what an advance writes back

	// Stats.
	payloadsBorn   atomic.Uint64
	payloadsKilled atomic.Uint64
	advances       atomic.Uint64
}

// NewSystem creates a montage domain over a fresh region. The epoch clock
// starts at 1; epoch 0 means "never persisted".
func NewSystem(cfg Config) *System {
	if cfg.RegionWords == 0 {
		cfg = DefaultConfig()
	}
	s := &System{
		Region: pmem.New(pmem.Config{
			Words:            cfg.RegionWords,
			WriteBackLatency: cfg.WriteBackLatency,
			FenceLatency:     cfg.FenceLatency,
			StoreLatency:     cfg.StoreLatency,
		}),
	}
	s.layoutArenas(cfg.RegionWords)
	s.epoch.Init(1)
	return s
}

func (s *System) layoutArenas(words int) {
	usable := words - arenaBase
	s.arenas = make([]arena, len(classes))
	off := arenaBase
	for i, cw := range classes {
		share := usable * classShare[i] / 16
		n := share / cw
		s.arenas[i] = arena{start: off, blockWords: cw, nBlocks: n}
		off += n * cw
	}
}

// Epoch returns the current epoch.
func (s *System) Epoch() uint64 { return uint64(s.epoch.Load()) }

// setEpoch moves the clock to e. Only the advancer and recovery write the
// clock, both under advMu, and transactions only load it, so the one CAS
// never loses a race.
func (s *System) setEpoch(e uint64) {
	if e > math.MaxUint32 {
		panic("montage: epoch clock exhausted")
	}
	s.epoch.CAS(s.epoch.Load(), uint32(e))
}

// PersistedEpoch returns the newest durably recorded epoch.
func (s *System) PersistedEpoch() uint64 { return s.persisted.Load() }

// alloc reserves a block able to hold nData data words. The block is not
// yet born: its persisted-visible birth word is 0 until post-commit cleanup
// stamps it.
func (s *System) alloc(nData int) (off, blockWords int) {
	need := hdrWords + nData
	for i := range s.arenas {
		a := &s.arenas[i]
		if a.blockWords < need {
			continue
		}
		a.mu.Lock()
		// Prefer recycling a block whose death is safely persisted.
		if n := len(a.free); n > 0 && a.free[0].safe <= s.persisted.Load() {
			blk := a.free[0]
			a.free = a.free[1:]
			a.mu.Unlock()
			s.Region.Store(blk.off+hdrBirth, 0)
			s.Region.Store(blk.off+hdrDeath, 0)
			return blk.off, a.blockWords
		}
		if a.bump < a.nBlocks {
			o := a.start + a.bump*a.blockWords
			a.bump++
			a.mu.Unlock()
			return o, a.blockWords
		}
		a.mu.Unlock()
	}
	panic("montage: persistent region exhausted")
}

// release returns a block to its arena; safe is the epoch that must be
// persisted before reuse (0 for never-born blocks).
func (s *System) release(off int, safe uint64) {
	for i := range s.arenas {
		a := &s.arenas[i]
		end := a.start + a.nBlocks*a.blockWords
		if off >= a.start && off < end {
			a.mu.Lock()
			a.free = append(a.free, freeBlock{off: off, safe: safe})
			a.mu.Unlock()
			return
		}
	}
	panic("montage: release of unknown block")
}

// Advance ends the current epoch e: no transaction can commit in e once the
// clock ticks (epoch validation in MCNS), committed-in-e cleanups are
// waited out, all epoch-≤e payload work is written back and fenced, and e
// is durably recorded. Returns the epoch that became persistent.
//
// Advance must not be called from inside an open transaction on a handle of
// this system (it would wait for itself).
func (s *System) Advance() uint64 {
	s.advMu.Lock()
	defer s.advMu.Unlock()
	e := s.Epoch()
	s.setEpoch(e + 1)

	// Grace period: wait for every transaction that began in epoch <= e to
	// finish settling (its cleanups registered all epoch-e payload work).
	s.mu.Lock()
	s.advHs = append(s.advHs[:0], s.handles...)
	hs := s.advHs
	s.mu.Unlock()
	for _, h := range hs {
		for {
			a := h.active.Load()
			if a&1 == 0 || a>>1 > e {
				break
			}
			runtime.Gosched()
		}
	}

	// Write back everything registered for epochs <= e.
	for _, h := range hs {
		s.advFlush = h.drainUpTo(e, s.advFlush[:0])
		for _, rg := range s.advFlush {
			s.Region.WriteBack(rg.off, rg.words)
		}
	}
	s.Region.Fence()
	s.Region.Store(epochWord, e)
	s.Region.WriteBack(epochWord, 1)
	s.Region.Fence()
	s.persisted.Store(e)
	s.advances.Add(1)
	return e
}

// Sync makes everything committed so far durable: one Advance of the
// current epoch (the paper's wait-free sync is approximated by this
// blocking call; only the advancer blocks, never data operations).
func (s *System) Sync() { s.Advance() }

// StartAdvancer runs Advance every interval until the returned stop
// function is called, mirroring nbMontage's background epoch advancer.
func (s *System) StartAdvancer(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				s.Advance()
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// Stats is a snapshot of system counters.
type Stats struct {
	Epoch          uint64
	PersistedEpoch uint64
	PayloadsBorn   uint64
	PayloadsKilled uint64
	Advances       uint64
	Device         pmem.Stats
}

// Stats returns a snapshot of the system's counters.
func (s *System) Stats() Stats {
	return Stats{
		Epoch:          s.Epoch(),
		PersistedEpoch: s.persisted.Load(),
		PayloadsBorn:   s.payloadsBorn.Load(),
		PayloadsKilled: s.payloadsKilled.Load(),
		Advances:       s.advances.Load(),
		Device:         s.Region.Stats(),
	}
}
