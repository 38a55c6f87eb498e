// Package core implements Medley, an obstruction-free realization of
// nonblocking transaction composition (NBTC) as described in
//
//	Wentao Cai, Haosen Wen, and Michael L. Scott.
//	"Transactional Composition of Nonblocking Data Structures." SPAA 2023.
//
// NBTC observes that in an already-nonblocking data structure only the
// critical memory accesses — for the most part the linearizing load of a
// read-only operation and the CAS instructions inside an update operation's
// speculation interval — need to take effect atomically for a transaction to
// be strictly serializable. Medley executes those critical accesses
// speculatively and commits them with an M-compare-N-swap (MCNS), a software
// multi-word CAS derived from Harris et al. (DISC 2002).
//
// # Differences from the paper's C++ implementation
//
// The C++ system packs each transactional word into a 128-bit
// {value, counter} pair and uses CMPXCHG16B; the counter distinguishes
// installed descriptors (odd) from real values (even) and defeats ABA. Go
// has no 128-bit CAS, so this package's Word is one 64-bit word: a 32-bit
// payload — a structure's slab index and mark bits — beside a 31-bit
// counter at rest, or, installed, the descriptor's id, the entry of its
// write set and its serial number. Structures therefore keep their nodes
// in pointer-free slabs (Slab) and link them by index; an index unlinked
// by a Tx with an EBR handle is reused after a grace period (Slots).
//
// # Transaction lifecycle
//
// A TxManager holds shared metadata; each worker goroutine obtains a Tx via
// TxManager.Register and runs transactions with Tx.Run or Tx.RunRetry (or
// explicit Begin/End/Abort). Data structure operations take a *Tx receiver
// argument; passing a nil or inactive Tx elides all transactional
// instrumentation, exactly like the paper's OpStarter.
//
// Transactions are isolated and consistent (strictly serializable) and
// obstruction-free: a conflicting descriptor encountered mid-operation is
// eagerly finalized — aborted if still InPrep, helped to completion if
// InProg — and uninstalled.
package core
