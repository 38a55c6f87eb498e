// TPC-C mini: the paper's Figure 9 workload (newOrder + payment, 1:1) run
// briefly on every backend, printing relative throughput — a small-scale
// live rendition of the figure.
//
//	go run ./examples/tpccmini
package main

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"medley/internal/montage"
	"medley/internal/onefile"
	"medley/internal/tpcc"
)

func main() {
	scale := tpcc.Scale{Warehouses: 2, Districts: 4, Customers: 30, Items: 300}
	const threads = 4
	const duration = 500 * time.Millisecond

	type entry struct {
		name string
		mk   func() tpcc.Backend
	}
	backends := []entry{
		{"Medley", func() tpcc.Backend { return tpcc.NewMedleyBackend() }},
		{"txMontage", func() tpcc.Backend {
			return tpcc.NewMontageBackend(montage.NewSystem(montage.Config{
				RegionWords:      1 << 24,
				WriteBackLatency: 300 * time.Nanosecond,
				FenceLatency:     100 * time.Nanosecond,
				StoreLatency:     60 * time.Nanosecond,
			}))
		}},
		{"OneFile", func() tpcc.Backend { return tpcc.NewOneFileBackend(onefile.New()) }},
		{"TDSL", func() tpcc.Backend { return tpcc.NewTDSLBackend() }},
	}

	fmt.Printf("TPC-C subset (newOrder:payment 1:1), %d warehouses, %d threads, %v each\n\n",
		scale.Warehouses, threads, duration)
	var medleyTput float64
	for _, be := range backends {
		b := be.mk()
		db := tpcc.NewDB(b)
		if err := tpcc.Load(db, scale); err != nil {
			log.Fatalf("load %s: %v", be.name, err)
		}
		var stopAdv func()
		if mb, ok := b.(*tpcc.MontageBackend); ok {
			stopAdv = mb.StartAdvancer(20 * time.Millisecond)
		}
		var txns atomic.Uint64
		var stop atomic.Bool
		var wg sync.WaitGroup
		for g := 0; g < threads; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				d := tpcc.NewDriver(db, scale, seed, tpcc.PaperMix())
				var local uint64
				for !stop.Load() {
					if _, err := d.Step(); err != nil {
						log.Fatalf("step: %v", err)
					}
					local++
				}
				txns.Add(local)
			}(int64(g)*31 + 5)
		}
		begin := time.Now()
		time.Sleep(duration)
		stop.Store(true)
		wg.Wait()
		if stopAdv != nil {
			stopAdv()
		}
		tput := float64(txns.Load()) / time.Since(begin).Seconds()
		if be.name == "Medley" {
			medleyTput = tput
		}
		rel := ""
		if medleyTput > 0 && be.name != "Medley" {
			rel = fmt.Sprintf("  (Medley is %.1fx)", medleyTput/tput)
		}
		fmt.Printf("  %-10s %10.0f txn/s%s\n", be.name, tput, rel)
	}
}
