package bandslim_test

// Allocation regression tests: the per-op simulation path must be
// allocation-free in steady state. Steady state means the structural
// allocations are behind us — pools warmed and scratch buffers grown to their
// working size. New-key inserts, SSTable flushes and compactions still
// allocate now and then (a MemTable slab, a new table's page list, a NAND
// page image), so the guard across them bounds the average per put instead
// of requiring zero.

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"bandslim"
)

// allocConfig builds the small deterministic stack the assertions run on.
// NAND stays off for write paths (NAND programs allocate FTL bookkeeping);
// read paths keep it on.
func allocConfig(method bandslim.TransferMethod, policy bandslim.PackingPolicy, nandOn bool, tr bandslim.Tracer) bandslim.Config {
	cfg := bandslim.DefaultConfig()
	cfg.Method = method
	cfg.Policy = policy
	cfg.DisableNAND = !nandOn
	cfg.Tracer = tr
	return cfg
}

// assertZeroAllocs runs fn under testing.AllocsPerRun and fails on any
// per-run allocation.
func assertZeroAllocs(t *testing.T, what string, runs int, fn func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(runs, fn); avg != 0 {
		t.Errorf("%s allocates %.2f objects per op in steady state, want 0", what, avg)
	}
}

// tracers returns the tracer variants every assertion runs under: the
// zero-cost disabled path and a ring-buffered recorder (Emit writes into a
// preallocated ring, so tracing must stay allocation-free too).
func tracers() map[string]bandslim.Tracer {
	return map[string]bandslim.Tracer{
		"tracer_off": nil,
		"tracer_on":  bandslim.NewRecorder(4096),
	}
}

func TestPutAllocsSteadyState(t *testing.T) {
	cases := []struct {
		name   string
		method bandslim.TransferMethod
		policy bandslim.PackingPolicy
		size   int
	}{
		{"inline_32B", bandslim.Piggyback, bandslim.BackfillPacking, 32},
		{"prp_4K", bandslim.Baseline, bandslim.Block, 4096},
		{"adaptive_512B", bandslim.Adaptive, bandslim.BackfillPacking, 512},
	}
	for _, tc := range cases {
		for trName, tr := range tracers() {
			t.Run(tc.name+"/"+trName, func(t *testing.T) {
				db, err := bandslim.Open(allocConfig(tc.method, tc.policy, false, tr))
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				const nkeys = 16
				keys := make([][]byte, nkeys)
				value := make([]byte, tc.size)
				for i := range keys {
					keys[i] = []byte(fmt.Sprintf("ak%02d", i))
					if err := db.Put(keys[i], value); err != nil {
						t.Fatal(err)
					}
				}
				// Warm the pools and scratch past their growth phase.
				for r := 0; r < 4; r++ {
					for _, k := range keys {
						if err := db.Put(k, value); err != nil {
							t.Fatal(err)
						}
					}
				}
				i := 0
				assertZeroAllocs(t, "Put "+tc.name, 400, func() {
					if err := db.Put(keys[i%nkeys], value); err != nil {
						t.Fatal(err)
					}
					i++
				})
			})
		}
	}
}

// TestPutAllocsAcrossCompactions extends the write-path guard past the
// MemTable: unique keys make the measured window run MemTable flushes and
// both kinds of compaction (L0 into L1, and one level into the next). The
// window is measured with MemStats.Mallocs because AllocsPerRun rounds down
// to a whole number per run.
func TestPutAllocsAcrossCompactions(t *testing.T) {
	const (
		warm   = 40_000 // unique puts before the window: pools and scratch grow
		window = 80_000
		limit  = 0.1 // allocations per put
	)
	for trName, tr := range tracers() {
		t.Run(trName, func(t *testing.T) {
			cfg := allocConfig(bandslim.Piggyback, bandslim.BackfillPacking, true, tr)
			lsmCfg := cfg.Device.LSM
			db, err := bandslim.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			key, value := make([]byte, 8), make([]byte, 32)
			put := func(i int) {
				binary.BigEndian.PutUint64(key, uint64(i)*0x9E3779B97F4A7C15)
				if err := db.Put(key, value); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < warm; i++ {
				put(i)
			}
			compactions := db.Stats().Device.Compactions
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := warm; i < warm+window; i++ {
				put(i)
			}
			runtime.ReadMemStats(&after)
			compactions = db.Stats().Device.Compactions - compactions

			// Every key is new, so the MemTable flushes each MemTableEntries
			// puts and L0 compacts on every L0CompactionTrigger-th flush;
			// every other compaction pushed a level down.
			flushesBy := func(puts int) int { return puts / lsmCfg.MemTableEntries }
			flushes := flushesBy(warm+window) - flushesBy(warm)
			l0 := int64(flushesBy(warm+window)/lsmCfg.L0CompactionTrigger - flushesBy(warm)/lsmCfg.L0CompactionTrigger)
			if flushes < 8 || l0 < 1 || compactions-l0 < 1 {
				t.Fatalf("window ran %d flushes, %d L0 and %d level compactions; want >= 8, >= 1, >= 1",
					flushes, l0, compactions-l0)
			}
			perPut := float64(after.Mallocs-before.Mallocs) / window
			t.Logf("%.4f allocs/put over %d puts (%d flushes, %d compactions)", perPut, window, flushes, compactions)
			if perPut > limit {
				t.Errorf("Put allocates %.3f objects per op across flushes and compactions, want <= %v", perPut, limit)
			}
		})
	}
}

func TestGetAllocsSteadyState(t *testing.T) {
	for trName, tr := range tracers() {
		t.Run(trName, func(t *testing.T) {
			db, err := bandslim.Open(allocConfig(bandslim.Adaptive, bandslim.BackfillPacking, true, tr))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			const nkeys = 64
			keys := make([][]byte, nkeys)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("gk%02d", i))
				if err := db.Put(keys[i], make([]byte, 128)); err != nil {
					t.Fatal(err)
				}
			}
			i := 0
			assertZeroAllocs(t, "Get", 400, func() {
				v, err := db.Get(keys[i%nkeys])
				if err != nil || len(v) != 128 {
					t.Fatalf("Get: %d bytes, %v", len(v), err)
				}
				i++
			})
			dst := make([]byte, 0, 128)
			i = 0
			assertZeroAllocs(t, "GetInto", 400, func() {
				v, err := db.GetInto(keys[i%nkeys], dst)
				if err != nil || len(v) != 128 {
					t.Fatalf("GetInto: %d bytes, %v", len(v), err)
				}
				dst = v
				i++
			})
		})
	}
}

func TestDeleteAllocsSteadyState(t *testing.T) {
	db, err := bandslim.Open(allocConfig(bandslim.Adaptive, bandslim.BackfillPacking, false, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	key := []byte("del-key")
	if err := db.Put(key, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	// The first Delete inserts the tombstone (one structural allocation);
	// repeat deletes overwrite it in place.
	if err := db.Delete(key); err != nil {
		t.Fatal(err)
	}
	assertZeroAllocs(t, "Delete", 400, func() {
		if err := db.Delete(key); err != nil {
			t.Fatal(err)
		}
	})
}

func TestNextAllocsSteadyState(t *testing.T) {
	db, err := bandslim.Open(allocConfig(bandslim.Adaptive, bandslim.BackfillPacking, true, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Enough keys that the measured window never exhausts the iterator, few
	// enough to stay resident in the MemTable (no SSTable page decodes).
	const nkeys = 2000
	for i := 0; i < nkeys; i++ {
		if err := db.Put([]byte(fmt.Sprintf("nk%06d", i)), make([]byte, 48)); err != nil {
			t.Fatal(err)
		}
	}
	it, err := db.NewIterator(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the iterator's reused key/value buffers.
	for i := 0; i < 8 && it.Valid(); i++ {
		it.Next()
	}
	assertZeroAllocs(t, "Iterator.Next", 400, func() {
		if !it.Valid() {
			t.Fatal("iterator exhausted inside the measured window")
		}
		it.Next()
	})
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
}

// TestWindowedGetBatchAllocsSteadyState proves the submission window
// recycles everything per batch at both a saturated depth (8) and a depth
// that swallows the whole batch (32): wait frames and PRP staging come from
// internal/pool-reused slices on the driver, the FIFO scratch lives on the
// DB, and completion sweeps reuse the device's sort buffer — so a
// steady-state GetBatch through the async window allocates nothing. The
// tracer-off runs also pin down the latency-attribution boundary events
// (completion readiness stamping, CQ-post timing): attribution support must
// cost zero allocations when tracing is disabled.
func TestWindowedGetBatchAllocsSteadyState(t *testing.T) {
	for _, depth := range []int{8, 32} {
		for trName, tr := range tracers() {
			t.Run(fmt.Sprintf("depth=%d/%s", depth, trName), func(t *testing.T) {
				cfg := allocConfig(bandslim.Adaptive, bandslim.BackfillPacking, true, tr)
				cfg.Submission = bandslim.SubmissionConfig{
					QueueDepth:       depth,
					DoorbellBatch:    4,
					CoalesceInterval: bandslim.SimMicrosecond,
				}
				db, err := bandslim.Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				const nkeys = 16
				keys := make([][]byte, nkeys)
				vals := make([][]byte, nkeys)
				for i := range keys {
					keys[i] = []byte(fmt.Sprintf("wk%02d", i))
					if err := db.Put(keys[i], make([]byte, 128)); err != nil {
						t.Fatal(err)
					}
					vals[i] = make([]byte, 0, 128)
				}
				// Warm the window: frames, per-slot PRP staging, FIFO
				// scratch, and the device's completion sweep all grow on
				// first use.
				for r := 0; r < 4; r++ {
					if _, err := db.GetBatch(keys, vals); err != nil {
						t.Fatal(err)
					}
				}
				assertZeroAllocs(t, fmt.Sprintf("GetBatch depth=%d", depth), 400, func() {
					out, err := db.GetBatch(keys, vals)
					if err != nil || len(out[nkeys-1]) != 128 {
						t.Fatalf("GetBatch: %v", err)
					}
				})
			})
		}
	}
}

// TestShardedAllocsSteadyState guards the whole front-end surface at one and
// two shards: single-key ops run on the caller under the shard mutex, and
// cross-shard batches hand lanes to reused helper frames, so none of them may
// allocate once warm.
func TestShardedAllocsSteadyState(t *testing.T) {
	for trName, tr := range tracers() {
		t.Run(trName, func(t *testing.T) {
			for _, shards := range []int{1, 2} {
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
					shardedAllocs(t, shards, tr)
				})
			}
		})
	}
}

func shardedAllocs(t *testing.T, shards int, tr bandslim.Tracer) {
	const nkeys = 16
	keys := make([][]byte, nkeys)
	value := make([]byte, 256)
	values := make([][]byte, nkeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("sk%02d", i))
		values[i] = value
	}

	// Write assertions on a NAND-off stack (NAND programs allocate FTL
	// bookkeeping, and the write path never reads values back).
	s, err := bandslim.OpenSharded(bandslim.ShardedConfig{
		Shards:   shards,
		PerShard: allocConfig(bandslim.Adaptive, bandslim.BackfillPacking, false, tr),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for r := 0; r < 5; r++ {
		for _, k := range keys {
			if err := s.Put(k, value); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.PutBatch(keys, values); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	assertZeroAllocs(t, "Put", 400, func() {
		if err := s.Put(keys[i%nkeys], value); err != nil {
			t.Fatal(err)
		}
		i++
	})
	assertZeroAllocs(t, "PutBatch", 100, func() {
		if err := s.PutBatch(keys, values); err != nil {
			t.Fatal(err)
		}
	})
	// The first Delete of each key inserts its tombstone (a structural
	// allocation); repeat deletes overwrite it in place.
	for _, k := range keys {
		if err := s.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	i = 0
	assertZeroAllocs(t, "Delete", 400, func() {
		if err := s.Delete(keys[i%nkeys]); err != nil {
			t.Fatal(err)
		}
		i++
	})

	// Read assertions need NAND on: value reads are served from the
	// simulated vLog, which DisableNAND stubs out.
	g, err := bandslim.OpenSharded(bandslim.ShardedConfig{
		Shards:   shards,
		PerShard: allocConfig(bandslim.Adaptive, bandslim.BackfillPacking, true, tr),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for _, k := range keys {
		if err := g.Put(k, value); err != nil {
			t.Fatal(err)
		}
	}
	i = 0
	assertZeroAllocs(t, "Get", 400, func() {
		v, err := g.Get(keys[i%nkeys])
		if err != nil || len(v) != 256 {
			t.Fatalf("Get: %d bytes, %v", len(v), err)
		}
		i++
	})
	dst := make([]byte, 0, 256)
	i = 0
	assertZeroAllocs(t, "GetInto", 400, func() {
		v, err := g.GetInto(keys[i%nkeys], dst)
		if err != nil || len(v) != 256 {
			t.Fatalf("GetInto: %d bytes, %v", len(v), err)
		}
		dst = v
		i++
	})
	vals := make([][]byte, nkeys)
	miss := make([]bool, nkeys)
	for r := 0; r < 4; r++ {
		if _, err := g.GetBatchSparse(keys, vals, miss); err != nil {
			t.Fatal(err)
		}
	}
	assertZeroAllocs(t, "GetBatchSparse", 100, func() {
		out, err := g.GetBatchSparse(keys, vals, miss)
		if err != nil || len(out[nkeys-1]) != 256 || miss[nkeys-1] {
			t.Fatalf("GetBatchSparse: %v", err)
		}
	})

	// Next: enough keys that the measured window never exhausts the merged
	// iterator, few enough to stay resident in the MemTable.
	for i := 0; i < 2000; i++ {
		if err := g.Put([]byte(fmt.Sprintf("nk%06d", i)), make([]byte, 48)); err != nil {
			t.Fatal(err)
		}
	}
	it, err := g.NewIterator([]byte("nk"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8 && it.Valid(); i++ {
		it.Next()
	}
	assertZeroAllocs(t, "Iterator.Next", 400, func() {
		if !it.Valid() {
			t.Fatal("iterator exhausted inside the measured window")
		}
		it.Next()
	})
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
}

// TestCacheHitAllocsSteadyState proves the tiered read path stays
// allocation-free once warm: a device value-cache hit (map lookup, DRAM
// latency charge, DMA out) and a host-side negative-cache hit (ring lookup,
// preallocated not-found error) must both cost zero allocations, with and
// without a tracer attached. The fills themselves may allocate — they are
// the miss path — so the working set is read once before measuring.
func TestCacheHitAllocsSteadyState(t *testing.T) {
	cacheCfg := bandslim.CacheConfig{
		ValueBytes:      1 << 20,
		Pages:           32,
		Policy:          bandslim.Cache2Q,
		NegativeEntries: 128,
	}
	for trName, tr := range tracers() {
		t.Run(trName, func(t *testing.T) {
			cfg := allocConfig(bandslim.Adaptive, bandslim.BackfillPacking, true, tr)
			cfg.Cache = cacheCfg
			db, err := bandslim.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			const nkeys = 32
			keys := make([][]byte, nkeys)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("ck%02d", i))
				if err := db.Put(keys[i], make([]byte, 128)); err != nil {
					t.Fatal(err)
				}
			}
			// Two warm rounds: the first read of each key misses and fills
			// the cache (a structural allocation), the second promotes it in
			// 2Q; every measured read is then a pure hit.
			for r := 0; r < 2; r++ {
				for _, k := range keys {
					if _, err := db.Get(k); err != nil {
						t.Fatal(err)
					}
				}
			}
			base := db.Stats().Cache.Hits
			i := 0
			assertZeroAllocs(t, "Get cache hit", 400, func() {
				v, err := db.Get(keys[i%nkeys])
				if err != nil || len(v) != 128 {
					t.Fatalf("Get: %d bytes, %v", len(v), err)
				}
				i++
			})
			if hits := db.Stats().Cache.Hits - base; hits == 0 {
				t.Error("measured reads never hit the value cache")
			}

			// Negative-cache hits: two misses arm and admit the key, every
			// later Get resolves host-side from the recent-miss ring.
			ghost := []byte("ck-ghost")
			for r := 0; r < 3; r++ {
				if _, err := db.Get(ghost); !bandslim.IsNotFound(err) {
					t.Fatalf("Get(ghost): %v, want not-found", err)
				}
			}
			nbase := db.Stats().Cache.NegHits
			assertZeroAllocs(t, "Get negative hit", 400, func() {
				if _, err := db.Get(ghost); !bandslim.IsNotFound(err) {
					t.Fatalf("Get(ghost): %v, want not-found", err)
				}
			})
			if hits := db.Stats().Cache.NegHits - nbase; hits == 0 {
				t.Error("measured misses never hit the negative cache")
			}
		})
	}
}

// TestShardedCacheHitAllocsSteadyState repeats the cache-hit assertion
// through the sharded front-end: the shard worker hand-off and the per-shard
// caches must add nothing to the hit path.
func TestShardedCacheHitAllocsSteadyState(t *testing.T) {
	for trName, tr := range tracers() {
		t.Run(trName, func(t *testing.T) {
			cfg := allocConfig(bandslim.Adaptive, bandslim.BackfillPacking, true, tr)
			cfg.Cache = bandslim.CacheConfig{
				ValueBytes:      1 << 20,
				Policy:          bandslim.CacheLRU,
				NegativeEntries: 128,
			}
			s, err := bandslim.OpenSharded(bandslim.ShardedConfig{Shards: 2, PerShard: cfg})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			const nkeys = 32
			keys := make([][]byte, nkeys)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("sc%02d", i))
				if err := s.Put(keys[i], make([]byte, 128)); err != nil {
					t.Fatal(err)
				}
			}
			for _, k := range keys {
				if _, err := s.Get(k); err != nil {
					t.Fatal(err)
				}
			}
			base := s.Stats().Cache.Hits
			i := 0
			assertZeroAllocs(t, "ShardedDB.Get cache hit", 400, func() {
				v, err := s.Get(keys[i%nkeys])
				if err != nil || len(v) != 128 {
					t.Fatalf("Get: %d bytes, %v", len(v), err)
				}
				i++
			})
			if hits := s.Stats().Cache.Hits - base; hits == 0 {
				t.Error("measured reads never hit the value cache")
			}
		})
	}
}
