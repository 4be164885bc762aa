package bandslim

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"bandslim/internal/sim"
)

func openSharded(t *testing.T, shards int, mutate func(*Config)) *ShardedDB {
	t.Helper()
	cfg := smallConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := OpenSharded(ShardedConfig{Shards: shards, PerShard: cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// shardedWorkload is a deterministic mixed workload, applied identically to
// any shard count.
func shardedWorkload(t *testing.T, kv *DB, ops int) {
	t.Helper()
	rng := sim.NewRNG(99)
	key := make([]byte, 4)
	for i := 0; i < ops; i++ {
		key[0], key[1], key[2], key[3] = byte(i>>24), byte(i>>16), byte(i>>8), byte(i)
		size := 16 + int(rng.Uint32()%2048)
		if err := kv.Put(key, bytes.Repeat([]byte{byte(i)}, size)); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			if _, err := kv.Get(key); err != nil {
				t.Fatal(err)
			}
		}
		if i%31 == 0 {
			if err := kv.Delete(key); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := kv.Flush(); err != nil {
		t.Fatal(err)
	}
}

// Open must be exactly the one-shard OpenSharded: same PCIe traffic ledgers,
// same NAND write counts, same simulated time.
func TestShardedSingleShardMatchesDB(t *testing.T) {
	db := openSmall(t, nil)
	defer db.Close()
	s := openSharded(t, 1, nil)

	shardedWorkload(t, db, 600)
	shardedWorkload(t, s, 600)

	a, b := db.Stats(), s.Stats()
	checks := []struct {
		name string
		x, y int64
	}{
		{"Puts", a.Host.Puts, b.Host.Puts},
		{"Commands", a.Host.Commands, b.Host.Commands},
		{"PCIeBytes", a.PCIe.Bytes, b.PCIe.Bytes},
		{"PCIeTotalBytes", a.PCIe.TotalBytes, b.PCIe.TotalBytes},
		{"PCIeDMABytes", a.PCIe.DMABytes, b.PCIe.DMABytes},
		{"PCIeCmdBytes", a.PCIe.CommandBytes, b.PCIe.CommandBytes},
		{"MMIOBytes", a.PCIe.MMIOBytes, b.PCIe.MMIOBytes},
		{"CompletionBytes", a.PCIe.CompletionBytes, b.PCIe.CompletionBytes},
		{"NANDPageWrites", a.Device.NANDPageWrites, b.Device.NANDPageWrites},
		{"VLogFlushes", a.Device.VLogFlushes, b.Device.VLogFlushes},
		{"InlineChosen", a.Adaptive.Inline, b.Adaptive.Inline},
		{"PRPChosen", a.Adaptive.PRP, b.Adaptive.PRP},
		{"HybridChosen", a.Adaptive.Hybrid, b.Adaptive.Hybrid},
		{"Elapsed", int64(a.Host.Elapsed), int64(b.Host.Elapsed)},
	}
	for _, c := range checks {
		if c.x != c.y {
			t.Errorf("%s diverged: Open=%d OpenSharded=%d", c.name, c.x, c.y)
		}
	}
	if a.Host.WriteResp.Mean != b.Host.WriteResp.Mean || a.Host.WriteResp.P99 != b.Host.WriteResp.P99 {
		t.Errorf("latency diverged: Open mean=%v p99=%v, OpenSharded mean=%v p99=%v",
			a.Host.WriteResp.Mean, a.Host.WriteResp.P99, b.Host.WriteResp.Mean, b.Host.WriteResp.P99)
	}
	if db.Now() != s.Now() {
		t.Errorf("clocks diverged: Open=%v OpenSharded=%v", db.Now(), s.Now())
	}
}

func TestShardedRoundTrip(t *testing.T) {
	s := openSharded(t, 4, nil)
	for i := 0; i < 200; i++ {
		key := []byte(fmt.Sprintf("rt%04d", i))
		if err := s.Put(key, []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		key := []byte(fmt.Sprintf("rt%04d", i))
		v, err := s.Get(key)
		if err != nil {
			t.Fatalf("Get(%s): %v", key, err)
		}
		if string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("Get(%s) = %q", key, v)
		}
	}
	if err := s.Delete([]byte("rt0100")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get([]byte("rt0100")); err == nil {
		t.Fatal("deleted key still readable")
	}
	if s.NumShards() != 4 {
		t.Fatalf("NumShards = %d", s.NumShards())
	}
}

// Keys must spread across shards and always route to the same one.
func TestShardedPartitionStable(t *testing.T) {
	s := openSharded(t, 4, nil)
	counts := make([]int, 4)
	for i := 0; i < 512; i++ {
		key := []byte(fmt.Sprintf("pk%04d", i))
		sh := s.ShardFor(key)
		if sh != s.ShardFor(key) {
			t.Fatal("ShardFor is unstable")
		}
		counts[sh]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("shard %d received no keys", i)
		}
	}
	// Per-shard stats must account for exactly the routed keys.
	for i := 0; i < 512; i++ {
		key := []byte(fmt.Sprintf("pk%04d", i))
		if err := s.Put(key, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	var puts int64
	for i := 0; i < s.NumShards(); i++ {
		puts += s.ShardStats(i).Host.Puts
	}
	if puts != 512 {
		t.Fatalf("per-shard Puts sum to %d, want 512", puts)
	}
	if got := s.Stats().Host.Puts; got != 512 {
		t.Fatalf("aggregate Puts = %d, want 512", got)
	}
}

func TestShardedIteratorGlobalOrder(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4} {
		testIteratorGlobalOrder(t, openSharded(t, shards, nil))
	}
}

func testIteratorGlobalOrder(t *testing.T, s *DB) {
	t.Helper()
	var want []string
	for i := 0; i < 300; i++ {
		key := []byte(fmt.Sprintf("it%04d", i))
		if err := s.Put(key, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		want = append(want, string(key))
	}
	sort.Strings(want)
	it, err := s.NewIterator(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for it.Valid() {
		got = append(got, string(it.Key()))
		it.Next()
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if len(got) != len(want) {
		t.Fatalf("iterated %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: got %q, want %q", i, got[i], want[i])
		}
	}
}

func TestShardedStatsAggregation(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		testStatsAggregation(t, openSharded(t, shards, nil))
	}
}

func testStatsAggregation(t *testing.T, s *DB) {
	t.Helper()
	shardedWorkload(t, s, 400)
	agg := s.Stats()
	var sum Stats
	var maxElapsed sim.Duration
	for i := 0; i < s.NumShards(); i++ {
		p := s.ShardStats(i)
		sum.Host.Puts += p.Host.Puts
		sum.Host.Commands += p.Host.Commands
		sum.PCIe.Bytes += p.PCIe.Bytes
		sum.PCIe.TotalBytes += p.PCIe.TotalBytes
		sum.Device.NANDPageWrites += p.Device.NANDPageWrites
		sum.Device.VLogFlushes += p.Device.VLogFlushes
		if p.Host.Elapsed > maxElapsed {
			maxElapsed = p.Host.Elapsed
		}
	}
	if agg.Host.Puts != sum.Host.Puts || agg.Host.Puts != 400 {
		t.Errorf("Puts: aggregate %d, shard sum %d, want 400", agg.Host.Puts, sum.Host.Puts)
	}
	if agg.Host.Commands != sum.Host.Commands {
		t.Errorf("Commands: aggregate %d, shard sum %d", agg.Host.Commands, sum.Host.Commands)
	}
	if agg.PCIe.Bytes != sum.PCIe.Bytes || agg.PCIe.TotalBytes != sum.PCIe.TotalBytes {
		t.Errorf("PCIe ledgers: aggregate %d/%d, shard sums %d/%d",
			agg.PCIe.Bytes, agg.PCIe.TotalBytes, sum.PCIe.Bytes, sum.PCIe.TotalBytes)
	}
	if agg.Device.NANDPageWrites != sum.Device.NANDPageWrites {
		t.Errorf("NANDPageWrites: aggregate %d, shard sum %d", agg.Device.NANDPageWrites, sum.Device.NANDPageWrites)
	}
	if agg.Host.Elapsed != maxElapsed {
		t.Errorf("Elapsed: aggregate %v, max shard %v", agg.Host.Elapsed, maxElapsed)
	}
	if agg.Host.WriteResp.Mean <= 0 {
		t.Error("merged WriteRespMean not positive")
	}
	if agg.Host.ThroughputKops <= 0 {
		t.Error("aggregate ThroughputKops not positive")
	}
}

func TestShardedClose(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		testClose(t, openSharded(t, shards, nil))
	}
}

func testClose(t *testing.T, s *DB) {
	t.Helper()
	if err := s.Put([]byte("ck"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	it, err := s.NewIterator(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := s.Put([]byte("ck"), []byte("v")); err != ErrClosed {
		t.Fatalf("Put after Close: %v, want ErrClosed", err)
	}
	if _, err := s.Get([]byte("ck")); err != ErrClosed {
		t.Fatalf("Get after Close: %v, want ErrClosed", err)
	}
	if err := s.Flush(); err != ErrClosed {
		t.Fatalf("Flush after Close: %v, want ErrClosed", err)
	}
	if _, err := s.NewIterator(nil); err != ErrClosed {
		t.Fatalf("NewIterator after Close: %v, want ErrClosed", err)
	}
	it.Next()
	if it.Err() != ErrClosed {
		t.Fatalf("outstanding iterator after Close: %v, want ErrClosed", it.Err())
	}
	// Stats and Now stay readable after Close.
	if s.Stats().Host.Puts != 1 {
		t.Fatal("Stats unreadable after Close")
	}
	if s.Now() <= 0 {
		t.Fatal("Now unreadable after Close")
	}
}

func TestOpenShardedValidates(t *testing.T) {
	if _, err := OpenSharded(ShardedConfig{Shards: 0}); err == nil {
		t.Fatal("Shards: 0 accepted")
	}
	if _, err := OpenSharded(ShardedConfig{Shards: -3}); err == nil {
		t.Fatal("negative Shards accepted")
	}
}

// Run with -race: concurrent Put/Get/Delete plus Stats against a 4-shard DB.
func TestShardedConcurrentAccess(t *testing.T) {
	s := openSharded(t, 4, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Goroutines share shards, so values are read through GetInto
			// with a goroutine-owned dst (Get returns per-shard views).
			var dst []byte
			for i := 0; i < 50; i++ {
				key := []byte(fmt.Sprintf("cc%d-%03d", g, i))
				if err := s.Put(key, bytes.Repeat([]byte{byte(g)}, 64)); err != nil {
					t.Error(err)
					return
				}
				v, err := s.GetInto(key, dst)
				if err != nil || len(v) != 64 || v[0] != byte(g) {
					t.Errorf("GetInto(%s) = %d bytes, %v", key, len(v), err)
					return
				}
				dst = v
				if i%10 == 0 {
					if err := s.Delete(key); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			_ = s.Stats()
			_ = s.Now()
		}
	}()
	wg.Wait()
	if got := s.Stats().Host.Puts; got != 8*50 {
		t.Fatalf("Puts = %d, want %d", got, 8*50)
	}
}

// Run with -race: a deep-queue storm — concurrent batch reads riding the
// depth-8 submission window on every shard, interleaved with batch writes,
// live Tune calls, and Stats/Inspect polling. Exercises the window FIFO,
// wait-frame recycling, and the Tune fan-out under maximal interleaving.
func TestShardedWindowStorm(t *testing.T) {
	s := openSharded(t, 4, func(c *Config) {
		c.Submission = SubmissionConfig{
			QueueDepth:       8,
			DoorbellBatch:    4,
			CoalesceInterval: SimMicrosecond,
		}
	})
	const nkeys = 48
	keys := make([][]byte, nkeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("st%03d", i))
		if err := s.Put(keys[i], bytes.Repeat([]byte{byte(i)}, 96)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vals := make([][]byte, nkeys)
			miss := make([]bool, nkeys)
			for round := 0; round < 25; round++ {
				if g%2 == 0 {
					out, err := s.GetBatch(keys, vals)
					if err != nil {
						t.Errorf("storm GetBatch: %v", err)
						return
					}
					for i := range out {
						if len(out[i]) != 96 || out[i][0] != byte(i) {
							t.Errorf("storm GetBatch: key %d holds %d bytes", i, len(out[i]))
							return
						}
					}
				} else {
					if _, err := s.GetBatchSparse(keys, vals, miss); err != nil {
						t.Errorf("storm GetBatchSparse: %v", err)
						return
					}
					for i := range miss {
						if miss[i] {
							t.Errorf("storm GetBatchSparse: key %d reported missing", i)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		wkeys := make([][]byte, 8)
		wvals := make([][]byte, 8)
		for i := range wkeys {
			wkeys[i] = []byte(fmt.Sprintf("sw%03d", i))
			wvals[i] = bytes.Repeat([]byte{0xAB}, 64)
		}
		for round := 0; round < 25; round++ {
			if err := s.PutBatch(wkeys, wvals); err != nil {
				t.Errorf("storm PutBatch: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			m := Piggyback
			if i%2 == 0 {
				m = Adaptive
			}
			if err := s.Tune(Tuning{Method: &m}); err != nil {
				t.Errorf("storm Tune: %v", err)
				return
			}
			_ = s.Stats()
			_ = s.Submission()
		}
	}()
	wg.Wait()
	if sub := s.Submission(); sub.QueueDepth != 8 {
		t.Fatalf("Submission after storm = %+v, want depth 8", sub)
	}
}

// settleGoroutines waits briefly for exiting goroutines to leave the count,
// returning the last reading.
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// Open starts no goroutine, OpenSharded(N) at most N-1 batch helpers, and
// Close stops every one of them.
func TestOpenGoroutineBudget(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		before := runtime.NumGoroutine()
		s, err := OpenSharded(ShardedConfig{Shards: shards, PerShard: smallConfig()})
		if err != nil {
			t.Fatal(err)
		}
		if got := runtime.NumGoroutine() - before; got > shards-1 {
			t.Fatalf("shards=%d: open started %d goroutines, want at most %d", shards, got, shards-1)
		}
		keys, values := make([][]byte, 64), make([][]byte, 64)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("gb%03d", i))
			values[i] = []byte{byte(i)}
		}
		if err := s.PutBatch(keys, values); err != nil {
			t.Fatal(err)
		}
		if _, err := s.GetBatch(keys, nil); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := runtime.NumGoroutine() - before; got > shards-1 {
			t.Fatalf("shards=%d: batches left %d goroutines running, want at most %d", shards, got, shards-1)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if after := settleGoroutines(before); after > before {
			t.Fatalf("shards=%d: %d goroutines leaked past Close", shards, after-before)
		}
	}
	db, err := Open(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.NumShards() != 1 {
		t.Fatalf("Open built %d shards, want 1", db.NumShards())
	}
}

// Run with -race: Close racing single-key ops and batches from several
// goroutines. Every op returns nil or ErrClosed; nothing panics or hangs.
func TestCloseRacesOps(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		s := openSharded(t, shards, nil)
		keys, values := make([][]byte, 16), make([][]byte, 16)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("cr%02d", i))
			values[i] = bytes.Repeat([]byte{byte(i)}, 100)
		}
		if err := s.PutBatch(keys, values); err != nil {
			t.Fatal(err)
		}
		check := func(op string, err error) bool {
			if err != nil && err != ErrClosed {
				t.Errorf("shards=%d: %s racing Close = %v, want nil or ErrClosed", shards, op, err)
			}
			return err == ErrClosed
		}
		// Close once every goroutine has completed an op, so the close
		// lands mid-stream.
		var wg, started sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			started.Add(1)
			go func(g int) {
				defer wg.Done()
				var dst []byte
				for i := 0; ; i++ {
					if i == 1 {
						started.Done()
					}
					k := keys[(g+i)%len(keys)]
					var closed bool
					switch g % 3 {
					case 0:
						closed = check("Put", s.Put(k, values[0]))
					case 1:
						v, err := s.GetInto(k, dst)
						closed = check("GetInto", err)
						if err == nil {
							dst = v
						}
					case 2:
						closed = check("PutBatch", s.PutBatch(keys, values))
					}
					if closed {
						if i == 0 {
							started.Done()
						}
						return
					}
				}
			}(g)
		}
		started.Wait()
		var closers sync.WaitGroup
		for c := 0; c < 2; c++ {
			closers.Add(1)
			go func() {
				defer closers.Done()
				if err := s.Close(); err != nil {
					t.Errorf("shards=%d: Close = %v", shards, err)
				}
			}()
		}
		closers.Wait()
		wg.Wait()
	}
}

// Run with -race: single-key ops, cross-shard batches, whole-DB flushes, and
// Tune on the same shards at once. Batches lock shard mutexes in ascending
// order while single-key ops take one, so this must finish, not deadlock.
func TestSingleKeyAndBatchConcurrency(t *testing.T) {
	s := openSharded(t, 4, nil)
	keys, values := make([][]byte, 32), make([][]byte, 32)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("mx%02d", i))
		values[i] = bytes.Repeat([]byte{byte(i)}, 80)
	}
	if err := s.PutBatch(keys, values); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				vals := make([][]byte, len(keys))
				miss := make([]bool, len(keys))
				var dst []byte
				for i := 0; i < 40; i++ {
					k := keys[(g*7+i)%len(keys)]
					var err error
					switch (g + i) % 6 {
					case 0:
						err = s.Put(k, values[0])
					case 1:
						dst, err = s.GetInto(k, dst)
					case 2:
						err = s.PutBatch(keys, values)
					case 3:
						_, err = s.GetBatchSparse(keys, vals, miss)
					case 4:
						err = s.Flush()
					case 5:
						m := Adaptive
						err = s.Tune(Tuning{Method: &m})
					}
					if err != nil {
						t.Errorf("goroutine %d op %d: %v", g, i, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("single-key ops and cross-shard batches deadlocked")
	}
}
