package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"bandslim"
	"bandslim/internal/device"
	"bandslim/internal/driver"
	"bandslim/internal/workload"
)

// The hotpath experiment measures the simulator's wall-clock cost per
// operation — the price of simulating, not the simulated time itself — and
// proves the zero-allocation work: per-layer micro-benchmarks with allocation
// counts, plus the 4-shard mixed-size workload throughput in per-op and
// batched submission modes. Simulated metrics are untouched by these
// optimizations (the smoke golden file enforces byte-identical exports);
// wall-clock numbers are host-machine dependent, so the committed baseline
// records the machine it came from.
//
// Every micro point runs a FIXED iteration count rather than time-based
// auto-scaling: the LSM's compaction cost grows with total operations, so
// two runs are only comparable when they execute the same op count. The
// committed baseline was captured at the seed commit with the same counts.

// HotpathMicro is one micro-benchmark measurement.
type HotpathMicro struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
}

// HotpathWall is one wall-clock workload measurement.
type HotpathWall struct {
	Config   string  `json:"config"` // stack: Baseline/Block or Adaptive+Backfill
	Mode     string  `json:"mode"`   // per-op | batch
	Shards   int     `json:"shards"`
	Ops      int64   `json:"ops"`
	WallKops float64 `json:"wall_kops"`
}

// HotpathReport is the BENCH_hotpath.json payload: the seed-commit baseline
// alongside the current measurement, with headline speedups.
type HotpathReport struct {
	Scale   int                `json:"scale"`
	Seed    uint64             `json:"seed"`
	Before  HotpathResults     `json:"before"`
	After   HotpathResults     `json:"after"`
	Speedup map[string]float64 `json:"speedup"`
}

// HotpathResults groups one side of the before/after comparison.
type HotpathResults struct {
	Machine string         `json:"machine"`
	Micro   []HotpathMicro `json:"micro"`
	Wall    []HotpathWall  `json:"wall"`
}

// Fixed micro iteration counts, shared by the baseline capture and the live
// run.
const (
	itersPutInline   = 200000
	itersPutPRP      = 100000
	itersPutAdaptive = 200000
	itersGetHot      = 1000000
	itersGetCold     = 10000
	itersScan        = 500000
	itersBatch       = 200000
)

// hotpathBaseline pins the numbers measured at the seed commit (460734c,
// before the pooling/scratch-reuse work) on the reference machine with the
// iteration counts above and the same scale=40000 seed=42 4-shard workload
// the harness replays. Batched submission did not exist then, so the batch
// rows have no "before".
var hotpathBaseline = HotpathResults{
	Machine: "Intel(R) Xeon(R) Processor @ 2.10GHz, linux/amd64",
	Micro: []HotpathMicro{
		{Name: "put_inline_32B", Iters: itersPutInline, NsPerOp: 2362, AllocsPerOp: 13, BytesPerOp: 2602, OpsPerSec: 423370},
		{Name: "put_prp_4K", Iters: itersPutPRP, NsPerOp: 9424, AllocsPerOp: 13, BytesPerOp: 21940, OpsPerSec: 106112},
		{Name: "put_adaptive_mixgraph", Iters: itersPutAdaptive, NsPerOp: 3403, AllocsPerOp: 15, BytesPerOp: 3992, OpsPerSec: 293858},
		{Name: "get_hot", Iters: itersGetHot, NsPerOp: 30499, AllocsPerOp: 25, BytesPerOp: 131400, OpsPerSec: 32788},
		{Name: "get_cold", Iters: itersGetCold, NsPerOp: 113690, AllocsPerOp: 856, BytesPerOp: 299433, OpsPerSec: 8796},
		{Name: "scan", Iters: itersScan, NsPerOp: 31014, AllocsPerOp: 28, BytesPerOp: 131651, OpsPerSec: 32244},
	},
	Wall: []HotpathWall{
		{Config: "Baseline", Mode: "per-op", Shards: 4, Ops: 40000, WallKops: 102.30},
		{Config: "Backfill", Mode: "per-op", Shards: 4, Ops: 40000, WallKops: 448.37},
	},
}

// HotpathJSON renders the report as indented JSON for BENCH_hotpath.json.
func HotpathJSON(r *HotpathReport) ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// measure times n iterations of op (setup excluded), counting allocations on
// the calling goroutine's heap via runtime.MemStats.
func measure(name string, n int, setup func() (op func(i int) error, done func(), err error)) (HotpathMicro, error) {
	op, done, err := setup()
	if err != nil {
		return HotpathMicro{}, fmt.Errorf("bench: hotpath %s: %w", name, err)
	}
	defer done()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := op(i); err != nil {
			return HotpathMicro{}, fmt.Errorf("bench: hotpath %s: %w", name, err)
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	ns := float64(wall.Nanoseconds()) / float64(n)
	ops := 0.0
	if ns > 0 {
		ops = 1e9 / ns
	}
	return HotpathMicro{
		Name:        name,
		Iters:       n,
		NsPerOp:     ns,
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(n),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
		OpsPerSec:   ops,
	}, nil
}

func hotpathDB(method bandslim.TransferMethod, policy bandslim.PackingPolicy) (*bandslim.DB, error) {
	cfg := bandslim.DefaultConfig()
	cfg.Method = method
	cfg.Policy = policy
	return bandslim.Open(cfg)
}

// runHotpathMicro replays the bench_test.go micro-benchmark bodies plus the
// batched-submission variants at fixed iteration counts.
func runHotpathMicro() ([]HotpathMicro, error) {
	benches := []struct {
		name  string
		n     int
		setup func() (func(i int) error, func(), error)
	}{
		{"put_inline_32B", itersPutInline, func() (func(i int) error, func(), error) {
			db, err := hotpathDB(bandslim.Piggyback, bandslim.BackfillPacking)
			if err != nil {
				return nil, nil, err
			}
			v := make([]byte, 32)
			key := make([]byte, 4)
			return func(i int) error {
				key[0], key[1], key[2], key[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
				return db.Put(key, v)
			}, func() { db.Close() }, nil
		}},
		{"put_prp_4K", itersPutPRP, func() (func(i int) error, func(), error) {
			db, err := hotpathDB(bandslim.Baseline, bandslim.Block)
			if err != nil {
				return nil, nil, err
			}
			v := make([]byte, 4096)
			key := make([]byte, 4)
			return func(i int) error {
				key[0], key[1], key[2], key[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
				return db.Put(key, v)
			}, func() { db.Close() }, nil
		}},
		{"put_adaptive_mixgraph", itersPutAdaptive, func() (func(i int) error, func(), error) {
			db, err := hotpathDB(bandslim.Adaptive, bandslim.BackfillPacking)
			if err != nil {
				return nil, nil, err
			}
			gen := workload.NewWorkloadM(itersPutAdaptive+1, 3)
			filler := workload.NewValueFiller(1)
			var buf []byte
			return func(i int) error {
				op, ok := gen.Next()
				if !ok {
					return fmt.Errorf("generator exhausted")
				}
				buf = filler.Fill(buf, op.ValueSize)
				return db.Put(op.Key, buf)
			}, func() { db.Close() }, nil
		}},
		{"get_hot", itersGetHot, func() (func(i int) error, func(), error) {
			db, err := hotpathDB(bandslim.Adaptive, bandslim.BackfillPacking)
			if err != nil {
				return nil, nil, err
			}
			keys := make([][]byte, 256)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("k%03d", i))
				if err := db.Put(keys[i], make([]byte, 64)); err != nil {
					db.Close()
					return nil, nil, err
				}
			}
			return func(i int) error {
				_, err := db.Get(keys[i%len(keys)])
				return err
			}, func() { db.Close() }, nil
		}},
		{"get_cold", itersGetCold, func() (func(i int) error, func(), error) {
			db, err := hotpathDB(bandslim.Adaptive, bandslim.BackfillPacking)
			if err != nil {
				return nil, nil, err
			}
			const n = 8192
			keys := make([][]byte, n)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("cold%05d", i))
				if err := db.Put(keys[i], make([]byte, 64)); err != nil {
					db.Close()
					return nil, nil, err
				}
			}
			if err := db.Flush(); err != nil {
				db.Close()
				return nil, nil, err
			}
			return func(i int) error {
				_, err := db.Get(keys[(i*2654435761)%n])
				return err
			}, func() { db.Close() }, nil
		}},
		{"scan", itersScan, func() (func(i int) error, func(), error) {
			db, err := hotpathDB(bandslim.Adaptive, bandslim.BackfillPacking)
			if err != nil {
				return nil, nil, err
			}
			for i := 0; i < 4096; i++ {
				if err := db.Put([]byte(fmt.Sprintf("s%05d", i)), make([]byte, 32)); err != nil {
					db.Close()
					return nil, nil, err
				}
			}
			it, err := db.NewIterator(nil)
			if err != nil {
				db.Close()
				return nil, nil, err
			}
			return func(i int) error {
				if !it.Valid() {
					var err error
					it, err = db.NewIterator(nil)
					if err != nil {
						return err
					}
				}
				it.Next()
				return it.Err()
			}, func() { db.Close() }, nil
		}},
		{"put_batch_128x64B", itersBatch, func() (func(i int) error, func(), error) {
			db, err := hotpathDB(bandslim.Adaptive, bandslim.BackfillPacking)
			if err != nil {
				return nil, nil, err
			}
			const batch = 128
			keys := make([][]byte, batch)
			vals := make([][]byte, batch)
			for i := range keys {
				keys[i] = make([]byte, 8)
				vals[i] = make([]byte, 64)
			}
			// One iteration = one record; a full batch ships every 128.
			return func(i int) error {
				j := i % batch
				k := keys[j]
				k[0], k[1], k[2], k[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
				if j < batch-1 {
					return nil
				}
				return db.PutBatch(keys, vals)
			}, func() { db.Close() }, nil
		}},
		{"get_batch_128x64B", itersBatch, func() (func(i int) error, func(), error) {
			db, err := hotpathDB(bandslim.Adaptive, bandslim.BackfillPacking)
			if err != nil {
				return nil, nil, err
			}
			const batch = 128
			keys := make([][]byte, batch)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("gb%04d", i))
				if err := db.Put(keys[i], make([]byte, 64)); err != nil {
					db.Close()
					return nil, nil, err
				}
			}
			var vals [][]byte
			return func(i int) error {
				if i%batch != batch-1 {
					return nil
				}
				var err error
				vals, err = db.GetBatch(keys, vals)
				return err
			}, func() { db.Close() }, nil
		}},
	}
	out := make([]HotpathMicro, 0, len(benches))
	for _, bm := range benches {
		m, err := measure(bm.name, bm.n, bm.setup)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// runHotpathWall drives the 4-shard mixed-size workload W(M) in per-op and
// batched modes over both headline stacks.
func runHotpathWall(o Options) ([]HotpathWall, error) {
	var out []HotpathWall
	for _, c := range shardConfigs {
		_, wall, ops, err := runShardPoint(o, 4, c.method, c.policy)
		if err != nil {
			return nil, err
		}
		out = append(out, HotpathWall{
			Config: c.name, Mode: "per-op", Shards: 4, Ops: ops,
			WallKops: float64(ops) / wall.Seconds() / 1000,
		})
	}
	for _, c := range shardConfigs {
		ops, wall, err := runShardBatchPoint(o, 4, c.method, c.policy)
		if err != nil {
			return nil, err
		}
		out = append(out, HotpathWall{
			Config: c.name, Mode: "batch", Shards: 4, Ops: ops,
			WallKops: float64(ops) / wall.Seconds() / 1000,
		})
	}
	return out, nil
}

// runShardBatchPoint replays the same pre-generated workload through the
// batched submission fast path: records ship through DB.PutBatch in
// fixed-size chunks, which partitions each chunk into per-shard lanes and
// runs the lanes' bulk OpKVBatchWrite commands in parallel.
func runShardBatchPoint(o Options, shards int, method bandslim.TransferMethod, policy bandslim.PackingPolicy) (int64, time.Duration, error) {
	s, err := openShardedStack(shards, method, policy)
	if err != nil {
		return 0, 0, err
	}
	defer s.Close()

	gen := workload.NewWorkloadM(o.Scale, o.Seed)
	filler := workload.NewValueFiller(1)
	var keys, vals [][]byte
	for {
		next, ok := gen.Next()
		if !ok {
			break
		}
		keys = append(keys, next.Key)
		vals = append(vals, filler.Fill(nil, next.ValueSize))
	}
	ops := int64(len(keys))

	const chunk = 1024
	start := time.Now()
	for at := 0; at < len(keys); at += chunk {
		end := at + chunk
		if end > len(keys) {
			end = len(keys)
		}
		if err := s.PutBatch(keys[at:end], vals[at:end]); err != nil {
			return 0, 0, fmt.Errorf("bench: batch shards=%d: %w", shards, err)
		}
	}
	wall := time.Since(start)
	return ops, wall, nil
}

// openShardedStack opens a multi-shard DB with the bench geometry, matching
// runShardPoint's stack so per-op and batch rows compare like for like.
func openShardedStack(shards int, method bandslim.TransferMethod, policy bandslim.PackingPolicy) (*bandslim.DB, error) {
	cfg := bandslim.DefaultConfig()
	cfg.Method = method
	cfg.Policy = policy
	dev := device.DefaultConfig()
	dev.Geometry = benchGeometry()
	cfg.Device = dev
	cfg.Thresholds = driver.DefaultThresholds()
	return bandslim.OpenSharded(bandslim.ShardedConfig{Shards: shards, PerShard: cfg})
}

// hostMachine labels the machine the "after" numbers came from.
func hostMachine() string {
	return fmt.Sprintf("%s/%s, %d CPUs", runtime.GOOS, runtime.GOARCH, runtime.NumCPU())
}

// RunHotpath measures the current tree against the committed seed baseline
// and returns the BENCH_hotpath.json report.
func RunHotpath(o Options) (*HotpathReport, error) {
	o = o.normalized()
	wall, err := runHotpathWall(o)
	if err != nil {
		return nil, err
	}
	micro, err := runHotpathMicro()
	if err != nil {
		return nil, err
	}
	after := HotpathResults{
		Machine: hostMachine(),
		Micro:   micro,
		Wall:    wall,
	}
	r := &HotpathReport{
		Scale:   o.Scale,
		Seed:    o.Seed,
		Before:  hotpathBaseline,
		After:   after,
		Speedup: map[string]float64{},
	}
	// Headline speedups: per-name micro ratios plus the 4-shard mixed
	// workload in both modes against the per-op baseline.
	before := map[string]HotpathMicro{}
	for _, m := range r.Before.Micro {
		before[m.Name] = m
	}
	for _, m := range after.Micro {
		if b, ok := before[m.Name]; ok && m.NsPerOp > 0 {
			r.Speedup["micro_"+m.Name] = b.NsPerOp / m.NsPerOp
		}
	}
	baseWall := map[string]float64{}
	for _, w := range r.Before.Wall {
		baseWall[w.Config] = w.WallKops
	}
	for _, w := range after.Wall {
		if b, ok := baseWall[w.Config]; ok && b > 0 {
			r.Speedup["wall_"+w.Config+"_"+w.Mode] = w.WallKops / b
		}
	}
	return r, nil
}
