package bench

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"bandslim"
	"bandslim/internal/device"
	"bandslim/internal/driver"
	"bandslim/internal/workload"
)

// ShardPoint is one shard-scaling measurement, shaped for BENCH_shards.json.
type ShardPoint struct {
	Shards     int     `json:"shards"`
	Config     string  `json:"config"`
	Ops        int64   `json:"ops"`
	WallMillis float64 `json:"wall_ms"`
	WallKops   float64 `json:"wall_kops"`     // ops per wall-clock second / 1000
	SimUsPerOp float64 `json:"sim_us_per_op"` // aggregate simulated time / ops
	RespUs     float64 `json:"resp_us"`       // mean simulated write response
}

// ShardScalingJSON renders the points as indented JSON for BENCH_shards.json.
func ShardScalingJSON(points []ShardPoint) ([]byte, error) {
	return json.MarshalIndent(points, "", "  ")
}

// shardConfigs are the two ends of the paper's design space the scaling sweep
// compares: the stock KV-SSD and the full BandSlim stack.
var shardConfigs = []struct {
	name   string
	method bandslim.TransferMethod
	policy bandslim.PackingPolicy
}{
	{"Baseline", bandslim.Baseline, bandslim.Block},
	{"Backfill", bandslim.Adaptive, bandslim.BackfillPacking},
}

// runShardPoint drives one multi-shard DB with one feeder goroutine per shard.
// Ops are pre-generated and pre-partitioned so the measured window contains
// only Put traffic; each feeder touches a single shard, so simulated results
// stay deterministic while wall-clock throughput scales with parallelism.
func runShardPoint(o Options, shards int, method bandslim.TransferMethod, policy bandslim.PackingPolicy) (bandslim.Stats, time.Duration, int64, error) {
	cfg := bandslim.DefaultConfig()
	cfg.Method = method
	cfg.Policy = policy
	dev := device.DefaultConfig()
	dev.Geometry = benchGeometry()
	cfg.Device = dev
	cfg.Thresholds = driver.DefaultThresholds()
	s, err := bandslim.OpenSharded(bandslim.ShardedConfig{Shards: shards, PerShard: cfg})
	if err != nil {
		return bandslim.Stats{}, 0, 0, err
	}
	defer s.Close()

	type op struct {
		key  []byte
		size int
	}
	gen := workload.NewWorkloadM(o.Scale, o.Seed)
	lanes := make([][]op, shards)
	var ops int64
	for {
		next, ok := gen.Next()
		if !ok {
			break
		}
		lane := s.ShardFor(next.Key)
		lanes[lane] = append(lanes[lane], op{key: next.Key, size: next.ValueSize})
		ops++
	}

	errs := make([]error, shards)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range lanes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var buf []byte
			filler := workload.NewValueFiller(1)
			for _, p := range lanes[i] {
				buf = filler.Fill(buf, p.size)
				if err := s.Put(p.key, buf); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return bandslim.Stats{}, 0, 0, fmt.Errorf("bench: shards=%d: put: %w", shards, err)
		}
	}
	// Timing metrics reflect the steady-state run, as run() does; snapshot
	// before the drain flush.
	timing := s.Stats()
	if err := s.Flush(); err != nil {
		return bandslim.Stats{}, 0, 0, fmt.Errorf("bench: shards=%d: flush: %w", shards, err)
	}
	stats := s.Stats()
	stats.Host.WriteResp.Mean = timing.Host.WriteResp.Mean
	stats.Host.WriteResp.P99 = timing.Host.WriteResp.P99
	stats.Host.Elapsed = timing.Host.Elapsed
	stats.Host.ThroughputKops = timing.Host.ThroughputKops
	return stats, wall, ops, nil
}

// RunShardScaling sweeps the sharded front-end across shard counts for the
// Baseline and Adaptive+Backfill stacks. Simulated metrics (response,
// µs/op) are deterministic; wall-clock throughput depends on host cores and
// is what the sweep exists to show.
func RunShardScaling(o Options) (*Table, []ShardPoint, error) {
	o = o.normalized()
	t := &Table{
		ID: "shards", Title: "Shard Scaling: Wall-Clock Throughput & Simulated Cost",
		XLabel: "shards",
		Columns: []string{
			"Baseline_wall_kops", "Backfill_wall_kops",
			"Baseline_sim_us_op", "Backfill_sim_us_op",
		},
		Notes: []string{
			fmt.Sprintf("scale=%d ops per point, workload W(M), one feeder goroutine per shard", o.Scale),
			"wall_kops is host-machine dependent; sim_us_op is deterministic",
			"per-shard simulated clocks advance independently; sim_us_op = max shard clock / ops",
		},
	}
	var points []ShardPoint
	for _, n := range o.Shards {
		if n < 1 {
			return nil, nil, fmt.Errorf("bench: shard count must be >= 1, got %d", n)
		}
		var wallKops, simUs []float64
		for _, c := range shardConfigs {
			stats, wall, ops, err := runShardPoint(o, n, c.method, c.policy)
			if err != nil {
				return nil, nil, err
			}
			wk := float64(ops) / wall.Seconds() / 1000
			su := stats.Host.Elapsed.Micros() / float64(ops)
			wallKops = append(wallKops, wk)
			simUs = append(simUs, su)
			points = append(points, ShardPoint{
				Shards:     n,
				Config:     c.name,
				Ops:        ops,
				WallMillis: float64(wall.Microseconds()) / 1000,
				WallKops:   wk,
				SimUsPerOp: su,
				RespUs:     stats.Host.WriteResp.Mean.Micros(),
			})
		}
		t.AddRow(fmt.Sprintf("%d", n), append(wallKops, simUs...)...)
	}
	return t, points, nil
}
