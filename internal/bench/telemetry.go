package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bandslim"
	"bandslim/internal/device"
	"bandslim/internal/driver"
	"bandslim/internal/sim"
	"bandslim/internal/workload"
)

// DefaultMetricsInterval is the simulated sampling period telemetry runs
// use when the caller does not pick one: fine enough to resolve the
// paper's trajectories at bench scales, coarse enough to keep series small.
const DefaultMetricsInterval = 100 * sim.Microsecond

// Telemetry drives one instrumented workload-M run on a multi-shard DB with
// simulated-time metrics sampler enabled, and exposes live progress while
// the feeders execute — the backing for bandslim-bench's -metrics-out,
// -series-out, and -listen flags. Simulated results are deterministic for a
// given (scale, seed, shards, interval); only wall-clock figures vary.
type Telemetry struct {
	// DB is the live sharded stack. Scrape it concurrently with
	// WritePrometheus/Stats; the caller closes it when done.
	DB       *bandslim.DB
	opsTotal int64
	opsDone  atomic.Int64
	start    time.Time
	wg       sync.WaitGroup
	errs     []error
}

// StartTelemetry opens the instrumented stack (paper headline config:
// adaptive transfer, backfill packing, NAND on) and starts one feeder
// goroutine per shard over pre-partitioned workload-M lanes. It returns as
// soon as the feeders are running.
func StartTelemetry(o Options, shards int, interval sim.Duration) (*Telemetry, error) {
	o = o.normalized()
	if shards < 1 {
		shards = 1
	}
	if interval <= 0 {
		interval = DefaultMetricsInterval
	}
	cfg := bandslim.DefaultConfig()
	dev := device.DefaultConfig()
	dev.Geometry = benchGeometry()
	cfg.Device = dev
	cfg.Thresholds = driver.DefaultThresholds()
	cfg.MetricsInterval = interval
	db, err := bandslim.OpenSharded(bandslim.ShardedConfig{Shards: shards, PerShard: cfg})
	if err != nil {
		return nil, fmt.Errorf("bench: telemetry: %w", err)
	}

	type op struct {
		key  []byte
		size int
	}
	gen := workload.NewWorkloadM(o.Scale, o.Seed)
	lanes := make([][]op, shards)
	var total int64
	for {
		next, ok := gen.Next()
		if !ok {
			break
		}
		lane := db.ShardFor(next.Key)
		lanes[lane] = append(lanes[lane], op{key: next.Key, size: next.ValueSize})
		total++
	}

	t := &Telemetry{DB: db, opsTotal: total, start: time.Now(), errs: make([]error, shards)}
	for i := range lanes {
		t.wg.Add(1)
		go func(i int) {
			defer t.wg.Done()
			var buf []byte
			filler := workload.NewValueFiller(1)
			for _, p := range lanes[i] {
				buf = filler.Fill(buf, p.size)
				if err := db.Put(p.key, buf); err != nil {
					t.errs[i] = err
					return
				}
				t.opsDone.Add(1)
			}
		}(i)
	}
	return t, nil
}

// Wait blocks until every feeder finishes, then flushes the drained state
// to NAND so exports cover the whole workload. The DB stays open for final
// scrapes and exports; the caller closes it.
func (t *Telemetry) Wait() error {
	t.wg.Wait()
	for i, err := range t.errs {
		if err != nil {
			return fmt.Errorf("bench: telemetry: shard %d: %w", i, err)
		}
	}
	if err := t.DB.Flush(); err != nil {
		return fmt.Errorf("bench: telemetry: flush: %w", err)
	}
	return nil
}

// Progress is the live /progress JSON shape: how far the run is, the
// simulated trajectory so far, and current wall-clock and simulated rates.
type Progress struct {
	OpsDone           int64   `json:"ops_done"`
	OpsTotal          int64   `json:"ops_total"`
	WallMillis        float64 `json:"wall_ms"`
	WallKops          float64 `json:"wall_kops"`
	SimElapsedUs      float64 `json:"sim_elapsed_us"`
	SimThroughputKops float64 `json:"sim_throughput_kops"`
	PCIeBytes         int64   `json:"pcie_bytes"`
	NANDPageWrites    int64   `json:"nand_page_writes"`
	WriteRespUs       float64 `json:"write_resp_us"`
}

// Progress snapshots the run's live state; safe to call concurrently with
// the feeders (the scrape path of the -listen HTTP endpoints).
func (t *Telemetry) Progress() Progress {
	stats := t.DB.Stats()
	done := t.opsDone.Load()
	wall := time.Since(t.start)
	p := Progress{
		OpsDone:           done,
		OpsTotal:          t.opsTotal,
		WallMillis:        float64(wall.Microseconds()) / 1000,
		SimElapsedUs:      float64(stats.Host.Elapsed.Micros()),
		SimThroughputKops: stats.Host.ThroughputKops,
		PCIeBytes:         stats.PCIe.Bytes,
		NANDPageWrites:    stats.Device.NANDPageWrites,
		WriteRespUs:       stats.Host.WriteResp.Mean.Micros(),
	}
	if secs := wall.Seconds(); secs > 0 {
		p.WallKops = float64(done) / secs / 1000
	}
	return p
}
