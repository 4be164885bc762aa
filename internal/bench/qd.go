package bench

// Queue-depth sweep: how far the async submission window lifts read
// throughput over the paper's synchronous testbed. Every figure in the
// output is simulated (no wall-clock fields), so two runs with the same
// scale and seed produce byte-identical BENCH_qd.json — the determinism
// gate `make determinism-smoke` relies on that.

import (
	"encoding/json"
	"fmt"

	"bandslim"
	"bandslim/internal/device"
	"bandslim/internal/driver"
	"bandslim/internal/sim"
	"bandslim/internal/workload"
)

// qdDepths is the sweep: 1 is the paper's sync passthrough, the rest open
// the window.
var qdDepths = []int{1, 2, 4, 8, 16, 32}

// qdShards is the fixed shard count of the sweep's baseline stack.
const qdShards = 4

// qdChunk is the keys-per-GetBatch call during the read phase.
const qdChunk = 256

// QDPoint is one depth measurement, shaped for BENCH_qd.json. All fields
// are simulated and deterministic.
type QDPoint struct {
	Depth         int     `json:"depth"`
	Shards        int     `json:"shards"`
	Ops           int64   `json:"ops"`
	SimElapsedUs  float64 `json:"sim_elapsed_us"` // read-phase simulated time
	SimKops       float64 `json:"sim_kops"`       // ops per simulated second / 1000
	SimUsPerOp    float64 `json:"sim_us_per_op"`  // read-phase time / ops
	ReadRespUs    float64 `json:"read_resp_us"`   // mean simulated read response
	ReadRespP99Us float64 `json:"read_resp_p99_us"`
	MMIOBytes     int64   `json:"mmio_bytes"`      // read-phase doorbell traffic
	SpeedupVsSync float64 `json:"speedup_vs_sync"` // SimKops / depth-1 SimKops
}

// QDSweepJSON renders the points as indented JSON for BENCH_qd.json.
func QDSweepJSON(points []QDPoint) ([]byte, error) {
	return json.MarshalIndent(points, "", "  ")
}

// qdSubmission maps a sweep depth to the submission policy under test.
func qdSubmission(depth int) bandslim.SubmissionConfig {
	if depth <= 1 {
		return bandslim.SubmissionConfig{}
	}
	return bandslim.SubmissionConfig{
		QueueDepth:       depth,
		DoorbellBatch:    8,
		CoalesceInterval: 2 * sim.Microsecond,
	}
}

// runQDPoint builds a fresh 4-shard stack at the given depth, loads the
// keyspace, then reads every key back in qdChunk batches and reports the
// read phase in simulated terms.
func runQDPoint(o Options, depth int) (QDPoint, error) {
	cfg := bandslim.DefaultConfig()
	cfg.Method = bandslim.Adaptive
	cfg.Policy = bandslim.BackfillPacking
	dev := device.DefaultConfig()
	dev.Geometry = benchGeometry()
	cfg.Device = dev
	cfg.Thresholds = driver.DefaultThresholds()
	cfg.Submission = qdSubmission(depth)
	s, err := bandslim.OpenSharded(bandslim.ShardedConfig{Shards: qdShards, PerShard: cfg})
	if err != nil {
		return QDPoint{}, err
	}
	defer s.Close()

	nkeys := o.Scale
	if nkeys < qdChunk {
		nkeys = qdChunk
	}
	keys := make([][]byte, nkeys)
	rng := sim.NewRNG(o.Seed ^ 0x9D)
	filler := workload.NewValueFiller(1)
	vals := make([][]byte, nkeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("qd%07d", i))
		vals[i] = filler.Fill(nil, 16+rng.Intn(2048))
	}
	for at := 0; at < nkeys; at += qdChunk {
		end := at + qdChunk
		if end > nkeys {
			end = nkeys
		}
		if err := s.PutBatch(keys[at:end], vals[at:end]); err != nil {
			return QDPoint{}, fmt.Errorf("bench: qd depth=%d: fill: %w", depth, err)
		}
	}

	// Read back in a seeded uniform-random order. Insertion order would
	// visit the packed vLog pages sequentially — consecutive reads landing
	// on the same NAND way — which serializes any window; random reads
	// spread across channels and ways, the access pattern the depth sweep
	// is about.
	order := make([][]byte, nkeys)
	copy(order, keys)
	for i := nkeys - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	loaded := s.Stats()
	dst := make([][]byte, qdChunk)
	var ops int64
	for at := 0; at < nkeys; at += qdChunk {
		end := at + qdChunk
		if end > nkeys {
			end = nkeys
		}
		out, err := s.GetBatch(order[at:end], dst[:end-at])
		if err != nil {
			return QDPoint{}, fmt.Errorf("bench: qd depth=%d: read: %w", depth, err)
		}
		copy(dst, out)
		ops += int64(end - at)
	}
	st := s.Stats()

	elapsed := st.Host.Elapsed - loaded.Host.Elapsed
	us := elapsed.Micros()
	kops := 0.0
	if us > 0 {
		kops = float64(ops) / (us / 1e6) / 1000
	}
	return QDPoint{
		Depth:         depth,
		Shards:        qdShards,
		Ops:           ops,
		SimElapsedUs:  us,
		SimKops:       kops,
		SimUsPerOp:    us / float64(ops),
		ReadRespUs:    st.Host.ReadResp.Mean.Micros(),
		ReadRespP99Us: st.Host.ReadResp.P99.Micros(),
		MMIOBytes:     st.PCIe.MMIOBytes - loaded.PCIe.MMIOBytes,
	}, nil
}

// RunQDSweep sweeps the submission window depth on the 4-shard baseline
// stack. Every column is simulated, so the sweep doubles as a determinism
// check: identical options must reproduce the table bit-for-bit.
func RunQDSweep(o Options) (*Table, []QDPoint, error) {
	o = o.normalized()
	t := &Table{
		ID: "qd", Title: "Queue Depth Sweep: Async Submission Window vs Sync Passthrough",
		XLabel:  "depth",
		Columns: []string{"sim_kops", "sim_us_op", "read_p99_us", "mmio_KiB", "speedup_vs_sync"},
		Notes: []string{
			fmt.Sprintf("scale=%d keys, %d shards, read phase in %d-key GetBatch chunks", o.Scale, qdShards, qdChunk),
			"depth 1 = the paper's synchronous testbed; depth N = async window with doorbell batching + 2µs coalescing",
			"all values simulated and deterministic for a given -scale/-seed",
		},
	}
	var points []QDPoint
	var syncKops float64
	for _, depth := range qdDepths {
		p, err := runQDPoint(o, depth)
		if err != nil {
			return nil, nil, err
		}
		if depth == 1 {
			syncKops = p.SimKops
		}
		if syncKops > 0 {
			p.SpeedupVsSync = p.SimKops / syncKops
		}
		points = append(points, p)
		t.AddRow(fmt.Sprintf("%d", depth),
			p.SimKops, p.SimUsPerOp, p.ReadRespP99Us, float64(p.MMIOBytes)/1024, p.SpeedupVsSync)
	}
	return t, points, nil
}
