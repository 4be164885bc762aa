// Package bandslim is a full-system simulation of BandSlim (Park et al.,
// ICPP 2024): a bandwidth- and space-efficient key-value SSD that escapes
// block-oriented I/O with fine-grained inline value transfer over NVMe
// commands and selective value packing with backfilling inside the NAND page
// buffer.
//
// The package exposes the whole stack — host driver, NVMe queues, PCIe link
// model, DMA engine, NAND page buffer with all four packing policies,
// KV-separated LSM-tree, vLog, FTL, and NAND flash array — behind a simple
// key-value API:
//
//	db, err := bandslim.Open(bandslim.DefaultConfig())
//	if err != nil { ... }
//	defer db.Close()
//	err = db.Put([]byte("key"), []byte("value"))
//	v, err := db.Get([]byte("key"))
//
// Everything runs on a deterministic virtual clock; db.Stats() exposes the
// byte-exact PCIe traffic ledger, NAND write counts, and simulated response
// times the paper's evaluation reports.
package bandslim

import (
	"fmt"

	"bandslim/internal/cache"
	"bandslim/internal/device"
	"bandslim/internal/driver"
	"bandslim/internal/metrics"
	"bandslim/internal/nand"
	"bandslim/internal/pagebuf"
	"bandslim/internal/shard"
	"bandslim/internal/sim"
	"bandslim/internal/timeseries"
	"bandslim/internal/trace"
)

// TransferMethod selects how values travel from host to device (§3.2).
type TransferMethod = driver.Method

// Transfer methods.
const (
	// Baseline transfers every value via PRP page-unit DMA, as stock NVMe
	// KV-SSDs do.
	Baseline = driver.MethodBaseline
	// Piggyback ships every value inline in NVMe command fields.
	Piggyback = driver.MethodPiggyback
	// Hybrid DMAs the page-aligned head and piggybacks the tail.
	Hybrid = driver.MethodHybrid
	// Adaptive switches between the three based on calibrated thresholds.
	Adaptive = driver.MethodAdaptive
	// SGL transfers every value via Scatter-Gather List — the §2.5
	// comparator: exact bytes on the wire, but a setup cost that only
	// amortizes above ~32 KB.
	SGL = driver.MethodSGL
)

// PackingPolicy selects the in-device NAND page buffer policy (§3.3).
type PackingPolicy = pagebuf.Policy

// Packing policies.
const (
	// Block is the baseline: page-unit packing along 4 KiB boundaries.
	Block = pagebuf.PolicyBlock
	// AllPacking packs every value densely at the write pointer.
	AllPacking = pagebuf.PolicyAll
	// SelectivePacking packs only piggybacked values; DMA values stay
	// page-aligned.
	SelectivePacking = pagebuf.PolicySelective
	// BackfillPacking is Selective Packing with Backfilling — the paper's
	// headline policy.
	BackfillPacking = pagebuf.PolicyBackfill
)

// Thresholds re-exports the adaptive transfer calibration.
type Thresholds = driver.Thresholds

// SubmissionConfig is the driver's complete submission policy: the
// in-flight window depth behind the batch-read paths, doorbell batching
// (which also enables burst submission of multi-command PUTs), and
// interrupt-coalescing-style completion sweeps. The zero value reproduces
// the paper's synchronous passthrough byte-identically.
type SubmissionConfig = driver.SubmissionConfig

// ConfigError reports a submission-policy field that failed validation;
// Open, OpenSharded, and Tune return it wrapped — match with errors.As.
type ConfigError = driver.ConfigError

// Tuning is a snapshot update for a live DB's runtime knobs, with per-field
// presence semantics: nil fields keep their current value, set fields apply
// together after validation. See DB.Tune.
type Tuning = driver.Tuning

// CacheConfig sizes the tiered read path: the simulated device-DRAM read
// cache (a value tier for vLog entries and a page tier for SSTable pages,
// both behind a pluggable eviction policy) plus the host-side negative cache
// that short-circuits known-missing keys before any NVMe command is built.
// The zero value disables every tier and keeps the simulation byte-identical
// to a cache-free build.
type CacheConfig = cache.Config

// CachePolicy selects the device read cache's eviction policy.
type CachePolicy = cache.Kind

// Cache eviction policies.
const (
	// CacheLRU evicts the least-recently-used entry.
	CacheLRU = cache.LRU
	// CacheCLOCK approximates LRU with a one-bit clock hand.
	CacheCLOCK = cache.CLOCK
	// Cache2Q is the scan-resistant two-queue policy: entries earn a place
	// in the hot queue only on a second touch.
	Cache2Q = cache.TwoQ
)

// ParseCachePolicy parses a policy name ("lru", "clock", "2q").
func ParseCachePolicy(s string) (CachePolicy, error) { return cache.ParseKind(s) }

// ServingCacheConfig returns the serving-profile cache sizing: a 4 MiB LRU
// value tier, a 64-page SSTable tier, and a 1024-entry negative cache — the
// operating point bandslim-server's --cache flag enables.
func ServingCacheConfig() CacheConfig { return cache.ServingProfile() }

// SimTime is a point on the simulated clock (nanoseconds since open); DB.Now
// and MetricSample.T use it.
type SimTime = sim.Time

// SimDuration is a span of simulated time in nanoseconds — the unit of
// Config.MetricsInterval and the latency fields of Stats.
type SimDuration = sim.Duration

// Simulated-time units for building SimDuration values without reaching
// into internal packages, e.g. cfg.MetricsInterval = 100 * bandslim.SimMicrosecond.
const (
	SimNanosecond  = sim.Nanosecond
	SimMicrosecond = sim.Microsecond
	SimMillisecond = sim.Millisecond
	SimSecond      = sim.Second
)

// Config assembles a DB.
type Config struct {
	// Method is the host-side transfer strategy.
	Method TransferMethod
	// Policy is the device-side packing policy.
	Policy PackingPolicy
	// Thresholds calibrate the Adaptive method. A fully zero-valued
	// Thresholds means "use DefaultThresholds()"; to deliberately run with
	// Threshold1 = 0 (never piggyback), set any other field non-zero, e.g.
	// Thresholds{Alpha: 1, Beta: 1}.
	Thresholds Thresholds
	// Device tunes the simulated hardware. Leave zero to use the default
	// Cosmos+-like platform.
	Device device.Config
	// DisableNAND turns off persistence, isolating transfer behaviour as
	// the paper's §4.2 experiments do.
	DisableNAND bool
	// Submission is the host's submission policy: window depth (QueueDepth
	// >= 2 keeps that many commands in flight on the batch-read paths),
	// doorbell batching, and completion coalescing. The zero value is the
	// paper's synchronous passthrough — one command per round trip — with
	// timings byte-identical to earlier releases. Validated at Open; a bad
	// field fails with a wrapped ConfigError.
	Submission SubmissionConfig
	// Tracer, when non-nil, receives every command-level event the stack
	// emits: driver submissions, doorbell MMIO, command fetches, SQ/CQ ring
	// transitions, DMA transfers, page-buffer placements and flushes, and
	// NAND operations, all stamped with simulated time. Use NewRecorder for
	// an in-memory ring buffer. Nil (the default) keeps tracing at zero
	// cost: every emission site is behind a single nil check.
	Tracer Tracer
	// MetricsInterval, when > 0, enables the simulated-time metrics
	// sampler: the full Stats tree, buffer/vLog gauges, and the latency
	// histograms are snapshotted every MetricsInterval simulated
	// nanoseconds. Read the result with DB.Series and
	// export it with WriteSeriesCSV; WritePrometheus works with or without
	// the sampler. Zero (the default) disables sampling entirely.
	MetricsInterval sim.Duration
	// Faults, when non-nil, arms the deterministic fault injector: the plan's
	// rules fire NAND media errors, transient transfer errors, and power cuts
	// at seed-determined points (see ParseFaultPlan). Nil — the default —
	// leaves every fault path disabled at zero cost, and the simulation's
	// outputs are byte-identical to a build without the subsystem.
	Faults *FaultPlan
	// Retry tunes the driver's response to transient (retryable) completions.
	// The zero value means DefaultRetryPolicy; a negative MaxRetries disables
	// retries entirely.
	Retry RetryPolicy
	// Cache arms the tiered read path: device-DRAM value/page caches plus
	// the host-side negative cache. The zero value (the default) disables
	// every tier at zero cost — timings, allocations, and exporter output
	// stay byte-identical to a cache-free run. Validated at Open. A non-zero
	// Cache here overrides Device.Cache.
	Cache CacheConfig
}

// DefaultConfig returns the paper's headline configuration: adaptive
// transfer with Selective Packing with Backfilling on a Cosmos+-like device.
func DefaultConfig() Config {
	return Config{
		Method:     Adaptive,
		Policy:     BackfillPacking,
		Thresholds: driver.DefaultThresholds(),
		Device:     device.DefaultConfig(),
	}
}

// ShardedConfig assembles a multi-shard DB.
type ShardedConfig struct {
	// Shards is the number of independent device shards (>= 1). Each shard
	// is a full host+device stack with its own simulated clock, PCIe link,
	// NVMe queue pair, driver, and device.
	Shards int
	// PerShard configures every shard's stack, with the same semantics and
	// defaults as Open. A non-nil PerShard.Tracer is shared by every shard
	// (events carry shard ids); it must be safe for concurrent use.
	PerShard Config
	// TraceCapacity, when > 0, gives every shard its own ring-buffered
	// recorder of that capacity and overrides PerShard.Tracer. Read the
	// merged stream with TraceEvents.
	TraceCapacity int
}

// DefaultShardedConfig returns the paper's headline per-shard configuration
// across the given number of shards.
func DefaultShardedConfig(shards int) ShardedConfig {
	return ShardedConfig{Shards: shards, PerShard: DefaultConfig()}
}

// DB is a simulated host driving one or more KV-SSD shards. Open builds the
// paper's testbed: one host + device pair behind one synchronous SQ/CQ pair.
// OpenSharded hash-partitions keys across N such pairs, like a multi-queue
// NVMe deployment with per-queue controllers; the shard count is the only
// difference between the two.
//
// Every operation runs on the caller's goroutine under the mutex of the
// shard that serves it. A batch spanning several shards runs its lanes in
// parallel: the last on the caller, the others on per-shard helper
// goroutines (OpenSharded(N) starts N-1 of them; Open starts none).
//
// Each shard is deterministic: the key partition fixes which shard serves
// each operation, the shard mutex admits operations in submission order,
// and per-shard simulated clocks advance independently. Aggregate Stats are
// therefore order-independent: byte ledgers and NAND counts sum exactly,
// latency distributions merge exactly, and aggregate simulated time is the
// max over shard clocks (shards run in parallel, so the slowest defines the
// span).
//
// All methods are safe for concurrent use; operations on different shards
// proceed in parallel, operations on one shard serialize in arrival order.
type DB struct {
	cfg      ShardedConfig
	g        *shard.Group
	shards   []*shard.Shard
	recs     []*trace.Recorder     // per-shard recorders (TraceCapacity > 0)
	samplers []*timeseries.Sampler // per-shard samplers (MetricsInterval > 0)
}

// ShardedDB is DB; the name reads better where the shard count is above one.
type ShardedDB = DB

// stackOptions normalizes a Config into the options every shard's stack is
// built from, so all shards are byte-identical.
func stackOptions(cfg Config) shard.Options {
	dcfg := cfg.Device
	if dcfg.Geometry == (nand.Geometry{}) {
		dcfg = device.DefaultConfig()
	}
	dcfg.Buffer.Policy = cfg.Policy
	dcfg.NANDEnabled = !cfg.DisableNAND
	thr := cfg.Thresholds
	if thr.IsZero() {
		thr = driver.DefaultThresholds()
	}
	if cfg.Cache != (CacheConfig{}) {
		dcfg.Cache = cfg.Cache
	}
	return shard.Options{
		Device:     dcfg,
		Method:     cfg.Method,
		Thresholds: thr,
		Submission: cfg.Submission,
		Tracer:     cfg.Tracer,
		Faults:     cfg.Faults,
		Retry:      cfg.Retry,
	}
}

// cacheEnabled reports whether the normalized config arms any read-cache
// tier — the switch that adds the cache_* exporter columns. Cache-free runs
// keep byte-identical exposition (the golden-smoke guarantee).
func cacheEnabled(cfg Config) bool {
	return stackOptions(cfg).Device.Cache.Enabled()
}

// partitionSeed keys the shard partitioner. Fixed, so a given key always
// lands on the same shard across processes and runs.
const partitionSeed = 0xBA4D511E

// Open builds the paper's testbed: a one-shard DB. It starts no goroutine.
func Open(cfg Config) (*DB, error) {
	return OpenSharded(ShardedConfig{Shards: 1, PerShard: cfg})
}

// OpenSharded builds Shards independent stacks behind one DB.
func OpenSharded(cfg ShardedConfig) (*DB, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("bandslim: ShardedConfig.Shards must be >= 1, got %d", cfg.Shards)
	}
	base := stackOptions(cfg.PerShard)
	opts := make([]shard.Options, cfg.Shards)
	var recs []*trace.Recorder
	for i := range opts {
		opts[i] = base
		opts[i].ShardID = i
		if cfg.TraceCapacity > 0 {
			rec := trace.NewRecorder(cfg.TraceCapacity)
			recs = append(recs, rec)
			opts[i].Tracer = rec
		}
	}
	g, err := shard.NewGroup(opts, partitionSeed)
	if err != nil {
		return nil, fmt.Errorf("bandslim: %w", err)
	}
	db := &DB{cfg: cfg, g: g, shards: g.Shards(), recs: recs}
	if interval := cfg.PerShard.MetricsInterval; interval > 0 {
		// One sampler per shard, polled under the shard mutex after every
		// operation.
		faults := cfg.PerShard.Faults != nil
		cached := cacheEnabled(cfg.PerShard)
		for _, sh := range db.shards {
			st := sh.Stack()
			smp := timeseries.NewSampler(interval, descsFor(faults, cached),
				func() timeseries.Snapshot { return snapshotStack(st, faults, cached) })
			sh.SetAfterOp(func() { smp.Poll(st.Clock.Now()) })
			db.samplers = append(db.samplers, smp)
		}
	}
	return db, nil
}

// Error sentinels. Both are plain errors.New values: match them with
// errors.Is, including through wrapped returns.
var (
	// ErrClosed is returned by operations on a closed DB.
	ErrClosed = shard.ErrClosed
	// ErrIterDone reports an exhausted device-side iterator, surfaced by
	// the raw SEEK/NEXT path; Iterator translates it into Valid() == false.
	ErrIterDone = driver.ErrIterDone
)

// NumShards reports the shard count.
func (db *DB) NumShards() int { return len(db.shards) }

// ShardFor reports which shard index serves key.
func (db *DB) ShardFor(key []byte) int { return db.g.ShardFor(key) }

// Put stores a key-value pair on the key's shard. Keys are 1–16 bytes.
func (db *DB) Put(key, value []byte) error { return db.g.For(key).Put(key, value) }

// Get fetches the value for key. The returned slice is a view into the
// shard driver's reusable read buffer: it stays valid until that shard's
// next operation and must not be modified. Callers that retain the value —
// or run operations concurrently from other goroutines — should use
// GetInto, which copies before the shard is released.
func (db *DB) Get(key []byte) ([]byte, error) { return db.g.For(key).Get(key) }

// GetInto fetches the value for key and copies it into dst (grown as
// needed), returning the filled slice. Unlike Get, the result is caller-
// owned: it remains valid across later operations and under concurrent use.
// Pass a reused buffer to make steady-state reads allocation-free.
func (db *DB) GetInto(key, dst []byte) ([]byte, error) { return db.g.For(key).GetInto(key, dst) }

// Delete removes a key.
func (db *DB) Delete(key []byte) error { return db.g.For(key).Delete(key) }

// PutBatch writes the pairs through each shard's host-side batcher as bulk
// OpKVBatchWrite commands and flushes, so every record is durable when it
// returns. One bulk command amortizes per-command round trips across up to
// 128 records — the high-throughput ingest path. Lanes on different shards
// run in parallel. The first error in shard order wins; records on other
// shards may still have been written.
func (db *DB) PutBatch(keys, values [][]byte) error {
	if len(keys) != len(values) {
		return fmt.Errorf("bandslim: PutBatch got %d keys and %d values", len(keys), len(values))
	}
	return db.g.PutBatch(keys, values)
}

// GetBatch resolves every key, copying each value into the matching vals
// lane (vals[i], grown as needed; a nil vals allocates one). The filled
// slice-of-slices is returned; values are caller-owned copies, so passing
// the returned slice back in makes the steady state allocation-free. On
// error, lanes after the failing key on that shard are left untouched.
func (db *DB) GetBatch(keys, vals [][]byte) ([][]byte, error) {
	if vals == nil {
		vals = make([][]byte, len(keys))
	}
	if len(vals) != len(keys) {
		return vals, fmt.Errorf("bandslim: GetBatch got %d keys and %d dst lanes", len(keys), len(vals))
	}
	return vals, db.g.GetBatch(keys, vals)
}

// GetBatchSparse resolves keys in bulk like GetBatch, but an absent key sets
// miss[i] (and empties its vals lane) instead of failing the batch — the
// lookup MGET and coalesced GET runs ride, where a miss must become a null
// reply, not an error. miss must have len(keys) entries.
func (db *DB) GetBatchSparse(keys, vals [][]byte, miss []bool) ([][]byte, error) {
	if vals == nil {
		vals = make([][]byte, len(keys))
	}
	if len(vals) != len(keys) || len(miss) != len(keys) {
		return vals, fmt.Errorf("bandslim: GetBatchSparse got %d keys, %d dst lanes, %d miss flags",
			len(keys), len(vals), len(miss))
	}
	return vals, db.g.GetBatchSparse(keys, vals, miss)
}

// Flush forces every shard's buffered values and index entries to NAND, in
// parallel. The first error in shard order wins.
func (db *DB) Flush() error { return db.g.Flush() }

// Close flushes every shard, stops the helper goroutines, and shuts the DB.
// Further operations fail with ErrClosed; Stats, Now, and the exporters stay
// readable. Idempotent.
func (db *DB) Close() error { return db.g.Close() }

// Iterator streams key-value pairs in global key order, k-way merging the
// shards' device-side SEEK/NEXT iterators. Each pair is copied out of the
// driver's read buffer, so it stays valid while the caller interleaves other
// DB operations. Each shard's device holds a single iterator, so writes
// interleaved with iteration invalidate the snapshot (as on the real
// device); iterate before mutating. After Close, Next fails with ErrClosed.
type Iterator = shard.MergeIterator

// NewIterator opens an iterator at the first key >= start (nil starts at the
// beginning). The iterator is positioned on its first pair; check Valid.
func (db *DB) NewIterator(start []byte) (*Iterator, error) {
	if start == nil {
		start = []byte{0}
	}
	return shard.NewMergeIterator(db.shards, start)
}

// Now reports the aggregate simulated time: the max over shard clocks, since
// shards advance independently like parallel NVMe queues.
func (db *DB) Now() sim.Time {
	var max sim.Time
	for _, sh := range db.shards {
		if t := sh.Now(); t > max {
			max = t
		}
	}
	return max
}

// Tune applies the present (non-nil) fields of a Tuning to every shard —
// transfer method, thresholds, retry policy, and submission policy. Each
// driver validates Submission before applying any field and every shard
// sees the same Tuning, so an invalid policy fails with a ConfigError
// without leaving the shards half-tuned. It fails with ErrClosed after
// Close.
func (db *DB) Tune(t Tuning) error {
	for _, sh := range db.shards {
		if err := sh.Tune(t); err != nil {
			return err
		}
	}
	return nil
}

// Submission reports the submission policy in effect on shard 0 (Tune keeps
// every shard on the same policy).
func (db *DB) Submission() SubmissionConfig {
	var sub SubmissionConfig
	sh := db.shards[0]
	sh.Do(func() { sub = sh.Stack().Drv.Submission() })
	return sub
}

// OpLatency is one named latency distribution inside an Inspection — a
// per-opcode command round trip or a per-transfer-method PUT response.
type OpLatency struct {
	Name string
	LatencySummary
}

// Inspection is a read-only snapshot of the simulation's internal state.
// Every field is a copy; holding one never races with ongoing operations.
type Inspection struct {
	// Host-side configuration in effect.
	Method     TransferMethod
	Thresholds Thresholds
	Submission SubmissionConfig
	// Device-side packing policy in effect.
	Policy PackingPolicy
	// Now is the simulated time of the snapshot.
	Now sim.Time
	// WireUtilization is the fraction of simulated time the PCIe wire was
	// busy.
	WireUtilization float64
	// Page-buffer state: write pointer, placement frontier (vLog byte
	// offsets), and open buffer entries.
	BufferWP       int64
	BufferFrontier int64
	OpenPages      int
	// VLogFreeBytes is the value-log space left before compaction.
	VLogFreeBytes int64
	// MaxWear is the highest per-block erase count in the flash array.
	MaxWear int
	// OpLatency breaks command round-trip time down by NVMe opcode;
	// MethodLatency breaks PUT response time down by transfer mode chosen.
	// Both are in first-observation order.
	OpLatency     []OpLatency
	MethodLatency []OpLatency
	// Trace reports the trace rings' health (zero without a ring
	// recorder). Nonzero Dropped means latency attribution over the buffer
	// sees a truncated stream.
	Trace TraceStats
}

// summarizeSet digests a HistogramSet into the public OpLatency slice.
func summarizeSet(set *metrics.HistogramSet) []OpLatency {
	names := set.Names()
	out := make([]OpLatency, 0, len(names))
	for _, name := range names {
		out = append(out, OpLatency{Name: name, LatencySummary: latencySummary(set.Get(name))})
	}
	return out
}

// Inspect snapshots shard 0's internal state, plus the health of every
// trace ring. It remains usable after Close (the snapshot reflects the final
// state).
func (db *DB) Inspect() Inspection {
	var ins Inspection
	sh := db.shards[0]
	sh.Do(func() {
		st := sh.Stack()
		buf := st.Dev.Buffer()
		now := st.Clock.Now()
		ins = Inspection{
			Method:          st.Drv.Method(),
			Thresholds:      st.Drv.Thresholds(),
			Submission:      st.Drv.Submission(),
			Policy:          buf.Policy(),
			Now:             now,
			WireUtilization: st.Link.WireUtilization(now),
			BufferWP:        buf.WP(),
			BufferFrontier:  buf.Frontier(),
			OpenPages:       buf.OpenPages(),
			VLogFreeBytes:   st.Dev.VLog().FreeBytes(),
			MaxWear:         st.Dev.Flash().MaxWear(),
			OpLatency:       summarizeSet(st.Drv.Stats().PerOp),
			MethodLatency:   summarizeSet(st.Drv.Stats().PerMethod),
		}
	})
	ins.Trace = db.traceStats()
	return ins
}

// Batcher buffers PUTs on the host and ships them as bulk writes — the
// Dotori/KV-CSD-style comparator (§2). Records are volatile until their
// batch flushes; see driver.Batcher for the data-loss accounting.
type Batcher = driver.Batcher

// NewBatcher returns a host-side batcher flushing every batchSize records.
// The batcher drives one device directly, so it needs a one-shard DB.
func (db *DB) NewBatcher(batchSize int) (*Batcher, error) {
	if len(db.shards) > 1 {
		return nil, fmt.Errorf("bandslim: NewBatcher needs a one-shard DB, this one has %d shards", len(db.shards))
	}
	var b *Batcher
	err := db.shards[0].Exec(func(st *shard.Stack) (err error) {
		b, err = st.Drv.NewBatcher(batchSize)
		return err
	})
	return b, err
}

// CompactVLog garbage-collects the oldest `pages` value-log pages on every
// shard (WiscKey-style): live values relocate to the log head, dead space
// from overwrites and deletes is reclaimed, and the freed NAND pages are
// trimmed. It reports how many values were relocated in total. Call when
// VLogFreeBytes runs low on delete/overwrite-heavy workloads.
func (db *DB) CompactVLog(pages int) (int, error) {
	total := 0
	for _, sh := range db.shards {
		n, err := sh.CompactVLog(pages)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// VLogFreeBytes reports how much value-log space remains, summed over
// shards, before compaction is required.
func (db *DB) VLogFreeBytes() int64 {
	var free int64
	for _, sh := range db.shards {
		sh.Do(func() { free += sh.Stack().Dev.VLog().FreeBytes() })
	}
	return free
}

// DeviceInfo is the controller's identify structure (model, capacity,
// geometry, and BandSlim capability fields).
type DeviceInfo = device.IdentifyData

// Identify fetches shard 0's identify structure via the NVMe admin path the
// paper's design preserves.
func (db *DB) Identify() (DeviceInfo, error) {
	var info DeviceInfo
	err := db.shards[0].Exec(func(st *shard.Stack) (err error) {
		info, err = st.Drv.Identify()
		return err
	})
	return info, err
}
