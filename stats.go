package bandslim

import (
	"fmt"

	"bandslim/internal/driver"
	"bandslim/internal/metrics"
	"bandslim/internal/pcie"
	"bandslim/internal/shard"
	"bandslim/internal/sim"
	"bandslim/internal/spans"
	"bandslim/internal/timeseries"
)

// LatencySummary digests one response-time distribution: the numbers a
// snapshot can carry without exposing the live histogram.
type LatencySummary struct {
	Count int64
	Mean  sim.Duration
	P50   sim.Duration
	P99   sim.Duration
	Max   sim.Duration
}

// latencySummary digests a histogram into the public summary type.
func latencySummary(h *metrics.Histogram) LatencySummary {
	s := h.Summary()
	return LatencySummary{
		Count: s.Count,
		Mean:  sim.Duration(s.Mean),
		P50:   sim.Duration(s.P50),
		P99:   sim.Duration(s.P99),
		Max:   sim.Duration(s.Max),
	}
}

// HostStats are the metrics observed at the driver: operation counts and
// simulated response times.
type HostStats struct {
	Puts, Gets, Deletes int64
	Commands            int64 // NVMe commands issued
	WriteResp           LatencySummary
	ReadResp            LatencySummary
	Elapsed             sim.Duration // simulated time since open
	ThroughputKops      float64      // PUTs per simulated second / 1000
}

// PCIeStats is the interconnect byte ledger (Fig. 3, 8, 9, 10c, 10d).
type PCIeStats struct {
	Bytes           int64 // command fetches + DMA payload (the paper's "PCIe traffic")
	TotalBytes      int64 // + completions and doorbells, as PCM counts TLPs
	DMABytes        int64
	CommandBytes    int64
	MMIOBytes       int64 // doorbell traffic
	CompletionBytes int64
}

// DeviceStats are the in-device metrics (Fig. 4, 11, 12).
type DeviceStats struct {
	NANDPageWrites int64 // total NAND programs, incl. LSM flush/compaction/GC
	NANDPageReads  int64
	BlockErases    int64
	VLogFlushes    int64 // value-log page writes only
	ForcedFlushes  int64
	BackfillJumps  int64
	MemcpyTime     sim.Duration // cumulative device copy time
	FlushWaitTime  sim.Duration // cumulative request time blocked on NAND flushes
	Memcpys        int64
	BufferUtil     float64 // payload bytes / flushed NAND bytes in the vLog
	GCWrites       int64
	Compactions    int64
}

// AdaptiveStats count the adaptive method's per-value transfer decisions.
type AdaptiveStats struct {
	Inline, PRP, Hybrid int64
}

// FaultStats count injected faults and the recovery work they triggered.
// All-zero unless Config.Faults armed the injector.
type FaultStats struct {
	NandProgramFaults int64 // injected NAND program failures
	NandReadFaults    int64 // injected NAND read failures
	NandEraseFaults   int64 // injected NAND erase failures
	TransferFaults    int64 // injected DMA transfer errors
	BadBlocks         int64 // NAND blocks retired by the FTL
	FTLRetries        int64 // FTL program redirect-retries after media faults
	PowerCuts         int64 // power cuts taken by the device
	Mounts            int64 // recovery mounts performed
	ReplayedRecords   int64 // journal records replayed at mount
	Retries           int64 // host re-submissions of retryable completions
	RetriesExhausted  int64 // commands that failed every retry
	Recoveries        int64 // host-initiated Recover calls
}

// CacheStats count the tiered read path's activity: device-DRAM value and
// SSTable-page tiers, the strict invalidation protocol, and the host-side
// negative cache. All-zero unless Config.Cache arms a tier.
type CacheStats struct {
	Hits          int64 // value-tier hits (reads served from device DRAM)
	Misses        int64 // value-tier misses (reads that walked the LSM)
	PageHits      int64 // SSTable-page-tier hits
	PageMisses    int64 // SSTable-page-tier misses
	Evictions     int64 // entries evicted across both device tiers
	Invalidations int64 // entries dropped by the strict invalidation protocol
	NegHits       int64 // Gets short-circuited host-side by the negative cache
	NegLearned    int64 // keys admitted to the recent-miss ring
}

// ServerStats count the network front-end's activity: connections, commands
// by opcode, backpressure stalls, and wire bytes. All-zero unless a serving
// process (internal/server) is attached; the simulation core never writes
// these.
type ServerStats struct {
	Accepted int64 // connections accepted since start
	Active   int64 // connections currently open

	// Commands dispatched, by opcode. Other counts unrecognized commands
	// (each also answered with a RESP error).
	Ping, Set, Get, Del, MSet, MGet, Scan, Info, Shutdown, Other int64

	Errors   int64 // RESP error replies written
	Stalls   int64 // backpressure stalls: reader blocked on a full in-flight window
	BytesIn  int64 // bytes read off client sockets
	BytesOut int64 // bytes written to client sockets
}

// TraceStats describe the trace ring's health: how many events it holds and
// how many it evicted. All-zero unless a ring-buffered Recorder is attached
// (Config.Tracer or ShardedConfig.TraceCapacity). A nonzero Dropped means
// span reconstruction over the buffer sees a truncated stream.
type TraceStats struct {
	Buffered int64 // events currently held by the ring
	Dropped  int64 // events evicted after the ring filled
}

// Stats is a point-in-time snapshot of everything the paper measures,
// grouped by where it is measured.
type Stats struct {
	Host     HostStats
	PCIe     PCIeStats
	Device   DeviceStats
	Adaptive AdaptiveStats
	Cache    CacheStats
	Faults   FaultStats
	Server   ServerStats
	Trace    TraceStats
}

// Stats aggregates a point-in-time snapshot across every shard: counters and
// byte ledgers sum exactly, latency distributions merge exactly (see
// metrics.Histogram.Merge), Elapsed is the max over shard clocks, and
// BufferUtil is the flush-weighted mean. It remains readable after Close.
func (db *DB) Stats() Stats {
	snaps := make([]shardSnapshot, len(db.shards))
	for i, sh := range db.shards {
		sh.Do(func() {
			st := sh.Stack()
			snaps[i] = shardSnapshot{
				stats:      stackStats(st),
				write:      st.Drv.Stats().WriteResponse.Clone(),
				read:       st.Drv.Stats().ReadResponse.Clone(),
				bufFlushed: st.Dev.Buffer().Stats().Flushes.Value(),
			}
		})
	}
	out := mergeSnapshots(snaps)
	out.Trace = db.traceStats()
	return out
}

// ShardStats snapshots one shard's counters (for per-shard balance checks).
func (db *DB) ShardStats(i int) Stats {
	var out Stats
	sh := db.shards[i]
	sh.Do(func() { out = stackStats(sh.Stack()) })
	return out
}

// shardSnapshot is one shard's raw measurement: the flattened counters plus
// the pieces that cannot be aggregated from flattened values alone.
type shardSnapshot struct {
	stats      Stats
	write      *metrics.Histogram
	read       *metrics.Histogram
	bufFlushed int64 // pagebuf pages flushed, weighting BufferUtil
}

// mergeSnapshots folds per-shard snapshots into one aggregate Stats. A
// single shard's snapshot is the aggregate as is.
func mergeSnapshots(snaps []shardSnapshot) Stats {
	if len(snaps) == 1 {
		return snaps[0].stats
	}
	var out Stats
	write, read := metrics.NewHistogram(), metrics.NewHistogram()
	var flushed int64
	for _, sn := range snaps {
		p := sn.stats
		out.Host.Puts += p.Host.Puts
		out.Host.Gets += p.Host.Gets
		out.Host.Deletes += p.Host.Deletes
		out.Host.Commands += p.Host.Commands
		out.PCIe.Bytes += p.PCIe.Bytes
		out.PCIe.TotalBytes += p.PCIe.TotalBytes
		out.PCIe.DMABytes += p.PCIe.DMABytes
		out.PCIe.CommandBytes += p.PCIe.CommandBytes
		out.PCIe.MMIOBytes += p.PCIe.MMIOBytes
		out.PCIe.CompletionBytes += p.PCIe.CompletionBytes
		out.Device.NANDPageWrites += p.Device.NANDPageWrites
		out.Device.NANDPageReads += p.Device.NANDPageReads
		out.Device.BlockErases += p.Device.BlockErases
		out.Device.VLogFlushes += p.Device.VLogFlushes
		out.Device.ForcedFlushes += p.Device.ForcedFlushes
		out.Device.BackfillJumps += p.Device.BackfillJumps
		out.Device.MemcpyTime += p.Device.MemcpyTime
		out.Device.FlushWaitTime += p.Device.FlushWaitTime
		out.Device.Memcpys += p.Device.Memcpys
		out.Device.GCWrites += p.Device.GCWrites
		out.Device.Compactions += p.Device.Compactions
		out.Adaptive.Inline += p.Adaptive.Inline
		out.Adaptive.PRP += p.Adaptive.PRP
		out.Adaptive.Hybrid += p.Adaptive.Hybrid
		out.Cache.Hits += p.Cache.Hits
		out.Cache.Misses += p.Cache.Misses
		out.Cache.PageHits += p.Cache.PageHits
		out.Cache.PageMisses += p.Cache.PageMisses
		out.Cache.Evictions += p.Cache.Evictions
		out.Cache.Invalidations += p.Cache.Invalidations
		out.Cache.NegHits += p.Cache.NegHits
		out.Cache.NegLearned += p.Cache.NegLearned
		out.Faults.NandProgramFaults += p.Faults.NandProgramFaults
		out.Faults.NandReadFaults += p.Faults.NandReadFaults
		out.Faults.NandEraseFaults += p.Faults.NandEraseFaults
		out.Faults.TransferFaults += p.Faults.TransferFaults
		out.Faults.BadBlocks += p.Faults.BadBlocks
		out.Faults.FTLRetries += p.Faults.FTLRetries
		out.Faults.PowerCuts += p.Faults.PowerCuts
		out.Faults.Mounts += p.Faults.Mounts
		out.Faults.ReplayedRecords += p.Faults.ReplayedRecords
		out.Faults.Retries += p.Faults.Retries
		out.Faults.RetriesExhausted += p.Faults.RetriesExhausted
		out.Faults.Recoveries += p.Faults.Recoveries
		if p.Host.Elapsed > out.Host.Elapsed {
			out.Host.Elapsed = p.Host.Elapsed
		}
		write.Merge(sn.write)
		read.Merge(sn.read)
		flushed += sn.bufFlushed
	}
	out.Host.WriteResp = latencySummary(write)
	out.Host.ReadResp = latencySummary(read)
	if flushed > 0 {
		var weighted float64
		for _, sn := range snaps {
			weighted += sn.stats.Device.BufferUtil * float64(sn.bufFlushed)
		}
		out.Device.BufferUtil = weighted / float64(flushed)
	}
	if out.Host.Elapsed > 0 && out.Host.Puts > 0 {
		out.Host.ThroughputKops = float64(out.Host.Puts) / out.Host.Elapsed.Seconds() / 1000
	}
	return out
}

// stackStats flattens one stack's counters into a Stats. The caller holds
// the shard mutex.
func stackStats(st *shard.Stack) Stats {
	ds := st.Drv.Stats()
	fs := st.Dev.Flash().Stats()
	bs := st.Dev.Buffer().Stats()
	es := st.Dev.Engine().Stats()
	elapsed := st.Clock.Now().Sub(0)
	s := Stats{
		Host: HostStats{
			Puts:      ds.Puts.Value(),
			Gets:      ds.Gets.Value(),
			Deletes:   ds.Deletes.Value(),
			Commands:  ds.CommandsIssued.Value(),
			WriteResp: latencySummary(ds.WriteResponse),
			ReadResp:  latencySummary(ds.ReadResponse),
			Elapsed:   elapsed,
		},
		PCIe: PCIeStats{
			Bytes:           st.Link.HostToDeviceBytes(),
			TotalBytes:      st.Link.TotalBytes(),
			DMABytes:        st.Link.Traf.DMABytes.Value(),
			CommandBytes:    st.Link.Traf.CommandBytes.Value(),
			MMIOBytes:       st.Link.MMIOTrafficBytes(),
			CompletionBytes: st.Link.Traf.CompletionBytes.Value(),
		},
		Device: DeviceStats{
			NANDPageWrites: fs.PageWrites.Value(),
			NANDPageReads:  fs.PageReads.Value(),
			BlockErases:    fs.BlockErases.Value(),
			VLogFlushes:    bs.Flushes.Value(),
			ForcedFlushes:  bs.ForcedFlushes.Value(),
			BackfillJumps:  bs.BackfillJumps.Value(),
			MemcpyTime:     sim.Duration(es.MemcpyTime.Value()),
			FlushWaitTime:  sim.Duration(bs.FlushWaitTime.Value()),
			Memcpys:        es.Memcpys.Value(),
			BufferUtil:     st.Dev.Buffer().Utilization(),
			GCWrites:       st.Dev.FTL().Stats().GCWrites.Value(),
			Compactions:    st.Dev.Tree().Stats().Compactions.Value(),
		},
		Adaptive: AdaptiveStats{
			Inline: ds.InlineChosen.Value(),
			PRP:    ds.PRPChosen.Value(),
			Hybrid: ds.HybridChosen.Value(),
		},
		Cache: CacheStats{
			Hits:          st.Dev.Stats().CacheHits.Value(),
			Misses:        st.Dev.Stats().CacheMisses.Value(),
			PageHits:      st.Dev.Stats().PageCacheHits.Value(),
			PageMisses:    st.Dev.Stats().PageCacheMisses.Value(),
			Evictions:     st.Dev.Stats().CacheEvictions.Value(),
			Invalidations: st.Dev.Stats().CacheInvalidations.Value(),
			NegHits:       ds.NegativeHits.Value(),
			NegLearned:    ds.NegativeLearned.Value(),
		},
		Faults: FaultStats{
			NandProgramFaults: fs.ProgramFaults.Value(),
			NandReadFaults:    fs.ReadFaults.Value(),
			NandEraseFaults:   fs.EraseFaults.Value(),
			TransferFaults:    es.TransferFaults.Value(),
			BadBlocks:         st.Dev.FTL().Stats().BadBlocks.Value(),
			FTLRetries:        st.Dev.FTL().Stats().ProgramFaults.Value(),
			PowerCuts:         st.Dev.Stats().PowerCuts.Value(),
			Mounts:            st.Dev.Stats().Mounts.Value(),
			ReplayedRecords:   st.Dev.Stats().ReplayedRecords.Value(),
			Retries:           ds.Retries.Value(),
			RetriesExhausted:  ds.RetriesExhausted.Value(),
			Recoveries:        ds.Recoveries.Value(),
		},
	}
	if elapsed > 0 && s.Host.Puts > 0 {
		s.Host.ThroughputKops = float64(s.Host.Puts) / elapsed.Seconds() / 1000
	}
	return s
}

// counter and gauge shorthand for the seriesDescs table.
func counter(name, help string) timeseries.Desc {
	return timeseries.Desc{Name: name, Kind: timeseries.KindCounter, Agg: timeseries.AggSum, Help: help}
}

func gauge(name string, agg timeseries.Agg, help string) timeseries.Desc {
	return timeseries.Desc{Name: name, Kind: timeseries.KindGauge, Agg: agg, Help: help}
}

// seriesDescs declares every scalar metric the sampler records, in column
// order; snapshotStack builds Values in exactly this order.
var seriesDescs = []timeseries.Desc{
	counter("host_puts", "PUT operations completed at the driver."),
	counter("host_gets", "GET operations completed at the driver."),
	counter("host_deletes", "DELETE operations completed at the driver."),
	counter("host_commands", "NVMe commands issued."),
	counter("pcie_bytes", "PCIe command-fetch plus DMA payload bytes (the paper's PCIe traffic)."),
	counter("pcie_total_bytes", "All PCIe bytes including completions and doorbells, as PCM counts TLPs."),
	counter("pcie_dma_bytes", "PCIe DMA payload bytes."),
	counter("pcie_command_bytes", "PCIe command-fetch bytes."),
	counter("pcie_mmio_bytes", "PCIe doorbell MMIO bytes."),
	counter("pcie_completion_bytes", "PCIe completion bytes."),
	counter("nand_page_writes", "NAND pages programmed, incl. LSM flush/compaction/GC."),
	counter("nand_page_reads", "NAND pages read."),
	counter("nand_block_erases", "NAND blocks erased."),
	counter("vlog_flushes", "Value-log page writes."),
	counter("vlog_forced_flushes", "Forced (early) page-buffer flushes."),
	counter("backfill_jumps", "Write-pointer backfill jumps in the page buffer."),
	counter("device_memcpys", "In-device memcpy operations."),
	counter("device_memcpy_time_ns", "Cumulative in-device copy time, simulated ns."),
	counter("device_flush_wait_time_ns", "Cumulative request time blocked on NAND flushes, simulated ns."),
	counter("vlog_gc_writes", "NAND page writes caused by vLog garbage collection."),
	counter("lsm_compactions", "LSM-tree compactions run."),
	counter("adaptive_inline", "Adaptive method: values sent inline."),
	counter("adaptive_prp", "Adaptive method: values sent via PRP DMA."),
	counter("adaptive_hybrid", "Adaptive method: values sent hybrid."),
	gauge("sim_time_ns", timeseries.AggMax, "Simulated time of the snapshot, ns."),
	gauge("buffer_util", timeseries.AggMean, "Payload bytes per flushed NAND byte in the vLog page buffer."),
	gauge("buffer_wp", timeseries.AggSum, "Page-buffer write pointer (vLog byte offset)."),
	gauge("buffer_frontier", timeseries.AggSum, "Page-buffer placement frontier (vLog byte offset)."),
	gauge("buffer_open_pages", timeseries.AggSum, "Open page-buffer entries."),
	gauge("vlog_free_bytes", timeseries.AggSum, "Value-log space left before compaction."),
	gauge("flash_max_wear", timeseries.AggMax, "Highest per-block erase count in the flash array."),
	gauge("wire_utilization", timeseries.AggMean, "Fraction of simulated time the PCIe wire was busy."),
}

// faultDescs extend seriesDescs when Config.Faults arms the injector. They
// are appended only then, so fault-free runs keep byte-identical exporter
// output (the golden-smoke guarantee).
var faultDescs = []timeseries.Desc{
	counter("fault_nand_program", "Injected NAND program failures."),
	counter("fault_nand_read", "Injected NAND read failures."),
	counter("fault_nand_erase", "Injected NAND erase failures."),
	counter("fault_dma_transfer", "Injected DMA transfer errors."),
	counter("ftl_bad_blocks", "NAND blocks retired by the FTL."),
	counter("ftl_program_retries", "FTL program redirect-retries after media faults."),
	counter("device_power_cuts", "Power cuts taken by the device."),
	counter("device_mounts", "Recovery mounts performed."),
	counter("device_replayed_records", "Journal records replayed at mount."),
	counter("host_retries", "Host re-submissions of retryable completions."),
	counter("host_retries_exhausted", "Commands that failed every retry."),
	counter("host_recoveries", "Host-initiated recoveries."),
}

// cacheDescs extend seriesDescs when Config.Cache arms a read-cache tier.
// Like faultDescs they are appended only then, so cache-free runs keep
// byte-identical exporter output (the golden-smoke guarantee).
var cacheDescs = []timeseries.Desc{
	counter("cache_value_hits", "Device value-tier cache hits (reads served from device DRAM)."),
	counter("cache_value_misses", "Device value-tier cache misses (reads that walked the LSM)."),
	counter("cache_page_hits", "Device SSTable-page-tier cache hits."),
	counter("cache_page_misses", "Device SSTable-page-tier cache misses."),
	counter("cache_evictions", "Entries evicted across both device cache tiers."),
	counter("cache_invalidations", "Cache entries dropped by the strict invalidation protocol."),
	counter("cache_negative_hits", "GETs short-circuited host-side by the negative cache."),
	counter("cache_negative_learned", "Keys admitted to the negative cache's recent-miss ring."),
}

// serverDescs declare the network front-end's scalar metrics. Like
// faultDescs they ride a separate exposition (WriteServerPrometheus, written
// only by a serving process), so embedded and simulation-only runs keep
// byte-identical exporter output.
var serverDescs = []timeseries.Desc{
	counter("server_conns_accepted", "Client connections accepted."),
	gauge("server_conns_active", timeseries.AggSum, "Client connections currently open."),
	counter("server_cmd_ping", "PING commands served."),
	counter("server_cmd_set", "SET commands served."),
	counter("server_cmd_get", "GET commands served."),
	counter("server_cmd_del", "DEL commands served."),
	counter("server_cmd_mset", "MSET commands served."),
	counter("server_cmd_mget", "MGET commands served."),
	counter("server_cmd_scan", "SCAN commands served."),
	counter("server_cmd_info", "INFO commands served."),
	counter("server_cmd_shutdown", "SHUTDOWN commands served."),
	counter("server_cmd_other", "Unrecognized commands (answered with an error)."),
	counter("server_errors", "RESP error replies written."),
	counter("server_backpressure_stalls", "Reader stalls on a full in-flight window."),
	counter("server_bytes_in", "Bytes read off client sockets."),
	counter("server_bytes_out", "Bytes written to client sockets."),
}

// serverSnapshotValues flattens a ServerStats in serverDescs order.
func serverSnapshotValues(s ServerStats) []float64 {
	return []float64{
		float64(s.Accepted),
		float64(s.Active),
		float64(s.Ping),
		float64(s.Set),
		float64(s.Get),
		float64(s.Del),
		float64(s.MSet),
		float64(s.MGet),
		float64(s.Scan),
		float64(s.Info),
		float64(s.Shutdown),
		float64(s.Other),
		float64(s.Errors),
		float64(s.Stalls),
		float64(s.BytesIn),
		float64(s.BytesOut),
	}
}

// traceDescs declare the trace-ring health and latency-attribution scalar
// metrics. They ride a separate exposition section appended only when a
// ring-buffered Recorder is attached, so untraced runs (including the golden
// smoke) keep byte-identical exporter output.
var traceDescs = []timeseries.Desc{
	gauge("trace_buffered", timeseries.AggSum, "Trace events currently held by the ring recorder."),
	counter("trace_dropped", "Trace events evicted after the ring filled (attribution over the buffer is truncated)."),
	counter("blame_ops", "Operations reconstructed by latency attribution."),
	counter("blame_unclaimed_commands", "Completed commands no operation claimed (flushes, scans, missed keys)."),
	counter("blame_incomplete_commands", "Commands in flight at snapshot time or lost to power cuts."),
	counter("blame_truncated_events", "Events the trace Seq numbering proves missing."),
}

// blameHistHelp supplies HELP text for the per-stage blame families.
var blameHistHelp = func() map[string]string {
	m := map[string]string{
		"blame_e2e_ns": "Reconstructed end-to-end op latency by op kind, simulated ns.",
	}
	for s := spans.Stage(0); s < spans.NumStages; s++ {
		m["blame_"+s.String()+"_ns"] = "Attributed " + s.String() + " stage time per op, by op kind, simulated ns."
	}
	return m
}()

// blameSnapshot flattens a span report plus ring health into the exposition
// snapshot traceDescs describes: scalars in desc order, then one histogram
// per (stage family, op kind), op kinds in first-observation order.
func blameSnapshot(buffered, dropped int64, rep *spans.Report) timeseries.Snapshot {
	agg := spans.Summarize(rep)
	values := []float64{
		float64(buffered),
		float64(dropped),
		float64(len(rep.Ops)),
		float64(rep.Unclaimed),
		float64(rep.Incomplete),
		float64(rep.TruncatedEvents),
	}
	var hists []timeseries.Hist
	for _, name := range agg.E2E.Names() {
		hists = append(hists, timeseries.Hist{
			Key: timeseries.HistKey{Name: "blame_e2e_ns", Label: "op", Value: name},
			H:   agg.E2E.Get(name),
		})
	}
	for s := spans.Stage(0); s < spans.NumStages; s++ {
		fam := "blame_" + s.String() + "_ns"
		for _, name := range agg.Stage[s].Names() {
			hists = append(hists, timeseries.Hist{
				Key: timeseries.HistKey{Name: fam, Label: "op", Value: name},
				H:   agg.Stage[s].Get(name),
			})
		}
	}
	return timeseries.Snapshot{Values: values, Hists: hists}
}

// descsFor returns the sampler/exporter column set: the base descriptors,
// plus the fault columns when the injector is armed and the cache columns
// when a read-cache tier is configured.
func descsFor(faults, cached bool) []timeseries.Desc {
	if !faults && !cached {
		return seriesDescs
	}
	out := make([]timeseries.Desc, 0, len(seriesDescs)+len(faultDescs)+len(cacheDescs))
	out = append(out, seriesDescs...)
	if faults {
		out = append(out, faultDescs...)
	}
	if cached {
		out = append(out, cacheDescs...)
	}
	return out
}

// histHelp supplies Prometheus HELP text per histogram family.
var histHelp = map[string]string{
	"write_response_ns":      "Simulated PUT response time, ns.",
	"read_response_ns":       "Simulated GET response time, ns.",
	"op_round_trip_ns":       "NVMe command round-trip time by opcode, ns.",
	"put_method_response_ns": "PUT response time by chosen transfer method, ns.",
}

// snapshotStack reads one stack's full metric state as a timeseries
// snapshot: the flattened Stats tree, the Inspect-style gauges, and clones
// of every latency histogram. Values are built in seriesDescs order. The
// caller holds the shard mutex.
func snapshotStack(st *shard.Stack, faults, cached bool) timeseries.Snapshot {
	s := stackStats(st)
	buf := st.Dev.Buffer()
	now := st.Clock.Now()
	values := []float64{
		float64(s.Host.Puts),
		float64(s.Host.Gets),
		float64(s.Host.Deletes),
		float64(s.Host.Commands),
		float64(s.PCIe.Bytes),
		float64(s.PCIe.TotalBytes),
		float64(s.PCIe.DMABytes),
		float64(s.PCIe.CommandBytes),
		float64(s.PCIe.MMIOBytes),
		float64(s.PCIe.CompletionBytes),
		float64(s.Device.NANDPageWrites),
		float64(s.Device.NANDPageReads),
		float64(s.Device.BlockErases),
		float64(s.Device.VLogFlushes),
		float64(s.Device.ForcedFlushes),
		float64(s.Device.BackfillJumps),
		float64(s.Device.Memcpys),
		float64(s.Device.MemcpyTime),
		float64(s.Device.FlushWaitTime),
		float64(s.Device.GCWrites),
		float64(s.Device.Compactions),
		float64(s.Adaptive.Inline),
		float64(s.Adaptive.PRP),
		float64(s.Adaptive.Hybrid),
		float64(now),
		s.Device.BufferUtil,
		float64(buf.WP()),
		float64(buf.Frontier()),
		float64(buf.OpenPages()),
		float64(st.Dev.VLog().FreeBytes()),
		float64(st.Dev.Flash().MaxWear()),
		st.Link.WireUtilization(now),
	}
	if faults {
		values = append(values,
			float64(s.Faults.NandProgramFaults),
			float64(s.Faults.NandReadFaults),
			float64(s.Faults.NandEraseFaults),
			float64(s.Faults.TransferFaults),
			float64(s.Faults.BadBlocks),
			float64(s.Faults.FTLRetries),
			float64(s.Faults.PowerCuts),
			float64(s.Faults.Mounts),
			float64(s.Faults.ReplayedRecords),
			float64(s.Faults.Retries),
			float64(s.Faults.RetriesExhausted),
			float64(s.Faults.Recoveries),
		)
	}
	if cached {
		values = append(values,
			float64(s.Cache.Hits),
			float64(s.Cache.Misses),
			float64(s.Cache.PageHits),
			float64(s.Cache.PageMisses),
			float64(s.Cache.Evictions),
			float64(s.Cache.Invalidations),
			float64(s.Cache.NegHits),
			float64(s.Cache.NegLearned),
		)
	}
	ds := st.Drv.Stats()
	hists := []timeseries.Hist{
		{Key: timeseries.HistKey{Name: "write_response_ns"}, H: ds.WriteResponse.Clone()},
		{Key: timeseries.HistKey{Name: "read_response_ns"}, H: ds.ReadResponse.Clone()},
	}
	for _, name := range ds.PerOp.Names() {
		hists = append(hists, timeseries.Hist{
			Key: timeseries.HistKey{Name: "op_round_trip_ns", Label: "op", Value: name},
			H:   ds.PerOp.Get(name).Clone(),
		})
	}
	for _, name := range ds.PerMethod.Names() {
		hists = append(hists, timeseries.Hist{
			Key: timeseries.HistKey{Name: "put_method_response_ns", Label: "method", Value: name},
			H:   ds.PerMethod.Get(name).Clone(),
		})
	}
	return timeseries.Snapshot{Values: values, Hists: hists}
}

// TrafficAmplification reports PCIe bytes per payload byte written — the
// TAF of Fig. 3(b) when every PUT carries size payload bytes.
func (s Stats) TrafficAmplification(payloadBytes int64) float64 {
	if payloadBytes <= 0 {
		return 0
	}
	return float64(s.PCIe.Bytes) / float64(payloadBytes)
}

// WriteAmplification reports NAND bytes programmed per payload byte — the
// WAF of Fig. 4(b).
func (s Stats) WriteAmplification(payloadBytes int64, nandPageSize int) float64 {
	if payloadBytes <= 0 {
		return 0
	}
	return float64(s.Device.NANDPageWrites) * float64(nandPageSize) / float64(payloadBytes)
}

// String renders a compact human-readable summary.
func (s Stats) String() string {
	return fmt.Sprintf(
		"puts=%d gets=%d cmds=%d wresp=%v pcie=%s mmio=%s nandw=%d memcpy=%v thr=%.1fKops",
		s.Host.Puts, s.Host.Gets, s.Host.Commands, s.Host.WriteResp.Mean,
		metrics.FormatBytes(s.PCIe.Bytes), metrics.FormatBytes(s.PCIe.MMIOBytes),
		s.Device.NANDPageWrites, s.Device.MemcpyTime, s.Host.ThroughputKops)
}

// CalibrateThresholds performs the §3.2 exploratory runs: it probes PUT
// response times across value sizes on throwaway DBs (NAND disabled, as the
// paper's transfer benchmarks do) and derives Threshold1 (where piggybacking
// stops beating PRP) and Threshold2 (the largest over-page tail for which
// hybrid beats PRP). Alpha and Beta default to 1.
func CalibrateThresholds(perSize int) (Thresholds, error) {
	if perSize < 1 {
		return Thresholds{}, fmt.Errorf("bandslim: perSize must be >= 1")
	}
	probe := func(m TransferMethod, size int) (sim.Duration, error) {
		cfg := DefaultConfig()
		cfg.Method = m
		cfg.DisableNAND = true
		db, err := Open(cfg)
		if err != nil {
			return 0, err
		}
		filler := make([]byte, size)
		key := []byte{0, 0, 0, 0}
		for i := 0; i < perSize; i++ {
			key[0], key[1] = byte(i>>8), byte(i)
			if err := db.Put(key, filler); err != nil {
				return 0, err
			}
		}
		return db.Stats().Host.WriteResp.Mean, nil
	}
	thr := driver.DefaultThresholds()
	// Threshold1: largest probed size where piggybacking is no slower.
	thr.Threshold1 = 35
	for _, size := range []int{4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096} {
		pig, err := probe(Piggyback, size)
		if err != nil {
			return thr, err
		}
		prp, err := probe(Baseline, size)
		if err != nil {
			return thr, err
		}
		if pig <= prp {
			thr.Threshold1 = size
		}
	}
	// Threshold2: largest over-page tail where hybrid is no slower.
	thr.Threshold2 = 0
	for _, tail := range []int{4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4095} {
		hyb, err := probe(Hybrid, pcie.MemoryPageSize+tail)
		if err != nil {
			return thr, err
		}
		prp, err := probe(Baseline, pcie.MemoryPageSize+tail)
		if err != nil {
			return thr, err
		}
		if hyb <= prp {
			thr.Threshold2 = tail
		}
	}
	if thr.Threshold2 == 0 {
		thr.Threshold2 = driver.DefaultThresholds().Threshold2
	}
	return thr, nil
}
