// Observability surface: the command-level trace subsystem behind
// Config.Tracer, and the simulated-time metrics sampler behind
// Config.MetricsInterval with its Prometheus and CSV exporters.
//
// The simulator's components — driver, PCIe link, NVMe rings, DMA engine,
// NAND page buffer, flash array — each emit typed events stamped with
// simulated time when a Tracer is configured. With Config.Tracer nil (the
// default) every emission site is a single pointer nil check, so tracing has
// no measurable cost when disabled.
//
// Quick start:
//
//	rec := bandslim.NewRecorder(1 << 20)
//	cfg := bandslim.DefaultConfig()
//	cfg.Tracer = rec
//	db, _ := bandslim.Open(cfg)
//	// ... workload ...
//	f, _ := os.Create("trace.json")
//	bandslim.WriteChromeTrace(f, rec.TraceEvents())
//
// The resulting file loads in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing: each shard renders as a process, each subsystem as a
// thread, and one over-threshold PUT reads top-to-bottom as command fetch →
// DMA → memcpy → NAND program.
package bandslim

import (
	"io"

	"bandslim/internal/spans"
	"bandslim/internal/timeseries"
	"bandslim/internal/trace"
)

// Tracer receives command-level events, each stamped with the emitting
// shard's id. A Tracer shared by several shards receives events from
// whichever goroutines run their operations, so it must be safe for
// concurrent use.
type Tracer = trace.Tracer

// TraceEvent is one traced occurrence: a span (End > Start) such as a DMA
// transfer or NAND program, or an instant (End == Start) such as a doorbell
// write. Times are simulated nanoseconds.
type TraceEvent = trace.Event

// Recorder is a mutex-protected ring buffer Tracer: when full it evicts the
// oldest events and counts them as dropped.
type Recorder struct {
	rec *trace.Recorder
}

// NewRecorder returns a ring-buffered Tracer keeping the most recent
// capacity events (at least 1).
func NewRecorder(capacity int) *Recorder {
	return &Recorder{rec: trace.NewRecorder(capacity)}
}

// Emit records one event; it implements Tracer.
func (r *Recorder) Emit(ev TraceEvent) { r.rec.Emit(ev) }

// TraceEvents returns the buffered events in emission order.
func (r *Recorder) TraceEvents() []TraceEvent { return r.rec.Events() }

// Len reports how many events are buffered.
func (r *Recorder) Len() int { return r.rec.Len() }

// Dropped reports how many events the ring evicted.
func (r *Recorder) Dropped() int64 { return r.rec.Dropped() }

// Reset clears the buffer and the dropped count.
func (r *Recorder) Reset() { r.rec.Reset() }

// MergeTraces combines per-shard event streams into one, ordered by
// simulated start time with (shard, seq) breaking ties; the result is
// independent of stream order.
func MergeTraces(streams ...[]TraceEvent) []TraceEvent {
	return trace.Merge(streams...)
}

// WriteTraceJSONL writes one JSON object per event, one per line, with a
// fixed key order and integer nanosecond timestamps. A deterministic run
// produces byte-identical output.
func WriteTraceJSONL(w io.Writer, events []TraceEvent) error {
	return trace.WriteJSONL(w, events)
}

// WriteChromeTrace writes the events as Chrome trace_event JSON, loadable in
// Perfetto and chrome://tracing. Shards become processes; subsystems become
// threads ordered host→device.
func WriteChromeTrace(w io.Writer, events []TraceEvent) error {
	return trace.WriteChromeTrace(w, events)
}

// ReadTraceJSONL parses a stream written by WriteTraceJSONL back into
// events, in file order — the input side of offline analysis
// (bandslim-cli analyze).
func ReadTraceJSONL(r io.Reader) ([]TraceEvent, error) {
	return trace.ReadJSONL(r)
}

// BlameReport is the result of latency attribution over a trace: per-op
// stage breakdowns (each op's stages are non-negative and sum exactly to its
// end-to-end latency), plus the stream-health tallies analysis must not hide
// (unclaimed commands, in-flight commands, proven event loss).
type BlameReport = spans.Report

// BlameOp is one reconstructed operation with its stage durations.
type BlameOp = spans.Op

// BlameStage identifies one latency-attribution stage; see
// internal/spans for the stage taxonomy and priority rules.
type BlameStage = spans.Stage

// BlameCriticalPath digests one op kind's p99 tail: the stage that absorbs
// the largest share of the slowest ops' latency.
type BlameCriticalPath = spans.CriticalPath

// AnalyzeTrace reconstructs per-operation latency attribution from an event
// stream (a recorder's buffer, a merged multi-shard stream, or a re-read JSONL
// file). Pure and deterministic: the same events yield the same report.
func AnalyzeTrace(events []TraceEvent) *BlameReport {
	return spans.Analyze(events)
}

// BlameTopK returns the k slowest reconstructed ops, worst first.
func BlameTopK(r *BlameReport, k int) []BlameOp { return spans.TopK(r, k) }

// BlameCriticalPaths digests each op kind's p99 tail.
func BlameCriticalPaths(r *BlameReport) []BlameCriticalPath {
	return spans.CriticalPaths(r)
}

// WriteBlameCSV writes the per-op-kind × per-stage breakdown as a CSV table.
// Byte-deterministic for identical runs (the blame-smoke gate diffs it).
func WriteBlameCSV(w io.Writer, r *BlameReport) error { return spans.WriteCSV(w, r) }

// WriteBlameBreakdown writes the human-readable attribution report: stage
// tables per op kind, the critical-path digest, and the topK slowest ops.
func WriteBlameBreakdown(w io.Writer, r *BlameReport, topK int) error {
	return spans.WriteBreakdown(w, r, topK)
}

// sharedRecorder returns PerShard.Tracer when it is a ring recorder and no
// per-shard rings (TraceCapacity) replace it.
func (db *DB) sharedRecorder() *Recorder {
	if len(db.recs) > 0 {
		return nil
	}
	rec, _ := db.cfg.PerShard.Tracer.(*Recorder)
	return rec
}

// traceStats sums the health of the DB's trace rings.
func (db *DB) traceStats() TraceStats {
	var ts TraceStats
	for _, rec := range db.recs {
		ts.Buffered += int64(rec.Len())
		ts.Dropped += rec.Dropped()
	}
	if rec := db.sharedRecorder(); rec != nil {
		ts = TraceStats{Buffered: int64(rec.Len()), Dropped: rec.Dropped()}
	}
	return ts
}

// TraceEvents merges the per-shard recorders (TraceCapacity > 0) into one
// stream ordered by simulated start time, with (shard, seq) breaking ties.
// It returns nil when tracing was not enabled through TraceCapacity.
func (db *DB) TraceEvents() []TraceEvent {
	if len(db.recs) == 0 {
		return nil
	}
	streams := make([][]TraceEvent, len(db.recs))
	for i, rec := range db.recs {
		streams[i] = rec.Events()
	}
	return MergeTraces(streams...)
}

// TraceDropped reports the total events evicted across the per-shard trace
// rings (TraceCapacity > 0), or by a shared Tracer recorder. Zero when
// tracing is off or nothing was evicted.
func (db *DB) TraceDropped() int64 { return db.traceStats().Dropped }

// ResetTrace discards every buffered trace event (and, per ring, restarts
// the eviction window) without detaching the recorders. Sequence numbers
// keep running, so an analyzer sees the reset as a truncation, never as a
// reused number. Benchmarks use it to scope attribution to a measured phase
// after an unmeasured fill.
func (db *DB) ResetTrace() {
	for _, rec := range db.recs {
		rec.Reset()
	}
	if rec := db.sharedRecorder(); rec != nil {
		rec.Reset()
	}
}

// Blame analyzes the DB's trace rings — the merged per-shard recorders, or a
// shared Tracer that is a *Recorder — and returns the attribution report, or
// nil when neither is attached. Per-shard streams are reconstructed
// independently, so the result is deterministic regardless of shard
// interleaving. The report covers whatever the rings currently hold; check
// Lossy() before trusting per-op numbers near the buffer's start.
func (db *DB) Blame() *BlameReport {
	if len(db.recs) > 0 {
		return spans.Analyze(db.TraceEvents())
	}
	if rec := db.sharedRecorder(); rec != nil {
		return spans.Analyze(rec.TraceEvents())
	}
	return nil
}

// MetricSeries is a sampled sequence of metric snapshots on a fixed
// simulated-time grid: sample i sits at t = i × Config.MetricsInterval,
// starting from a zero-state sample at t = 0. Counters are cumulative;
// derive rates with Rate ("pcie_bytes" → PCIe bytes per simulated second).
type MetricSeries = timeseries.Series

// MetricSample is one recorded snapshot within a MetricSeries.
type MetricSample = timeseries.Sample

// MetricDesc declares one scalar metric: name, kind (counter or gauge),
// cross-shard aggregation mode, and Prometheus HELP text.
type MetricDesc = timeseries.Desc

// Series returns the simulated-time metric series recorded so far, merged
// across shards onto one time axis: counters and sum-gauges add,
// max-gauges take the max, mean-gauges average, and latency histograms merge
// bucket-exactly. It is empty (Len() == 0) unless Config.MetricsInterval was
// set at Open. The series remains readable after Close and includes the
// final flush.
func (db *DB) Series() MetricSeries {
	if len(db.samplers) == 0 {
		return MetricSeries{}
	}
	parts := make([]timeseries.Series, len(db.samplers))
	for i, sh := range db.shards {
		sh.Do(func() { parts[i] = db.samplers[i].Series() })
	}
	return timeseries.MergeSeries(parts...)
}

// WritePrometheus writes the DB's current metric state — every counter,
// gauge, and full-bucket latency histogram, aggregated across shards — in
// the Prometheus text exposition format. It works with or without the
// sampler, is safe while shards are serving (the live /metrics scrape
// path), remains usable after Close, and is deterministic: same-seed runs
// produce byte-identical output.
func (db *DB) WritePrometheus(w io.Writer) error {
	faults := db.cfg.PerShard.Faults != nil
	cached := cacheEnabled(db.cfg.PerShard)
	snaps := make([]timeseries.Snapshot, len(db.shards))
	for i, sh := range db.shards {
		sh.Do(func() { snaps[i] = snapshotStack(sh.Stack(), faults, cached) })
	}
	descs := descsFor(faults, cached)
	if err := timeseries.WritePrometheus(w, "bandslim", descs, timeseries.MergeSnapshots(descs, snaps), histHelp); err != nil {
		return err
	}
	// Trace-ring health and stage-blame families follow as a separate
	// section, only when a ring recorder is attached: untraced runs keep
	// byte-identical exposition (the golden-smoke guarantee).
	rep := db.Blame()
	if rep == nil {
		return nil
	}
	ts := db.traceStats()
	return timeseries.WritePrometheus(w, "bandslim", traceDescs, blameSnapshot(ts.Buffered, ts.Dropped, rep), blameHistHelp)
}

// WriteServerPrometheus writes a network front-end's counters in the
// Prometheus text exposition format. The server_* families are disjoint from
// the simulation families, so a serving process can concatenate this after
// DB.WritePrometheus to form one valid exposition; embedded runs that never
// call it keep byte-identical exporter output.
func WriteServerPrometheus(w io.Writer, s ServerStats) error {
	snap := timeseries.Snapshot{Values: serverSnapshotValues(s)}
	return timeseries.WritePrometheus(w, "bandslim", serverDescs, snap, nil)
}

// WriteSeriesCSV writes a metric series as one CSV table: a t_us time axis,
// every scalar column, per-counter _per_sec rate columns, and
// count/mean/p50/p99 columns per latency distribution — the same shape the
// results/*.csv figure pipeline consumes. Deterministic for same-seed runs.
func WriteSeriesCSV(w io.Writer, s MetricSeries) error {
	return timeseries.WriteCSV(w, s)
}
