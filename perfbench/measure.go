package main

import (
	"bufio"
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"bandslim"
)

// opKind labels a timed call.
type opKind uint8

const (
	kindPut opKind = iota
	kindGet
	kindPipeline // one RESP pipeline batch: write, then read every reply
	kindPhase    // a benchmark phase: setup, timed, check
	kindRun      // the whole pass
)

var kindNames = [...]string{"put", "get", "pipeline", "phase", "run"}

// span is one wall-clock interval the benchmark recorded around a call it
// made into the front-end or the server. Times are ns since the pass began.
type span struct {
	id, parent uint64
	kind       opKind
	name       string // phase name; empty for op spans
	start, end int64
}

// recorder collects a phase's per-op wall latencies and outcomes, and, in
// the traced pass, its spans.
type recorder struct {
	base    time.Time
	lat     []int64 // ns per op
	failed  int     // errors, wrong values and unexpected misses
	spans   []span
	traced  bool
	nextID  uint64
	phaseID uint64 // parent of op spans
}

func newRecorder(base time.Time, traced bool, idBase uint64) *recorder {
	return &recorder{base: base, traced: traced, nextID: idBase}
}

// now reads the wall clock as ns since the pass began.
func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// newID allocates a span id.
func (r *recorder) newID() uint64 {
	r.nextID++
	return r.nextID
}

// op records one completed call; a parent of 0 means the current phase.
func (r *recorder) op(k opKind, start, end int64, bad bool, parent uint64) {
	r.lat = append(r.lat, end-start)
	if bad {
		r.failed++
	}
	if r.traced {
		if parent == 0 {
			parent = r.phaseID
		}
		r.record(r.newID(), parent, k, "", start, end)
	}
}

// record keeps one span in the traced pass.
func (r *recorder) record(id, parent uint64, k opKind, name string, start, end int64) {
	if !r.traced {
		return
	}
	r.spans = append(r.spans, span{id: id, parent: parent, kind: k, name: name, start: start, end: end})
}

// quantiles returns the nearest-rank q-quantiles of ns samples, in µs.
func quantiles(ns []int64, qs ...float64) []float64 {
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := make([]float64, len(qs))
	if len(s) == 0 {
		return out
	}
	for i, q := range qs {
		k := int(math.Ceil(q*float64(len(s)))) - 1
		if k < 0 {
			k = 0
		}
		out[i] = float64(s[k]) / 1e3
	}
	return out
}

// hist is one cumulative Prometheus histogram: ascending finite bounds, the
// cumulative count at each, and the total (the +Inf bucket).
type hist struct {
	le    []float64
	cum   []int64
	total int64
}

// at reports the cumulative count below bound x. The exposition trims
// leading empty and trailing full buckets, so bounds below the first listed
// one hold nothing and bounds past the last hold everything.
func (h hist) at(x float64) int64 {
	i := sort.SearchFloat64s(h.le, x)
	if i < len(h.le) && h.le[i] == x {
		return h.cum[i]
	}
	if i == 0 {
		return 0
	}
	if i == len(h.le) {
		return h.total
	}
	return h.cum[i-1]
}

// Histogram series the simulated latencies come from, as exposition line
// prefixes. Batched writes (PutBatch, and the RESP server's coalesced SETs)
// record one sample per bulk command in the round-trip family instead of
// the write response family.
var (
	readSeries  = []string{`bandslim_read_response_ns_bucket{`}
	writeSeries = []string{`bandslim_write_response_ns_bucket{`, `bandslim_op_round_trip_ns_bucket{op="KVBatchWrite",`}
)

// parseHists reads the histogram series named by prefixes out of a
// Prometheus text exposition written by WritePrometheus.
func parseHists(expo []byte, prefixes []string) []hist {
	out := make([]hist, len(prefixes))
	sc := bufio.NewScanner(bytes.NewReader(expo))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		for i, prefix := range prefixes {
			if !strings.HasPrefix(line, prefix) {
				continue
			}
			rest := line[len(prefix):]
			le, ok := strings.CutPrefix(rest, `le="`)
			q := strings.IndexByte(le, '"')
			sp := strings.LastIndexByte(le, ' ')
			if !ok || q < 0 || sp < 0 {
				continue
			}
			cnt, err := strconv.ParseInt(le[sp+1:], 10, 64)
			if err != nil {
				continue
			}
			h := &out[i]
			if le[:q] == "+Inf" {
				h.total = cnt
			} else if b, err := strconv.ParseFloat(le[:q], 64); err == nil {
				h.le = append(h.le, b)
				h.cum = append(h.cum, cnt)
			}
		}
	}
	return out
}

// histGrowth is the metrics package's bucket growth factor: the lower edge
// of a bucket is its upper bound divided by this.
const histGrowth = 1.08006

// deltaQuantile estimates the q-quantile, in µs, of the samples observed
// between two snapshots of nanosecond histograms that share one bucket
// layout (before[i] and after[i] are one series), interpolating linearly
// inside the bucket that holds the rank. It also returns the sample count.
func deltaQuantile(before, after []hist, q float64) (float64, int64) {
	var n int64
	var bounds []float64
	for i := range after {
		n += after[i].total - before[i].total
		bounds = append(append(bounds, before[i].le...), after[i].le...)
	}
	if n <= 0 {
		return 0, 0
	}
	sort.Float64s(bounds)
	rank := q * float64(n)
	prevBound, prevCum := 0.0, int64(0)
	for i, b := range bounds {
		if i > 0 && b == bounds[i-1] {
			continue
		}
		var c int64
		for j := range after {
			c += after[j].at(b) - before[j].at(b)
		}
		if float64(c) >= rank && c > prevCum {
			lo := prevBound
			if prevCum == 0 {
				lo = b / histGrowth
			}
			frac := (rank - float64(prevCum)) / float64(c-prevCum)
			return (lo + frac*(b-lo)) / 1e3, n
		}
		prevBound, prevCum = b, c
	}
	return prevBound / 1e3, n
}

// simLatency holds the simulated read and write response-time quantiles,
// in µs, of the ops between two expositions, with their sample counts.
type simLatency struct {
	readP50, readP99, writeP50, writeP99 float64
	reads, writes                        int64
}

func simLatencies(before, after []byte) simLatency {
	rb, ra := parseHists(before, readSeries), parseHists(after, readSeries)
	wb, wa := parseHists(before, writeSeries), parseHists(after, writeSeries)
	var s simLatency
	s.readP50, s.reads = deltaQuantile(rb, ra, 0.50)
	s.readP99, _ = deltaQuantile(rb, ra, 0.99)
	s.writeP50, s.writes = deltaQuantile(wb, wa, 0.50)
	s.writeP99, _ = deltaQuantile(wb, wa, 0.99)
	return s
}

// ratio divides, reporting 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerCounts derives the per-layer counts of a timed phase from Stats
// snapshots taken before and after it (b, a) and after the final flush
// (fin); ops is the number of timed operations.
func layerCounts(b, a, fin bandslim.Stats, ops int) map[string]float64 {
	n := float64(ops)
	d := func(x, y int64) float64 { return float64(y - x) }
	gets := d(b.Host.Gets, a.Host.Gets)
	hits, misses := d(b.Cache.Hits, a.Cache.Hits), d(b.Cache.Misses, a.Cache.Misses)
	phits, pmiss := d(b.Cache.PageHits, a.Cache.PageHits), d(b.Cache.PageMisses, a.Cache.PageMisses)
	inl, prp, hyb := d(b.Adaptive.Inline, a.Adaptive.Inline), d(b.Adaptive.PRP, a.Adaptive.PRP), d(b.Adaptive.Hybrid, a.Adaptive.Hybrid)
	chosen := inl + prp + hyb
	return map[string]float64{
		"lsm.compactions":                  d(b.Device.Compactions, a.Device.Compactions),
		"lsm.page_lookups_per_get":         ratio(phits+pmiss, gets),
		"nand.page_reads_per_op":           d(b.Device.NANDPageReads, a.Device.NANDPageReads) / n,
		"nand.page_writes_per_op":          d(b.Device.NANDPageWrites, a.Device.NANDPageWrites) / n,
		"nand.erases":                      d(b.Device.BlockErases, a.Device.BlockErases),
		"cache.hit_ratio":                  ratio(hits, hits+misses),
		"cache.page_hit_ratio":             ratio(phits, phits+pmiss),
		"cache.evictions":                  d(b.Cache.Evictions, a.Cache.Evictions),
		"cache.invalidations":              d(b.Cache.Invalidations, a.Cache.Invalidations),
		"driver.neg_hits":                  d(b.Cache.NegHits, a.Cache.NegHits),
		"driver.inline_share":              ratio(inl, chosen),
		"driver.prp_share":                 ratio(prp, chosen),
		"driver.hybrid_share":              ratio(hyb, chosen),
		"driver.cmds_per_op":               d(b.Host.Commands, a.Host.Commands) / n,
		"driver.retries":                   d(b.Faults.Retries, a.Faults.Retries),
		"pcie.dma_bytes_per_op":            d(b.PCIe.DMABytes, a.PCIe.DMABytes) / n,
		"pcie.cmd_bytes_per_op":            d(b.PCIe.CommandBytes, a.PCIe.CommandBytes) / n,
		"pcie.mmio_bytes_per_op":           d(b.PCIe.MMIOBytes, a.PCIe.MMIOBytes) / n,
		"dma.memcpys_per_op":               d(b.Device.Memcpys, a.Device.Memcpys) / n,
		"dma.memcpy_sim_us_per_op":         d(int64(b.Device.MemcpyTime), int64(a.Device.MemcpyTime)) / n / 1e3,
		"pagebuf.util":                     fin.Device.BufferUtil,
		"pagebuf.forced_flushes":           d(b.Device.ForcedFlushes, a.Device.ForcedFlushes),
		"pagebuf.backfill_jumps":           d(b.Device.BackfillJumps, a.Device.BackfillJumps),
		"pagebuf.flush_wait_sim_us_per_op": d(int64(b.Device.FlushWaitTime), int64(a.Device.FlushWaitTime)) / n / 1e3,
		"vlog.flushes":                     d(b.Device.VLogFlushes, a.Device.VLogFlushes),
		"ftl.gc_writes":                    d(b.Device.GCWrites, a.Device.GCWrites),
	}
}

// serverCounts derives the RESP front-end's per-command counts.
func serverCounts(b, a bandslim.ServerStats) map[string]float64 {
	cmds := float64((a.Set + a.Get) - (b.Set + b.Get))
	return map[string]float64{
		"server.stalls":            float64(a.Stalls - b.Stalls),
		"server.bytes_in_per_cmd":  ratio(float64(a.BytesIn-b.BytesIn), cmds),
		"server.bytes_out_per_cmd": ratio(float64(a.BytesOut-b.BytesOut), cmds),
	}
}

// blameKinds are the op kinds whose stage shares are reported.
var blameKinds = []string{"put", "get"}

// blameShares folds the attribution report into each stage's share of the
// simulated time of every op kind, counting only ops that started inside
// the timed phase on their shard: [from[shard], to[shard]).
func blameShares(rep *bandslim.BlameReport, from, to []bandslim.SimTime) map[string]float64 {
	total := map[string]float64{}
	stage := map[string][]float64{}
	for _, k := range blameKinds {
		stage[k] = make([]float64, numStages())
	}
	for i := range rep.Ops {
		op := &rep.Ops[i]
		sh := int(op.Shard)
		st, ok := stage[op.Name]
		if !ok || sh >= len(from) || op.Start < from[sh] || op.Start >= to[sh] {
			continue
		}
		total[op.Name] += float64(op.E2E())
		for s, dur := range op.Stages {
			st[s] += float64(dur)
		}
	}
	out := map[string]float64{
		"blame.truncated_events": float64(rep.TruncatedEvents),
		"blame.unclaimed":        float64(rep.Unclaimed),
		"blame.lossy":            0,
	}
	if rep.Lossy() {
		out["blame.lossy"] = 1
	}
	for _, k := range blameKinds {
		for s, v := range stage[k] {
			out["blame."+k+"."+bandslim.BlameStage(s).String()+"_share"] = ratio(v, total[k])
		}
	}
	return out
}

// numStages reports how many attribution stages a BlameOp carries.
func numStages() int { return len(bandslim.BlameOp{}.Stages) }
