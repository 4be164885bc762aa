// Package driver implements the BandSlim Key-Value Driver (§3.1–3.2): the
// host-side component that chooses a transfer strategy per value (PRP-based
// page-unit DMA, NVMe-command piggybacking, hybrid, or the threshold-based
// adaptive method), builds commands, rings doorbells, and performs the
// synchronous passthrough round trips the paper's testbed uses (one command
// outstanding at a time).
package driver

import (
	"errors"
	"fmt"

	"bandslim/internal/device"
	"bandslim/internal/metrics"
	"bandslim/internal/nvme"
	"bandslim/internal/pcie"
	"bandslim/internal/sim"
	"bandslim/internal/trace"
)

// Method selects the value-transfer strategy.
type Method int

// The transfer methods evaluated in §4.2.
const (
	// MethodBaseline transfers every value via PRP page-unit DMA.
	MethodBaseline Method = iota
	// MethodPiggyback transfers every value inline in NVMe commands.
	MethodPiggyback
	// MethodHybrid sends the page-aligned head by DMA and the tail inline.
	MethodHybrid
	// MethodAdaptive picks per value using the thresholds.
	MethodAdaptive
	// MethodSGL transfers every value via Scatter-Gather List — the §2.5
	// comparator that moves exact bytes but pays a setup cost that only
	// amortizes above ~32 KB (the Linux sgl_threshold).
	MethodSGL
)

func (m Method) String() string {
	switch m {
	case MethodBaseline:
		return "Baseline"
	case MethodPiggyback:
		return "Piggyback"
	case MethodHybrid:
		return "Hybrid"
	case MethodAdaptive:
		return "Adaptive"
	case MethodSGL:
		return "SGL"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// ParseMethod converts a method name back to a Method.
func ParseMethod(s string) (Method, error) {
	switch s {
	case "Baseline", "baseline", "prp":
		return MethodBaseline, nil
	case "Piggyback", "piggyback":
		return MethodPiggyback, nil
	case "Hybrid", "hybrid":
		return MethodHybrid, nil
	case "Adaptive", "adaptive":
		return MethodAdaptive, nil
	case "SGL", "sgl":
		return MethodSGL, nil
	}
	return 0, fmt.Errorf("driver: unknown method %q", s)
}

// Thresholds hold the adaptive method's calibration (§3.2): values at or
// below Alpha·Threshold1 go inline; over-page values whose tail is at or
// below Beta·Threshold2 go hybrid; everything else goes PRP.
type Thresholds struct {
	Threshold1 int
	Threshold2 int
	Alpha      float64
	Beta       float64
}

// DefaultThresholds returns the paper's settings: the piggyback→DMA switch
// at 128 bytes (from the Fig. 8 response curve) with α = β = 1.
func DefaultThresholds() Thresholds {
	return Thresholds{Threshold1: 128, Threshold2: 64, Alpha: 1, Beta: 1}
}

// IsZero reports whether every field is zero — the "use defaults" sentinel.
// A caller who deliberately wants Threshold1 = 0 (never piggyback) sets any
// other field non-zero, e.g. Thresholds{Alpha: 1, Beta: 1}.
func (t Thresholds) IsZero() bool { return t == Thresholds{} }

// RetryPolicy governs how the driver reacts to retryable completions
// (transient transfer errors, nvme.StatusTransient). Each retry re-submits
// the same command after an exponentially growing host-side backoff.
type RetryPolicy struct {
	// MaxRetries bounds the re-submissions per command. Negative disables
	// retry entirely; the zero value is the "use defaults" sentinel.
	MaxRetries int
	// Backoff is the wait before the first retry; it doubles per attempt.
	Backoff sim.Duration
}

// DefaultRetryPolicy retries four times starting at 10 µs — enough to ride
// out any plan-injected transient burst shorter than five occurrences.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: 4, Backoff: 10 * sim.Microsecond}
}

// IsZero reports whether the policy is the "use defaults" sentinel. A caller
// who deliberately wants no retries sets MaxRetries negative.
func (r RetryPolicy) IsZero() bool { return r == RetryPolicy{} }

// Stats tallies host-side activity.
type Stats struct {
	Puts             metrics.Counter
	Gets             metrics.Counter
	Deletes          metrics.Counter
	Scans            metrics.Counter
	InlineChosen     metrics.Counter
	PRPChosen        metrics.Counter
	HybridChosen     metrics.Counter
	WriteResponse    *metrics.Histogram // ns per PUT
	ReadResponse     *metrics.Histogram // ns per GET
	CommandsIssued   metrics.Counter
	Retries          metrics.Counter // retryable completions re-submitted
	RetriesExhausted metrics.Counter // commands that failed every retry
	Recoveries       metrics.Counter // device mounts performed after power loss
	NegativeHits     metrics.Counter // Gets short-circuited by the negative cache
	NegativeLearned  metrics.Counter // keys admitted to the recent-miss ring
	// PerOp breaks command round-trip latency down by NVMe opcode;
	// PerMethod breaks PUT response time down by the transfer mode chosen.
	PerOp     *metrics.HistogramSet
	PerMethod *metrics.HistogramSet
}

// Driver is the host-side key-value driver bound to one device.
type Driver struct {
	clock *sim.Clock
	link  *pcie.Link
	mem   *nvme.HostMemory
	dev   *device.Device
	// sub is the submission policy (see SubmissionConfig); pipelined caches
	// sub.burst() — whether the commands of one PUT are submitted as a
	// doorbell burst so trailing transfer commands pay only a fetch/parse
	// interval instead of a full round trip each. This is the what-if the
	// paper's §4.2 points at when it blames "synchronous and serialized"
	// submission for piggybacking's large-value collapse.
	sub       SubmissionConfig
	pipelined bool
	method    Method
	thr       Thresholds
	retry     RetryPolicy
	nextID    uint16
	stats     Stats
	tr        trace.Tracer
	// neg is the host-side negative cache (nil when disabled): known-miss
	// Gets fail fast here without issuing any NVMe command. See negcache.go.
	neg *negCache

	// Asynchronous window state (sub.QueueDepth >= 2): per-command wait
	// frames and their staging slots, the in-flight count, and the
	// submissions queued since the last SQ doorbell. See submission.go.
	frames    []frame
	slotStage []nvme.PRPList
	inflight  int
	unrung    int

	// stage is the driver's persistent staging region: one contiguous
	// MaxValueSize run of pinned host pages, allocated at first use and
	// reused for every PUT payload and GET/NEXT/Identify read buffer. Reuse
	// is what makes the steady-state op path free of host-memory churn; the
	// contiguous run preserves the sequential-address PRP reconstruction the
	// device performs from PRP1. The driver is single-owner, so one region
	// suffices — every command completes before the next is staged.
	stage nvme.PRPList
	// readBuf receives gathered GET/NEXT/Identify payloads. Get and Next
	// return views into it, valid until the next driver operation.
	readBuf []byte
	// keyScratch re-extracts a command's key on the windowed not-found path
	// (the negative cache learns from it without allocating).
	keyScratch []byte
	// cmdScratch backs the per-op command bursts (inline tails); compScratch
	// backs submitBurst's completion slice.
	cmdScratch  []nvme.Command
	compScratch []nvme.Completion
}

// New binds a driver to a device sharing the same clock, link and host
// memory arena.
func New(clock *sim.Clock, link *pcie.Link, mem *nvme.HostMemory, dev *device.Device, method Method, thr Thresholds) *Driver {
	return &Driver{
		clock:  clock,
		link:   link,
		mem:    mem,
		dev:    dev,
		method: method,
		thr:    thr,
		retry:  DefaultRetryPolicy(),
		stats: Stats{
			WriteResponse: metrics.NewHistogram(),
			ReadResponse:  metrics.NewHistogram(),
			PerOp:         metrics.NewHistogramSet(),
			PerMethod:     metrics.NewHistogramSet(),
		},
	}
}

// Stats exposes the driver tallies.
func (d *Driver) Stats() *Stats { return &d.stats }

// SetTracer enables host-side operation/submission tracing; nil turns it
// back off.
func (d *Driver) SetTracer(tr trace.Tracer) { d.tr = tr }

// Method reports the configured transfer method.
func (d *Driver) Method() Method { return d.method }

// Thresholds reports the adaptive calibration.
func (d *Driver) Thresholds() Thresholds { return d.thr }

// Retry reports the active retry policy.
func (d *Driver) Retry() RetryPolicy { return d.retry }

// SetRetry replaces the retry policy (the zero value restores defaults); a
// thin wrapper over Tune.
func (d *Driver) SetRetry(r RetryPolicy) { _ = d.Tune(Tuning{Retry: &r}) }

// Now reports the simulated time.
func (d *Driver) Now() sim.Time { return d.clock.Now() }

// choose picks the transfer mode for one value size.
func (d *Driver) choose(size int) nvme.TransferMode {
	switch d.method {
	case MethodBaseline:
		return nvme.ModePRP
	case MethodPiggyback:
		return nvme.ModeInline
	case MethodHybrid:
		if size >= pcie.MemoryPageSize && size%pcie.MemoryPageSize != 0 {
			return nvme.ModeHybrid
		}
		if size < pcie.MemoryPageSize {
			return nvme.ModeInline
		}
		return nvme.ModePRP
	case MethodAdaptive:
		if float64(size) <= d.thr.Alpha*float64(d.thr.Threshold1) {
			return nvme.ModeInline
		}
		if size > pcie.MemoryPageSize {
			tail := size % pcie.MemoryPageSize
			if tail != 0 && float64(tail) <= d.thr.Beta*float64(d.thr.Threshold2) {
				return nvme.ModeHybrid
			}
		}
		return nvme.ModePRP
	case MethodSGL:
		return nvme.ModeSGL
	default:
		return nvme.ModePRP
	}
}

// submit pushes one command through submitOnce, re-submitting on retryable
// completions (transient transfer errors) under the retry policy: an
// exponentially growing host-side backoff between attempts. Bursts are never
// retried — partial burst completion makes replayed side effects ambiguous,
// so burst callers surface the error instead.
func (d *Driver) submit(cmd nvme.Command) (nvme.Completion, error) {
	comp, err := d.submitOnce(cmd)
	if err != nil || !comp.Status.Retryable() || d.retry.MaxRetries < 0 {
		return comp, err
	}
	backoff := d.retry.Backoff
	for attempt := 0; attempt < d.retry.MaxRetries; attempt++ {
		d.stats.Retries.Inc()
		if d.tr != nil {
			d.tr.Emit(trace.Event{Cat: trace.CatDriver, Name: trace.EvRetry, Op: byte(cmd.Opcode()), Start: d.clock.Now(), End: d.clock.Now().Add(backoff), Arg: int64(attempt + 1)})
		}
		d.clock.Advance(backoff)
		backoff *= 2
		comp, err = d.submitOnce(cmd)
		if err != nil || !comp.Status.Retryable() {
			return comp, err
		}
	}
	d.stats.RetriesExhausted.Inc()
	return comp, err
}

// submitOnce pushes one command through the full synchronous round trip: SQ
// push, SQ doorbell, device processing, completion reap, CQ doorbell. It
// returns the completion. The clock advances to the response time.
func (d *Driver) submitOnce(cmd nvme.Command) (nvme.Completion, error) {
	t0 := d.clock.Now()
	if err := d.dev.Queues().SQ.Push(cmd); err != nil {
		return nvme.Completion{}, err
	}
	d.dev.Queues().SQ.RingDoorbell()
	d.link.RecordDoorbell()
	d.stats.CommandsIssued.Inc()
	devEnd, err := d.dev.ProcessPending(t0)
	if err != nil {
		return nvme.Completion{}, err
	}
	comp, err := d.dev.Queues().CQ.Reap()
	if err != nil {
		return nvme.Completion{}, fmt.Errorf("driver: no completion: %w", err)
	}
	d.dev.Queues().CQ.RingDoorbell()
	d.link.RecordDoorbell()
	// The passthrough round trip serializes on top of the device work.
	d.clock.AdvanceTo(devEnd.Add(d.link.Model.CommandRoundTrip))
	now := d.clock.Now()
	d.stats.PerOp.Observe(cmd.Opcode().String(), float64(now.Sub(t0)))
	if d.tr != nil {
		d.tr.Emit(trace.Event{Cat: trace.CatDriver, Name: trace.EvSubmit, Op: byte(cmd.Opcode()), Start: t0, End: now, Arg: int64(cmd.CommandID())})
	}
	return comp, nil
}

// submitBurst pushes a group of commands with one SQ doorbell, lets the
// device drain them, then reaps every completion with one CQ doorbell. The
// burst costs one round trip plus a per-command pipeline interval. Bursts
// larger than the queue are split transparently.
// The returned slice is completion scratch, valid until the next burst.
func (d *Driver) submitBurst(cmds []nvme.Command) ([]nvme.Completion, error) {
	out := d.compScratch[:0]
	defer func() { d.compScratch = out[:0] }()
	maxBurst := d.dev.Queues().SQ.Size() - 1
	for len(cmds) > 0 {
		n := len(cmds)
		if n > maxBurst {
			n = maxBurst
		}
		chunk := cmds[:n]
		cmds = cmds[n:]
		t0 := d.clock.Now()
		for _, c := range chunk {
			if err := d.dev.Queues().SQ.Push(c); err != nil {
				return nil, err
			}
			d.stats.CommandsIssued.Inc()
		}
		d.dev.Queues().SQ.RingDoorbell()
		d.link.RecordDoorbell()
		devEnd, err := d.dev.ProcessPending(t0)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			comp, err := d.dev.Queues().CQ.Reap()
			if err != nil {
				return nil, fmt.Errorf("driver: burst completion %d: %w", i, err)
			}
			out = append(out, comp)
		}
		d.dev.Queues().CQ.RingDoorbell()
		d.link.RecordDoorbell()
		cost := d.link.Model.CommandRoundTrip +
			sim.Duration(n-1)*d.link.Model.PipelineInterval
		end := t0.Add(cost)
		if devEnd.Add(d.link.Model.CommandRoundTrip) > end {
			end = devEnd.Add(d.link.Model.CommandRoundTrip)
		}
		d.clock.AdvanceTo(end)
		if d.tr != nil {
			d.tr.Emit(trace.Event{Cat: trace.CatDriver, Name: trace.EvBurst, Op: byte(chunk[0].Opcode()), Start: t0, End: d.clock.Now(), Arg: int64(n)})
		}
	}
	return out, nil
}

func (d *Driver) allocID() uint16 {
	d.nextID++
	return d.nextID
}

// staging returns the persistent staging region, allocating it on first use.
func (d *Driver) staging() nvme.PRPList {
	if d.stage.Pages == nil {
		d.stage = nvme.AllocStaging(d.mem, MaxValueSize)
	}
	return d.stage
}

// stagePayload stages value into the persistent region and returns the PRP
// view describing it. Values beyond the region's capacity (larger than
// MaxValueSize) fall back to a fresh allocation; the caller must Free the
// returned list iff fresh is true.
func (d *Driver) stagePayload(value []byte) (prp nvme.PRPList, fresh bool, err error) {
	if len(value) > MaxValueSize {
		prp, err = nvme.BuildPRP(d.mem, value)
		return prp, true, err
	}
	prp = d.staging().WithPayload(len(value))
	if err := prp.Scatter(d.mem, value); err != nil {
		return nvme.PRPList{}, false, err
	}
	return prp, false, nil
}

// Put writes one key-value pair, choosing the transfer strategy per the
// configured method, and records the response time.
func (d *Driver) Put(key, value []byte) error {
	// The key may exist from here on; forgetting before any device work
	// keeps the negative cache safe even if the write fails mid-way.
	d.negForget(key)
	start := d.clock.Now()
	mode := d.choose(len(value))
	var err error
	switch mode {
	case nvme.ModePRP:
		d.stats.PRPChosen.Inc()
		err = d.putPRP(key, value)
	case nvme.ModeInline:
		d.stats.InlineChosen.Inc()
		err = d.putInline(key, value)
	case nvme.ModeHybrid:
		d.stats.HybridChosen.Inc()
		err = d.putHybrid(key, value)
	case nvme.ModeSGL:
		d.stats.PRPChosen.Inc() // SGL is a DMA-class choice in the ledger
		err = d.putSGL(key, value)
	}
	if err != nil {
		return err
	}
	d.stats.Puts.Inc()
	now := d.clock.Now()
	d.stats.WriteResponse.Observe(float64(now.Sub(start)))
	d.stats.PerMethod.Observe(mode.String(), float64(now.Sub(start)))
	if d.tr != nil {
		d.tr.Emit(trace.Event{Cat: trace.CatDriver, Name: trace.EvPut, Op: byte(nvme.OpKVWrite), Start: start, End: now, Bytes: int64(len(value)), Arg: int64(mode)})
	}
	return nil
}

// putPRP stages the value in the persistent staging region and sends one
// write command whose PRP fields describe it.
func (d *Driver) putPRP(key, value []byte) error {
	prp, fresh, err := d.stagePayload(value)
	if err != nil {
		return err
	}
	if fresh {
		defer prp.Free(d.mem)
	}
	var cmd nvme.Command
	cmd.SetOpcode(nvme.OpKVWrite)
	cmd.SetTransferMode(nvme.ModePRP)
	cmd.SetCommandID(d.allocID())
	if err := cmd.SetKey(key); err != nil {
		return err
	}
	cmd.SetValueSize(uint32(len(value)))
	if len(prp.Pages) > 0 {
		cmd.SetPRP1(prp.Pages[0])
		if len(prp.Pages) > 1 {
			cmd.SetPRP2(prp.Pages[1])
		}
	}
	comp, err := d.submit(cmd)
	if err != nil {
		return err
	}
	return comp.Status.Err()
}

// putSGL stages the value in the persistent staging region and sends one
// write command whose pages the device walks as SGL segments.
func (d *Driver) putSGL(key, value []byte) error {
	prp, fresh, err := d.stagePayload(value)
	if err != nil {
		return err
	}
	if fresh {
		defer prp.Free(d.mem)
	}
	var cmd nvme.Command
	cmd.SetOpcode(nvme.OpKVWrite)
	cmd.SetTransferMode(nvme.ModeSGL)
	cmd.SetCommandID(d.allocID())
	if err := cmd.SetKey(key); err != nil {
		return err
	}
	cmd.SetValueSize(uint32(len(value)))
	if len(prp.Pages) > 0 {
		cmd.SetPRP1(prp.Pages[0])
	}
	comp, err := d.submit(cmd)
	if err != nil {
		return err
	}
	return comp.Status.Err()
}

// putInline ships the value entirely in command fields: one write command
// plus trailing transfer commands in 56-byte increments (§3.2).
func (d *Driver) putInline(key, value []byte) error {
	var cmd nvme.Command
	cmd.SetOpcode(nvme.OpKVWrite)
	cmd.SetTransferMode(nvme.ModeInline)
	cmd.SetCommandID(d.allocID())
	if err := cmd.SetKey(key); err != nil {
		return err
	}
	cmd.SetValueSize(uint32(len(value)))
	n := cmd.SetWritePiggyback(value)
	if d.pipelined {
		cmds := append(d.cmdScratch[:0], cmd)
		cmds = d.appendTailCommands(cmds, value[n:])
		d.cmdScratch = cmds[:0]
		comps, err := d.submitBurst(cmds)
		if err != nil {
			return err
		}
		for _, comp := range comps {
			if err := comp.Status.Err(); err != nil {
				return err
			}
		}
		return nil
	}
	comp, err := d.submit(cmd)
	if err != nil {
		return err
	}
	if err := comp.Status.Err(); err != nil {
		return err
	}
	return d.sendTail(value[n:])
}

// putHybrid DMAs the page-aligned head and piggybacks the tail.
func (d *Driver) putHybrid(key, value []byte) error {
	dmaPart := len(value) / pcie.MemoryPageSize * pcie.MemoryPageSize
	if dmaPart == 0 {
		return d.putInline(key, value)
	}
	prp, fresh, err := d.stagePayload(value[:dmaPart])
	if err != nil {
		return err
	}
	if fresh {
		defer prp.Free(d.mem)
	}
	var cmd nvme.Command
	cmd.SetOpcode(nvme.OpKVWrite)
	cmd.SetTransferMode(nvme.ModeHybrid)
	cmd.SetCommandID(d.allocID())
	if err := cmd.SetKey(key); err != nil {
		return err
	}
	cmd.SetValueSize(uint32(len(value)))
	cmd.SetPRP1(prp.Pages[0])
	if len(prp.Pages) > 1 {
		cmd.SetPRP2(prp.Pages[1])
	}
	comp, err := d.submit(cmd)
	if err != nil {
		return err
	}
	if err := comp.Status.Err(); err != nil {
		return err
	}
	return d.sendTail(value[dmaPart:])
}

// appendTailCommands appends the trailing transfer commands for the
// remaining value bytes to dst (pass scratch[:0] to reuse capacity).
func (d *Driver) appendTailCommands(dst []nvme.Command, rest []byte) []nvme.Command {
	for len(rest) > 0 {
		var tr nvme.Command
		tr.SetOpcode(nvme.OpKVTransfer)
		tr.SetTransferMode(nvme.ModeInline)
		tr.SetCommandID(d.allocID())
		k := tr.SetTransferPiggyback(rest)
		dst = append(dst, tr)
		rest = rest[k:]
	}
	return dst
}

// sendTail streams the remaining value bytes in transfer commands — one
// synchronous round trip each under the paper's passthrough, or a single
// burst when pipelining is enabled.
func (d *Driver) sendTail(rest []byte) error {
	cmds := d.appendTailCommands(d.cmdScratch[:0], rest)
	d.cmdScratch = cmds[:0]
	if d.pipelined {
		comps, err := d.submitBurst(cmds)
		if err != nil {
			return err
		}
		for _, comp := range comps {
			if err := comp.Status.Err(); err != nil {
				return err
			}
		}
		return nil
	}
	for _, tr := range cmds {
		comp, err := d.submit(tr)
		if err != nil {
			return err
		}
		if err := comp.Status.Err(); err != nil {
			return err
		}
	}
	return nil
}

// MaxValueSize bounds the read buffer the driver stages for GETs.
const MaxValueSize = 64 * 1024

// Get reads the value for key. The returned slice is a view into the
// driver's reusable read buffer: it is valid until the next driver operation
// and must be copied by callers that retain it (caller-owned semantics; the
// DB layer's GetInto does the copy for concurrent use).
func (d *Driver) Get(key []byte) ([]byte, error) {
	// Known-miss fast path: no command is built, nothing reaches the wire,
	// and no simulated time passes — the host answers from its own cache.
	if d.NegativeKnown(key) {
		return nil, ErrNegativeHit
	}
	start := d.clock.Now()
	prp := d.staging().WithPayload(MaxValueSize)
	var cmd nvme.Command
	cmd.SetOpcode(nvme.OpKVRead)
	cmd.SetCommandID(d.allocID())
	if err := cmd.SetKey(key); err != nil {
		return nil, err
	}
	cmd.SetPRP1(prp.Pages[0])
	if len(prp.Pages) > 1 {
		cmd.SetPRP2(prp.Pages[1])
	}
	comp, err := d.submit(cmd)
	if err != nil {
		return nil, err
	}
	if err := comp.Status.Err(); err != nil {
		if comp.Status == nvme.StatusKeyNotFound {
			d.negLearn(key)
		}
		return nil, err
	}
	// Gather exactly the bytes the device reported; stale staging bytes
	// beyond the payload are never read.
	n := int(comp.Result)
	data, err := prp.WithPayload(n).GatherInto(d.mem, d.readBuf[:0])
	if err != nil {
		return nil, err
	}
	d.readBuf = data[:0]
	d.stats.Gets.Inc()
	now := d.clock.Now()
	d.stats.ReadResponse.Observe(float64(now.Sub(start)))
	if d.tr != nil {
		d.tr.Emit(trace.Event{Cat: trace.CatDriver, Name: trace.EvGet, Op: byte(nvme.OpKVRead), Start: start, End: now, Bytes: int64(n)})
	}
	return data, nil
}

// Delete removes a key.
func (d *Driver) Delete(key []byte) error {
	start := d.clock.Now()
	var cmd nvme.Command
	cmd.SetOpcode(nvme.OpKVDelete)
	cmd.SetCommandID(d.allocID())
	if err := cmd.SetKey(key); err != nil {
		return err
	}
	comp, err := d.submit(cmd)
	if err != nil {
		return err
	}
	if err := comp.Status.Err(); err != nil {
		return err
	}
	// The device acknowledged the tombstone: the key is now authoritatively
	// missing, so it enters the ring without bloom admission.
	d.negInsert(key)
	d.stats.Deletes.Inc()
	if d.tr != nil {
		d.tr.Emit(trace.Event{Cat: trace.CatDriver, Name: trace.EvDelete, Op: byte(nvme.OpKVDelete), Start: start, End: d.clock.Now()})
	}
	return nil
}

// Seek positions the device-side iterator at the first key >= start.
func (d *Driver) Seek(start []byte) error {
	var cmd nvme.Command
	cmd.SetOpcode(nvme.OpKVSeek)
	cmd.SetCommandID(d.allocID())
	if err := cmd.SetKey(start); err != nil {
		return err
	}
	comp, err := d.submit(cmd)
	if err != nil {
		return err
	}
	if err := comp.Status.Err(); err != nil {
		return err
	}
	d.stats.Scans.Inc()
	return nil
}

// ErrIterDone reports an exhausted device-side iterator. It is a sentinel:
// match it with errors.Is, including through wrapped returns.
var ErrIterDone = errors.New("driver: iterator exhausted")

// Next returns the device iterator's current pair and advances it. Like Get,
// the returned key and value are views into the driver's reusable read
// buffer, valid until the next driver operation; retaining callers must copy.
func (d *Driver) Next() (key, value []byte, err error) {
	prp := d.staging().WithPayload(MaxValueSize)
	var cmd nvme.Command
	cmd.SetOpcode(nvme.OpKVNext)
	cmd.SetCommandID(d.allocID())
	cmd.SetPRP1(prp.Pages[0])
	comp, err := d.submit(cmd)
	if err != nil {
		return nil, nil, err
	}
	if comp.Status == nvme.StatusIterEnd {
		return nil, nil, ErrIterDone
	}
	if err := comp.Status.Err(); err != nil {
		return nil, nil, err
	}
	n := int(comp.Result)
	if n < 1 || n > MaxValueSize {
		return nil, nil, fmt.Errorf("driver: bad NEXT payload size %d", n)
	}
	data, err := prp.WithPayload(n).GatherInto(d.mem, d.readBuf[:0])
	if err != nil {
		return nil, nil, err
	}
	d.readBuf = data[:0]
	kl := int(data[0])
	if 1+kl > n {
		return nil, nil, fmt.Errorf("driver: corrupt NEXT payload")
	}
	return data[1 : 1+kl], data[1+kl : n], nil
}

// Flush forces buffered state to NAND.
func (d *Driver) Flush() error {
	var cmd nvme.Command
	cmd.SetOpcode(nvme.OpKVFlush)
	cmd.SetCommandID(d.allocID())
	comp, err := d.submit(cmd)
	if err != nil {
		return err
	}
	return comp.Status.Err()
}

// Identify fetches the controller's identify structure — model, capacity,
// geometry, and the BandSlim capability fields (inline transfer capacities,
// active packing policy).
func (d *Driver) Identify() (device.IdentifyData, error) {
	prp := d.staging().WithPayload(4096)
	var cmd nvme.Command
	cmd.SetOpcode(nvme.OpAdminIdentify)
	cmd.SetCommandID(d.allocID())
	cmd.SetPRP1(prp.Pages[0])
	comp, err := d.submit(cmd)
	if err != nil {
		return device.IdentifyData{}, err
	}
	if err := comp.Status.Err(); err != nil {
		return device.IdentifyData{}, err
	}
	data, err := prp.GatherInto(d.mem, d.readBuf[:0])
	if err != nil {
		return device.IdentifyData{}, err
	}
	d.readBuf = data[:0]
	return device.ParseIdentify(data), nil
}

// Recover mounts the device after a power cut: fresh queues, the LSM index
// rolled back to its last durable point, and the battery-backed journal
// replayed — restoring every acknowledged write. The clock advances past the
// replay work plus one command round trip (the host's re-attach handshake).
// A fault plan can cut power again mid-replay; the returned error then
// carries StatusPowerLoss semantics and a subsequent Recover resumes.
func (d *Driver) Recover() error {
	// The mount replaces the SQ/CQ rings, so any window frames referencing
	// pre-cut completions are void; reset the window rather than reaping it.
	for i := range d.frames {
		d.frames[i] = frame{}
	}
	d.inflight, d.unrung = 0, 0
	// Journal replay can restore writes whose acknowledgment the power cut
	// swallowed, so every learned miss is suspect.
	d.negClear()
	end, err := d.dev.Mount(d.clock.Now())
	d.clock.AdvanceTo(end.Add(d.link.Model.CommandRoundTrip))
	d.stats.Recoveries.Inc()
	return err
}

// CompactVLog asks the device to garbage-collect the oldest `pages` value-
// log pages (WiscKey-style: live values relocate to the head, dead space is
// reclaimed). It reports how many values were relocated.
func (d *Driver) CompactVLog(pages int) (int, error) {
	if pages <= 0 {
		return 0, fmt.Errorf("driver: pages must be positive")
	}
	var cmd nvme.Command
	cmd.SetOpcode(nvme.OpKVCompact)
	cmd.SetCommandID(d.allocID())
	cmd.SetValueSize(uint32(pages))
	comp, err := d.submit(cmd)
	if err != nil {
		return 0, err
	}
	if err := comp.Status.Err(); err != nil {
		return 0, err
	}
	return int(comp.Result), nil
}
