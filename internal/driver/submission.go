// Submission policy and the asynchronous queue-depth-N window.
//
// The paper's testbed submits one command per synchronous round trip
// (§4.2 calls out what that serialization costs). SubmissionConfig folds
// every knob governing how commands reach the device — burst submission of
// multi-command PUTs, the in-flight window depth, doorbell batching, and
// completion coalescing — into one value whose zero state reproduces the
// paper's passthrough byte-for-byte.
//
// With QueueDepth >= 2 the driver exposes StartGet/WaitGetInto: up to
// QueueDepth read commands ride the SQ/CQ pair at once, each owning a
// preallocated wait frame and staging slot; completions reap out of order,
// matched back by command ID. The batch-read paths sit on top of this
// window, so channel/way parallelism in the simulated NAND array finally
// expresses itself host-side.
package driver

import (
	"fmt"

	"bandslim/internal/cache"
	"bandslim/internal/nvme"
	"bandslim/internal/pool"
	"bandslim/internal/sim"
	"bandslim/internal/trace"
)

// SubmissionConfig is the driver's complete submission policy. The zero
// value is the paper's synchronous passthrough: one command in flight, one
// doorbell per command, no coalescing — timings byte-identical to a stack
// that never heard of this type.
type SubmissionConfig struct {
	// QueueDepth bounds the commands in flight on the SQ/CQ pair. 0 and 1
	// both mean the synchronous passthrough; >= 2 enables the asynchronous
	// window behind the batch-read paths. It must leave room in the device's
	// ring (at most device QueueDepth - 1).
	QueueDepth int

	// DoorbellBatch coalesces SQ doorbell MMIOs: the window rings once per
	// DoorbellBatch queued submissions instead of once per command (waits
	// flush the remainder). 0 and 1 mean one doorbell per submission; any
	// value > 1 also turns on burst submission of multi-command PUTs.
	DoorbellBatch int

	// CoalesceInterval, when > 0, quantizes device completion readiness up
	// to multiples of the interval — interrupt-coalescing-style completion
	// sweeps. It requires QueueDepth >= 2: coalescing a sync passthrough
	// only adds latency with nothing to batch.
	CoalesceInterval sim.Duration
}

// async reports whether the config opens a multi-command window.
func (c SubmissionConfig) async() bool { return c.QueueDepth >= 2 }

// burst reports whether multi-command PUTs submit as doorbell bursts.
func (c SubmissionConfig) burst() bool { return c.DoorbellBatch > 1 }

// depth is the effective window depth (>= 1).
func (c SubmissionConfig) depth() int {
	if c.QueueDepth < 1 {
		return 1
	}
	return c.QueueDepth
}

// doorbellEvery is the effective submissions-per-doorbell, clamped into the
// window so a push can never outrun the ring.
func (c SubmissionConfig) doorbellEvery() int {
	n := c.DoorbellBatch
	if n < 1 {
		n = 1
	}
	if d := c.depth(); c.async() && n > d {
		n = d
	}
	return n
}

// ConfigError reports a SubmissionConfig (or Tuning) field that failed
// validation. Open and SetSubmission return it wrapped; match with
// errors.As.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("driver: invalid %s: %s", e.Field, e.Reason)
}

// validate checks the config against the device ring size sqSize.
func (c SubmissionConfig) validate(sqSize int) error {
	if c.QueueDepth < 0 {
		return &ConfigError{Field: "Submission.QueueDepth", Reason: fmt.Sprintf("must be >= 0, got %d", c.QueueDepth)}
	}
	if c.QueueDepth > sqSize-1 {
		return &ConfigError{Field: "Submission.QueueDepth", Reason: fmt.Sprintf("%d exceeds the device ring (max %d for Device.QueueDepth %d)", c.QueueDepth, sqSize-1, sqSize)}
	}
	if c.DoorbellBatch < 0 {
		return &ConfigError{Field: "Submission.DoorbellBatch", Reason: fmt.Sprintf("must be >= 0, got %d", c.DoorbellBatch)}
	}
	if c.CoalesceInterval < 0 {
		return &ConfigError{Field: "Submission.CoalesceInterval", Reason: fmt.Sprintf("must be >= 0, got %v", c.CoalesceInterval)}
	}
	if c.CoalesceInterval > 0 && !c.async() {
		return &ConfigError{Field: "Submission.CoalesceInterval", Reason: "requires QueueDepth >= 2 (nothing to coalesce on a synchronous queue)"}
	}
	return nil
}

// Submission reports the active submission policy.
func (d *Driver) Submission() SubmissionConfig { return d.sub }

// SetSubmission replaces the submission policy, validating it against the
// device's ring size. The window must be empty (every batch path drains
// before returning, so callers between operations always satisfy this).
func (d *Driver) SetSubmission(c SubmissionConfig) error {
	if err := c.validate(d.dev.Queues().SQ.Size()); err != nil {
		return err
	}
	if d.inflight > 0 {
		return &ConfigError{Field: "Submission", Reason: "cannot change with commands in flight"}
	}
	d.sub = c
	d.pipelined = c.burst()
	if c.async() {
		// The wait frames and their staging slots come from internal/pool's
		// Reuse, so retuning between depths never reallocates a frame that
		// still fits and the steady-state window allocates nothing.
		n := len(d.frames)
		d.frames = pool.Reuse(d.frames, c.depth())
		d.slotStage = pool.Reuse(d.slotStage, c.depth())
		for i := n; i < len(d.frames); i++ {
			d.frames[i] = frame{}
			d.slotStage[i] = nvme.PRPList{}
		}
	}
	return nil
}

// Tuning is a snapshot update for the driver's runtime knobs. Nil fields
// keep their current value (per-field presence semantics); set fields apply
// together after validation, so a rejected tuning changes nothing.
type Tuning struct {
	Method     *Method
	Thresholds *Thresholds
	Retry      *RetryPolicy
	Submission *SubmissionConfig
	// Cache reconfigures the tiered read path: the device-DRAM value/page
	// caches and the host-side negative cache. Both restart cold.
	Cache *cache.Config
}

// Tune applies every present field of tn. The Set* mutators are thin
// wrappers over this.
func (d *Driver) Tune(tn Tuning) error {
	if tn.Submission != nil {
		if err := tn.Submission.validate(d.dev.Queues().SQ.Size()); err != nil {
			return err
		}
	}
	if tn.Cache != nil {
		if err := tn.Cache.Validate(); err != nil {
			return err
		}
	}
	if tn.Method != nil {
		d.method = *tn.Method
	}
	if tn.Thresholds != nil {
		d.thr = *tn.Thresholds
	}
	if tn.Retry != nil {
		r := *tn.Retry
		if r.IsZero() {
			r = DefaultRetryPolicy()
		}
		d.retry = r
	}
	if tn.Submission != nil {
		if err := d.SetSubmission(*tn.Submission); err != nil {
			return err
		}
	}
	if tn.Cache != nil {
		if err := d.SetCache(*tn.Cache); err != nil {
			return err
		}
	}
	return nil
}

// WindowDepth reports the effective in-flight window (1 = synchronous).
func (d *Driver) WindowDepth() int {
	if !d.sub.async() {
		return 1
	}
	return d.sub.depth()
}

// InFlight reports the commands currently outstanding in the submission
// window (always 0 between synchronous operations).
func (d *Driver) InFlight() int { return d.inflight }

// frame is one in-flight command's wait state: the command (kept for
// retries), its completion once reaped, and the staging slot its read
// payload lands in. Frames live in a pool.Reuse-managed slice sized to the
// window depth.
type frame struct {
	used    bool
	done    bool
	cid     uint16
	slot    int
	cmd     nvme.Command
	comp    nvme.Completion
	start   sim.Time
	retries int
	backoff sim.Duration
}

// slotStaging returns slot i's persistent staging region, allocating it on
// first use (one MaxValueSize run per window slot: concurrent reads cannot
// share the single-owner d.stage).
func (d *Driver) slotStaging(i int) nvme.PRPList {
	if d.slotStage[i].Pages == nil {
		d.slotStage[i] = nvme.AllocStaging(d.mem, MaxValueSize)
	}
	return d.slotStage[i]
}

// StartGet submits an asynchronous read for key and returns its frame
// handle; the result is claimed with WaitGetInto. Callers bound their
// outstanding StartGets by WindowDepth (the batch paths do) — exceeding it
// fails. Requires QueueDepth >= 2.
func (d *Driver) StartGet(key []byte) (int, error) {
	if !d.sub.async() {
		return 0, &ConfigError{Field: "Submission.QueueDepth", Reason: "StartGet requires QueueDepth >= 2"}
	}
	if d.inflight >= len(d.frames) {
		return 0, fmt.Errorf("driver: submission window full (%d in flight)", d.inflight)
	}
	idx := -1
	for i := range d.frames {
		if !d.frames[i].used {
			idx = i
			break
		}
	}
	f := &d.frames[idx]
	prp := d.slotStaging(idx).WithPayload(MaxValueSize)
	var cmd nvme.Command
	cmd.SetOpcode(nvme.OpKVRead)
	cmd.SetCommandID(d.allocID())
	if err := cmd.SetKey(key); err != nil {
		return 0, err
	}
	cmd.SetPRP1(prp.Pages[0])
	if len(prp.Pages) > 1 {
		cmd.SetPRP2(prp.Pages[1])
	}
	if err := d.dev.Queues().SQ.Push(cmd); err != nil {
		return 0, err
	}
	d.stats.CommandsIssued.Inc()
	now := d.clock.Now()
	f.used, f.done = true, false
	f.cid, f.slot, f.cmd, f.start = cmd.CommandID(), idx, cmd, now
	f.retries, f.backoff = 0, d.retry.Backoff
	d.inflight++
	d.unrung++
	if d.tr != nil {
		d.tr.Emit(trace.Event{Cat: trace.CatDriver, Name: trace.EvSubmit, Op: byte(nvme.OpKVRead), Start: now, End: now, Arg: int64(f.cid)})
	}
	if d.unrung >= d.sub.doorbellEvery() {
		if err := d.flushWindow(); err != nil {
			return idx, err
		}
	}
	return idx, nil
}

// flushWindow publishes queued submissions with one SQ doorbell and lets
// the device service the window concurrently.
func (d *Driver) flushWindow() error {
	if d.unrung == 0 {
		return nil
	}
	d.dev.Queues().SQ.RingDoorbell()
	d.link.RecordDoorbell()
	d.unrung = 0
	_, err := d.dev.ProcessWindow(d.clock.Now(), d.sub.CoalesceInterval)
	return err
}

// completeFrame reaps completions until frame h is done, matching each by
// CID and ringing one CQ doorbell per sweep. Each sweep drains the CQ
// exhaustively — completions for other frames are matched and buffered in
// their wait frames, so their Waits cost nothing — which is what keeps
// doorbell MMIO at one ring per burst rather than one per command.
// Retryable completions of h are resubmitted through the window under the
// retry policy (other frames' retryable completions wait for their own
// Wait).
func (d *Driver) completeFrame(h int) error {
	f := &d.frames[h]
	for !f.done {
		if err := d.flushWindow(); err != nil {
			return err
		}
		reaped := 0
		for {
			comp, err := d.dev.Queues().CQ.Reap()
			if err == nvme.ErrQueueEmpty {
				break
			}
			if err != nil {
				return err
			}
			reaped++
			matched := false
			for i := range d.frames {
				g := &d.frames[i]
				if g.used && !g.done && g.cid == comp.CommandID {
					g.comp = comp
					g.done = true
					matched = true
					break
				}
			}
			if !matched {
				return fmt.Errorf("driver: completion for unknown command %d", comp.CommandID)
			}
		}
		if reaped > 0 {
			d.dev.Queues().CQ.RingDoorbell()
			d.link.RecordDoorbell()
		} else if !f.done {
			return fmt.Errorf("driver: command %d never completed", f.cid)
		}
	}
	// Retry through the window, not submitOnce: the CQ may hold other
	// frames' completions, so a synchronous round trip would reap the wrong
	// entry. Resubmitting the same command re-enters the sweep loop.
	if f.comp.Status.Retryable() && d.retry.MaxRetries >= 0 {
		if f.retries >= d.retry.MaxRetries {
			d.stats.RetriesExhausted.Inc()
			return nil
		}
		f.retries++
		d.stats.Retries.Inc()
		if d.tr != nil {
			d.tr.Emit(trace.Event{Cat: trace.CatDriver, Name: trace.EvRetry, Op: byte(f.cmd.Opcode()), Start: d.clock.Now(), End: d.clock.Now().Add(f.backoff), Arg: int64(f.retries)})
		}
		d.clock.Advance(f.backoff)
		f.backoff *= 2
		if err := d.dev.Queues().SQ.Push(f.cmd); err != nil {
			return err
		}
		d.stats.CommandsIssued.Inc()
		d.unrung++
		f.done = false
		return d.completeFrame(h)
	}
	return nil
}

// release returns frame h to the free set.
func (d *Driver) release(h int) {
	d.frames[h] = frame{}
	d.inflight--
}

// WaitGetInto claims the result of StartGet handle h, gathering the value
// into dst (grown as needed) and returning the filled slice. The host clock
// advances to the completion's arrival plus one round trip — out-of-order
// completions each charge their own arrival, so waits on an already-ready
// frame cost nothing extra. Missing keys surface as nvme.StatusKeyNotFound
// errors, exactly like Get.
func (d *Driver) WaitGetInto(h int, dst []byte) ([]byte, error) {
	f := &d.frames[h]
	if !f.used {
		return nil, fmt.Errorf("driver: WaitGetInto on idle frame %d", h)
	}
	if err := d.completeFrame(h); err != nil {
		d.release(h)
		return nil, err
	}
	comp, start, slot, cmd := f.comp, f.start, f.slot, f.cmd
	d.release(h)
	d.clock.AdvanceTo(comp.Ready.Add(d.link.Model.CommandRoundTrip))
	now := d.clock.Now()
	d.stats.PerOp.Observe(nvme.OpKVRead.String(), float64(now.Sub(start)))
	if d.tr != nil {
		d.tr.Emit(trace.Event{Cat: trace.CatDriver, Name: trace.EvReap, Op: byte(nvme.OpKVRead), Start: start, End: now, Arg: int64(comp.CommandID)})
	}
	if err := comp.Status.Err(); err != nil {
		if comp.Status == nvme.StatusKeyNotFound {
			d.keyScratch = cmd.AppendKey(d.keyScratch[:0])
			d.negLearn(d.keyScratch)
		}
		return nil, err
	}
	n := int(comp.Result)
	data, err := d.slotStage[slot].WithPayload(n).GatherInto(d.mem, dst[:0])
	if err != nil {
		return nil, err
	}
	d.stats.Gets.Inc()
	d.stats.ReadResponse.Observe(float64(now.Sub(start)))
	if d.tr != nil {
		d.tr.Emit(trace.Event{Cat: trace.CatDriver, Name: trace.EvGet, Op: byte(nvme.OpKVRead), Start: start, End: now, Bytes: int64(n)})
	}
	return data, nil
}

// DrainWindow completes and discards every outstanding frame — the error
// path's cleanup, leaving the rings empty for the next operation. Statuses
// are ignored (the triggering error already surfaced); the clock advances
// past every straggler's arrival.
func (d *Driver) DrainWindow() {
	if d.inflight == 0 {
		return
	}
	// A retry-disabled policy keeps completeFrame from resubmitting
	// stragglers; restore it after the sweep.
	saved := d.retry
	d.retry = RetryPolicy{MaxRetries: -1}
	for i := range d.frames {
		if !d.frames[i].used {
			continue
		}
		if err := d.completeFrame(i); err != nil {
			// The rings are unrecoverable mid-drain only on simulation bugs;
			// release what we hold and stop.
			d.release(i)
			continue
		}
		ready := d.frames[i].comp.Ready
		d.release(i)
		d.clock.AdvanceTo(ready.Add(d.link.Model.CommandRoundTrip))
	}
	d.retry = saved
	d.unrung = 0
}
