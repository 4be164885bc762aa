// Package shard runs N independent BandSlim host+device stacks.
//
// The paper's testbed is deliberately serialized: one passthrough SQ/CQ pair
// and one synchronous round trip per command (§4.2 notes the improvement
// that serialization leaves on the table). A Shard is one such serialized
// stack — its own sim.Clock, pcie.Link, nvme.HostMemory, device.Device, and
// driver.Driver — behind one mutex. Every operation runs on the caller's
// goroutine while holding that mutex: no worker hop, no call frame, one lock.
//
// A Group hash-partitions keys across shards (see Partitioner). A batch that
// spans several shards runs its last lane on the caller and hands the other
// lanes to persistent per-shard helper goroutines, so N simulated devices
// advance concurrently on N host cores, like parallel NVMe queue pairs
// feeding independent controllers. A one-shard Group starts no goroutine.
//
// Each shard stays exactly as deterministic as a single stack: given the key
// partition, every shard sees the same command sequence regardless of host
// scheduling, because its mutex admits one operation at a time in
// submission order.
package shard

import (
	"errors"
	"fmt"
	"sync"

	"bandslim/internal/device"
	"bandslim/internal/driver"
	"bandslim/internal/fault"
	"bandslim/internal/nvme"
	"bandslim/internal/pcie"
	"bandslim/internal/sim"
	"bandslim/internal/trace"
)

// ErrClosed is returned by operations on a closed shard.
var ErrClosed = errors.New("bandslim: DB is closed")

// Options assemble one stack. The caller normalizes defaults (device
// geometry, thresholds) before construction so every stack built from the
// same Options is identical.
type Options struct {
	Device     device.Config
	Method     driver.Method
	Thresholds driver.Thresholds
	// Submission is the driver's submission policy: burst submission,
	// in-flight window depth, doorbell batching, completion coalescing. The
	// zero value is the paper's synchronous passthrough. It is validated
	// against the device ring at construction.
	Submission driver.SubmissionConfig
	// Tracer, when non-nil, receives every command-level event the stack
	// emits, stamped with ShardID. Nil keeps the zero-cost disabled path.
	Tracer  trace.Tracer
	ShardID int
	// Faults, when non-nil, arms a deterministic fault injector through the
	// stack. Each shard derives its own per-rule RNG streams from the plan
	// seed salted with ShardID, so a sharded run is reproducible yet shards
	// fail independently. Nil keeps the zero-cost disabled path.
	Faults *fault.Plan
	// Retry overrides the driver's retry policy (zero value = defaults).
	Retry driver.RetryPolicy
}

// Stack is one full simulated host+device pair: the components every shard
// wires together identically.
type Stack struct {
	Clock *sim.Clock
	Link  *pcie.Link
	Mem   *nvme.HostMemory
	Dev   *device.Device
	Drv   *driver.Driver
}

// NewStack builds the full stack from normalized options.
func NewStack(o Options) (*Stack, error) {
	clock := sim.NewClock()
	link := pcie.NewLink(pcie.DefaultCostModel())
	mem := nvme.NewHostMemory()
	dev, err := device.New(o.Device, clock, link, mem)
	if err != nil {
		return nil, err
	}
	drv := driver.New(clock, link, mem, dev, o.Method, o.Thresholds)
	if err := drv.SetSubmission(o.Submission); err != nil {
		return nil, err
	}
	drv.SetRetry(o.Retry)
	// The device tiers were armed by device.New; this additionally builds
	// the host-side negative cache. Guarded so a zero config leaves the
	// stack bit-identical to a cache-free build.
	if o.Device.Cache.Enabled() {
		if err := drv.SetCache(o.Device.Cache); err != nil {
			return nil, err
		}
	}
	if o.Faults != nil {
		if err := o.Faults.Validate(); err != nil {
			return nil, err
		}
		dev.SetInjector(fault.NewInjector(o.Faults, uint64(o.ShardID)))
	}
	if tr := trace.WithShard(o.Tracer, o.ShardID); tr != nil {
		link.Attach(clock, tr)
		dev.SetTracer(tr)
		drv.SetTracer(tr)
	}
	return &Stack{Clock: clock, Link: link, Mem: mem, Dev: dev, Drv: drv}, nil
}

// DefaultBatchOps is the record cap of the per-shard batcher behind PutBatch.
const DefaultBatchOps = 128

// jobKind discriminates the batch lane a shard runs for a Group.
type jobKind int

const (
	jobPut jobKind = iota
	jobGet
	jobGetSparse
	jobFlush
	jobRecover
)

// job is one shard's part of a Group operation. Each shard has one reusable
// job; the Group fills it in while holding the shard's mutex.
type job struct {
	kind       jobKind
	keys, vals [][]byte // vals holds PutBatch values or GetBatch dst lanes
	miss       []bool   // sparse-batch not-found flags, parallel to keys
	lane       []int    // indices into keys this shard owns
	err        error
}

// Shard is one stack behind one mutex. Operations run on the caller's
// goroutine; different shards run truly in parallel.
type Shard struct {
	id      int
	stack   *Stack
	afterOp func()

	// mu serializes every access to the stack and guards every field below.
	mu     sync.Mutex
	closed bool
	// batch is the batcher behind PutBatch, created lazily.
	batch *driver.Batcher
	// winH/winI are the windowed batch-read FIFO scratch (StartGet handles
	// and their key indices), reused across batches.
	winH, winI []int

	// job is the lane this shard's helper runs next. start hands it over
	// and done (capacity 1) reports it finished; both are nil when the
	// shard has no helper.
	job         job
	start, done chan struct{}
}

// New builds a shard. It starts no goroutine; Close marks it closed.
func New(id int, o Options) (*Shard, error) {
	st, err := NewStack(o)
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", id, err)
	}
	return &Shard{id: id, stack: st}, nil
}

// ID reports the shard's index.
func (s *Shard) ID() int { return s.id }

// Stack exposes the shard's simulation components. Touch them only inside
// Do or Exec, which hold the shard mutex.
func (s *Shard) Stack() *Stack { return s.stack }

// SetAfterOp installs a hook run after every driver operation
// (Put/Get/Delete/Flush/Seek/Next, each batch record, CompactVLog) — the
// sampling point for simulated-time metrics. Install it before the first
// operation; the hook runs under the shard mutex, so it may touch the Stack
// freely.
func (s *Shard) SetAfterOp(fn func()) { s.afterOp = fn }

// opDone fires the after-op hook; callers hold s.mu.
func (s *Shard) opDone() {
	if s.afterOp != nil {
		s.afterOp()
	}
}

// Close marks the shard closed and stops its helper, if any. Later
// operations fail with ErrClosed; Do keeps working. Idempotent.
func (s *Shard) Close() {
	s.mu.Lock()
	s.shutdown()
	s.mu.Unlock()
}

// shutdown marks the shard closed and stops its helper; callers hold s.mu,
// so the helper is idle.
func (s *Shard) shutdown() {
	if s.closed {
		return
	}
	s.closed = true
	if s.start != nil {
		close(s.start)
		for range s.done {
		}
	}
}

// Do runs fn under the shard mutex, closed or not — the snapshot path for
// stats and exporters, which stay readable after Close.
func (s *Shard) Do(fn func()) {
	s.mu.Lock()
	fn()
	s.mu.Unlock()
}

// Exec runs fn under the shard mutex, failing with ErrClosed once the shard
// is closed.
func (s *Shard) Exec(fn func(st *Stack) error) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	err := fn(s.stack)
	s.mu.Unlock()
	return err
}

// Put stores a key-value pair on this shard.
func (s *Shard) Put(key, value []byte) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	err := s.stack.Drv.Put(key, value)
	s.opDone()
	s.mu.Unlock()
	return err
}

// Get fetches the value for key from this shard. The returned slice is a
// view into the shard driver's read buffer, valid until the shard's next
// operation; callers that retain it — or share the shard across goroutines —
// must use GetInto instead.
func (s *Shard) Get(key []byte) ([]byte, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	v, err := s.stack.Drv.Get(key)
	s.opDone()
	s.mu.Unlock()
	return v, err
}

// GetInto fetches the value for key, copying it into dst (grown as needed)
// before the shard mutex is released. The returned slice is caller-owned and
// safe under concurrent shard use.
func (s *Shard) GetInto(key, dst []byte) ([]byte, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	v, err := s.stack.Drv.Get(key)
	if err == nil {
		dst = append(dst[:0], v...)
	} else {
		dst = nil
	}
	s.opDone()
	s.mu.Unlock()
	return dst, err
}

// Delete removes a key from this shard.
func (s *Shard) Delete(key []byte) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	err := s.stack.Drv.Delete(key)
	s.opDone()
	s.mu.Unlock()
	return err
}

// Flush forces this shard's buffered values and index entries to NAND.
func (s *Shard) Flush() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	err := s.stack.Drv.Flush()
	s.opDone()
	s.mu.Unlock()
	return err
}

// Seek positions this shard's device-side iterator at the first key >= start.
func (s *Shard) Seek(start []byte) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	err := s.stack.Drv.Seek(start)
	s.opDone()
	s.mu.Unlock()
	return err
}

// Next copies the shard iterator's current pair into key and value (grown
// as needed) and advances it; driver.ErrIterDone signals exhaustion. The
// copy happens under the shard mutex, so the returned slices are
// caller-owned even while other goroutines use the shard.
func (s *Shard) Next(key, value []byte) ([]byte, []byte, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return key, value, ErrClosed
	}
	k, v, err := s.stack.Drv.Next()
	if err == nil {
		key = append(key[:0], k...)
		value = append(value[:0], v...)
	}
	s.opDone()
	s.mu.Unlock()
	return key, value, err
}

// Now reports the shard's simulated time.
func (s *Shard) Now() sim.Time {
	s.mu.Lock()
	t := s.stack.Clock.Now()
	s.mu.Unlock()
	return t
}

// Tune applies a runtime retuning to this shard's driver.
func (s *Shard) Tune(t driver.Tuning) error {
	return s.Exec(func(st *Stack) error { return st.Drv.Tune(t) })
}

// CompactVLog garbage-collects the oldest pages value-log pages and reports
// how many values were relocated.
func (s *Shard) CompactVLog(pages int) (int, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	n, err := s.stack.Drv.CompactVLog(pages)
	s.opDone()
	s.mu.Unlock()
	return n, err
}

// runJob executes s.job; callers hold s.mu (a helper runs it on behalf of
// the Group that locked the shard).
func (s *Shard) runJob() error {
	j := &s.job
	switch j.kind {
	case jobPut:
		return s.putBatch(j.keys, j.vals, j.lane)
	case jobGet:
		return s.getBatch(j.keys, j.vals, nil, j.lane)
	case jobGetSparse:
		return s.getBatch(j.keys, j.vals, j.miss, j.lane)
	case jobFlush:
		err := s.stack.Drv.Flush()
		s.opDone()
		return err
	case jobRecover:
		return s.stack.Drv.Recover()
	}
	return fmt.Errorf("shard %d: unknown job kind %d", s.id, j.kind)
}

// help is the helper goroutine's loop: run each handed-over job and report
// it done, until Close closes start.
func (s *Shard) help() {
	for range s.start {
		s.job.err = s.runJob()
		s.done <- struct{}{}
	}
	close(s.done)
}

// putBatch feeds the lane's records through the shard's batcher and
// flushes, so every record is durable on return.
func (s *Shard) putBatch(keys, values [][]byte, lane []int) error {
	if s.batch == nil {
		b, err := s.stack.Drv.NewBatcher(DefaultBatchOps)
		if err != nil {
			return err
		}
		s.batch = b
	}
	for _, i := range lane {
		if err := s.batch.Put(keys[i], values[i]); err != nil {
			return err
		}
	}
	if err := s.batch.Flush(); err != nil {
		return err
	}
	s.opDone()
	return nil
}

// getBatch resolves the lane's keys, copying each value into the caller's
// dst lane (vals[i], grown as needed). A nil miss makes any error fatal
// (GetBatch); a non-nil miss turns a not-found completion into miss[i] and
// an empty lane (GetBatchSparse). With an asynchronous submission window
// configured the lane rides it; otherwise reads stay serial.
func (s *Shard) getBatch(keys, vals [][]byte, miss []bool, lane []int) error {
	drv := s.stack.Drv
	if drv.WindowDepth() >= 2 {
		return s.getBatchWindowed(keys, vals, miss, lane)
	}
	for _, i := range lane {
		v, err := drv.Get(keys[i])
		if err != nil {
			if miss == nil || !isNotFound(err) {
				return err
			}
			miss[i] = true
			vals[i] = vals[i][:0]
		} else {
			if miss != nil {
				miss[i] = false
			}
			vals[i] = append(vals[i][:0], v...)
		}
		s.opDone()
	}
	return nil
}

func isNotFound(err error) bool {
	st, ok := nvme.StatusOf(err)
	return ok && st == nvme.StatusKeyNotFound
}

// getBatchWindowed pumps the lane through the driver's asynchronous
// submission window: keep up to WindowDepth reads in flight, wait for the
// oldest before starting the next, then drain in submission order. Results
// land in the caller's lanes exactly as the serial path places them. Written
// closure-free so the steady-state batch-read path stays allocation-free.
func (s *Shard) getBatchWindowed(keys, vals [][]byte, miss []bool, lane []int) error {
	drv := s.stack.Drv
	depth := drv.WindowDepth()
	s.winH, s.winI = s.winH[:0], s.winI[:0]
	head, next := 0, 0
	for {
		// Reap the oldest in-flight read while the window is full, or once
		// every key has been submitted.
		for head < len(s.winH) && (len(s.winH)-head >= depth || next == len(lane)) {
			h, i := s.winH[head], s.winI[head]
			head++
			v, err := drv.WaitGetInto(h, vals[i])
			if err != nil {
				if miss != nil && isNotFound(err) {
					miss[i] = true
					vals[i] = vals[i][:0]
					s.opDone()
					continue
				}
				drv.DrainWindow()
				return err
			}
			if miss != nil {
				miss[i] = false
			}
			vals[i] = v
			s.opDone()
		}
		if next == len(lane) {
			return nil
		}
		i := lane[next]
		// A known-missing key resolves host-side: no command is built and no
		// simulated time passes, exactly as Driver.Get short-circuits the
		// serial path.
		if drv.NegativeKnown(keys[i]) {
			if miss == nil {
				drv.DrainWindow()
				return driver.ErrNegativeHit
			}
			miss[i] = true
			vals[i] = vals[i][:0]
			next++
			s.opDone()
			continue
		}
		h, err := drv.StartGet(keys[i])
		if err != nil {
			drv.DrainWindow()
			return err
		}
		s.winH = append(s.winH, h)
		s.winI = append(s.winI, i)
		next++
	}
}
