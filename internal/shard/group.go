package shard

import (
	"runtime"
	"sync"
)

// Group is a hash-partitioned set of shards: single-key operations go to
// the key's shard, batches split into per-shard lanes that run in parallel.
type Group struct {
	shards []*Shard
	part   *Partitioner
	all    []int // 0..len(shards)-1, the lanes of a whole-group operation

	// batchMu guards the lane scratch below for the length of one batch.
	batchMu sync.Mutex
	lanes   [][]int
	hot     []int // shards with a non-empty lane, ascending
}

// NewGroup builds one shard per Options entry, keyed by seed, and starts a
// helper goroutine on every shard but the last. The last shard never needs
// one: a batch runs its highest involved lane on the caller. A one-shard
// group therefore starts no goroutine.
func NewGroup(opts []Options, seed uint64) (*Group, error) {
	part, err := NewPartitioner(len(opts), seed)
	if err != nil {
		return nil, err
	}
	g := &Group{
		shards: make([]*Shard, len(opts)),
		part:   part,
		all:    make([]int, len(opts)),
		lanes:  make([][]int, len(opts)),
	}
	for i, o := range opts {
		sh, err := New(i, o)
		if err != nil {
			return nil, err
		}
		g.shards[i] = sh
		g.all[i] = i
	}
	for _, sh := range g.shards[:len(opts)-1] {
		sh.start = make(chan struct{})
		sh.done = make(chan struct{}, 1)
		go sh.help()
	}
	return g, nil
}

// Shards lists the group's shards in index order.
func (g *Group) Shards() []*Shard { return g.shards }

// ShardFor reports which shard index serves key.
func (g *Group) ShardFor(key []byte) int { return g.part.Shard(key) }

// For returns the shard that serves key.
func (g *Group) For(key []byte) *Shard { return g.shards[g.part.Shard(key)] }

// lock takes the mutexes of the shards listed in idx, which is ascending:
// every multi-shard operation locks in the same order, so none deadlocks. It
// fails with ErrClosed, holding nothing, if any of them is closed.
func (g *Group) lock(idx []int) error {
	for _, i := range idx {
		g.shards[i].mu.Lock()
	}
	for _, i := range idx {
		if g.shards[i].closed {
			g.unlock(idx)
			return ErrClosed
		}
	}
	return nil
}

func (g *Group) unlock(idx []int) {
	for _, i := range idx {
		g.shards[i].mu.Unlock()
	}
}

// yieldKeys is the batch size from which run yields after handing lanes to
// the helpers. A goroutine woken by a channel send waits in the waker's run
// slot, which an idle P steals only after a timer-slack sleep, so without
// the yield a helper starts late while the caller runs its own lane; the
// yield puts the caller on the global queue, where an idle P finds it at
// once, and lets this P run a helper now. Below this size the lanes are
// shorter than that wake-up, and running the caller's lane first and the
// helper's right after on the same P is faster. Whole-group operations
// (Flush, Recover, Close) always yield.
const yieldKeys = 32

// run executes j on every shard in idx, whose mutexes the caller holds. Each
// lane but the last goes to its shard's helper; the last runs on the
// caller's goroutine. lanes, when non-nil, gives each shard its key indices.
// The first error in shard order wins. Holding the mutexes across the
// hand-over cannot deadlock: a helper takes no lock, and only a holder of
// its shard's mutex ever hands it a job.
func (g *Group) run(idx []int, lanes [][]int, j job) error {
	last := len(idx) - 1
	for _, i := range idx {
		sh := g.shards[i]
		sh.job = j
		if lanes != nil {
			sh.job.lane = lanes[i]
		}
		if i != idx[last] {
			sh.start <- struct{}{}
		}
	}
	if last > 0 && (j.keys == nil || len(j.keys) >= yieldKeys) {
		runtime.Gosched()
	}
	sh := g.shards[idx[last]]
	lastErr := sh.runJob()
	sh.job = job{}
	var first error
	for _, i := range idx[:last] {
		sh := g.shards[i]
		<-sh.done
		if first == nil {
			first = sh.job.err
		}
		sh.job = job{}
	}
	if first == nil {
		first = lastErr
	}
	return first
}

// batch splits keys into per-shard lanes and runs j across the involved
// shards.
func (g *Group) batch(keys [][]byte, j job) error {
	g.batchMu.Lock()
	for i := range g.lanes {
		g.lanes[i] = g.lanes[i][:0]
	}
	for i, k := range keys {
		sh := g.part.Shard(k)
		g.lanes[sh] = append(g.lanes[sh], i)
	}
	g.hot = g.hot[:0]
	for i, lane := range g.lanes {
		if len(lane) > 0 {
			g.hot = append(g.hot, i)
		}
	}
	if len(g.hot) == 0 {
		// An empty batch still reports a closed group.
		g.hot = append(g.hot, 0)
	}
	err := g.lock(g.hot)
	if err == nil {
		err = g.run(g.hot, g.lanes, j)
		g.unlock(g.hot)
	}
	g.batchMu.Unlock()
	return err
}

// PutBatch writes the pairs through each involved shard's batcher as bulk
// OpKVBatchWrite commands and flushes, so every record is durable on return.
// The first error in shard order wins; records on other shards may still
// have been written.
func (g *Group) PutBatch(keys, values [][]byte) error {
	return g.batch(keys, job{kind: jobPut, keys: keys, vals: values})
}

// GetBatch resolves every key, copying each value into the matching vals
// lane (vals[i], grown as needed). On error, lanes after the failing key on
// that shard are left untouched.
func (g *Group) GetBatch(keys, vals [][]byte) error {
	return g.batch(keys, job{kind: jobGet, keys: keys, vals: vals})
}

// GetBatchSparse resolves keys like GetBatch, but an absent key sets miss[i]
// (and empties vals[i]) instead of failing the batch.
func (g *Group) GetBatchSparse(keys, vals [][]byte, miss []bool) error {
	return g.batch(keys, job{kind: jobGetSparse, keys: keys, vals: vals, miss: miss})
}

// Flush forces every shard's buffered values and index entries to NAND, in
// parallel. The first error in shard order wins.
func (g *Group) Flush() error { return g.whole(jobFlush) }

// Recover remounts every shard's device after a power cut, in parallel,
// replaying each battery-backed journal. The first error in shard order
// wins.
func (g *Group) Recover() error { return g.whole(jobRecover) }

func (g *Group) whole(kind jobKind) error {
	if err := g.lock(g.all); err != nil {
		return err
	}
	err := g.run(g.all, nil, job{kind: kind})
	g.unlock(g.all)
	return err
}

// Close flushes every shard in parallel, then closes them all and stops the
// helpers. Later operations fail with ErrClosed; Do keeps working.
// Idempotent: closing a closed group returns nil.
func (g *Group) Close() error {
	if err := g.lock(g.all); err != nil {
		return nil
	}
	err := g.run(g.all, nil, job{kind: jobFlush})
	for _, sh := range g.shards {
		sh.shutdown()
	}
	g.unlock(g.all)
	return err
}
