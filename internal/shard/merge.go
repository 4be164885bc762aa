package shard

import (
	"bytes"
	"container/heap"

	"bandslim/internal/driver"
)

// MergeIterator is a k-way merge over per-shard device iterators, the same
// idiom internal/lsm uses to merge SSTable runs: each shard contributes its
// key-ordered stream and a min-heap surfaces the globally smallest key.
// Keys are unique across shards (the partitioner assigns each key to exactly
// one shard), so no cross-shard shadowing arises; ties — impossible under a
// consistent partition — break by shard ID for determinism anyway.
//
// Like the single-device iterator, the snapshot is invalidated by writes
// interleaved with iteration; iterate before mutating.
type MergeIterator struct {
	srcs sourceHeap
	err  error
}

// source holds one shard's current pair in source-owned reused buffers
// (the heap retains pairs across other shards' operations).
type source struct {
	sh    *Shard
	key   []byte
	value []byte
}

// next loads the shard's next pair into the source's buffers.
func (s *source) next() error {
	var err error
	s.key, s.value, err = s.sh.Next(s.key, s.value)
	return err
}

type sourceHeap []*source

func (h sourceHeap) Len() int { return len(h) }
func (h sourceHeap) Less(i, j int) bool {
	if c := bytes.Compare(h[i].key, h[j].key); c != 0 {
		return c < 0
	}
	return h[i].sh.ID() < h[j].sh.ID()
}
func (h sourceHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *sourceHeap) Push(x any)   { *h = append(*h, x.(*source)) }
func (h *sourceHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// NewMergeIterator seeks every shard to the first key >= start and positions
// the merged view on the globally smallest pair; check Valid.
func NewMergeIterator(shards []*Shard, start []byte) (*MergeIterator, error) {
	m := &MergeIterator{}
	for _, sh := range shards {
		if err := sh.Seek(start); err != nil {
			return nil, err
		}
		src := &source{sh: sh}
		err := src.next()
		if err == driver.ErrIterDone {
			continue
		}
		if err != nil {
			return nil, err
		}
		m.srcs = append(m.srcs, src)
	}
	heap.Init(&m.srcs)
	return m, nil
}

// Valid reports whether the merged iterator holds a pair.
func (m *MergeIterator) Valid() bool { return m.err == nil && len(m.srcs) > 0 }

// Key returns the current key.
func (m *MergeIterator) Key() []byte {
	if !m.Valid() {
		return nil
	}
	return m.srcs[0].key
}

// Value returns the current value.
func (m *MergeIterator) Value() []byte {
	if !m.Valid() {
		return nil
	}
	return m.srcs[0].value
}

// Err reports the error that stopped iteration, if any.
func (m *MergeIterator) Err() error { return m.err }

// Next advances to the following pair in global key order.
func (m *MergeIterator) Next() {
	if !m.Valid() {
		return
	}
	err := m.srcs[0].next()
	if err == driver.ErrIterDone {
		heap.Pop(&m.srcs)
		return
	}
	if err != nil {
		m.err = err
		return
	}
	heap.Fix(&m.srcs, 0)
}
