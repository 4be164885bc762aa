// Package lsm implements the in-device, key-value-separated LSM-tree of the
// paper's KV-SSD (§2.1): a skiplist MemTable holding key → (vLog address,
// size) entries, SSTables serialized onto NAND meta pages, leveled
// compaction that never rewrites values (the point of KV separation), and
// merged iterators backing the SEEK/NEXT interface.
package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"bandslim/internal/vlog"
)

// Entry is one index record: a key and where its value lives in the vLog.
// Fine-grained value addressing (§3.4) makes Addr a byte offset.
type Entry struct {
	Key       []byte
	Addr      vlog.Addr
	Size      uint32
	Tombstone bool
}

const (
	maxHeight = 12
	// MaxKeySize mirrors the NVMe command's inline key capacity.
	MaxKeySize = 16
	// nodeSlab sizes the chunks a MemTable carves its skiplist nodes from,
	// so an insert costs no allocation of its own.
	nodeSlab = 128
)

type skipNode struct {
	// pre is keyPrefix(entry.Key), kept next to the links so a search step
	// usually decides without reading the key itself.
	pre   uint64
	next  [maxHeight]*skipNode
	entry Entry
	key   [MaxKeySize]byte // backs entry.Key
}

// keyPrefix packs a key's first 8 bytes big-endian, zero-padded. Keys whose
// prefixes differ sort as their prefixes do; equal prefixes need the keys.
func keyPrefix(key []byte) uint64 {
	var b [8]byte
	copy(b[:], key)
	return binary.BigEndian.Uint64(b[:])
}

// MemTable is a skiplist-ordered write buffer. The device's DRAM is battery
// backed, so the MemTable is durable the moment a value is inserted (§2.2).
//
// Nodes, each holding its own copy of its key, are carved from slabs the
// table owns. A flushed MemTable is dropped, never reset, so an open
// iterator's nodes stay intact.
type MemTable struct {
	head   *skipNode
	height int
	count  int
	bytes  int // approximate index bytes held
	rng    *simRNG
	nodes  []skipNode // node slab: len is the carved prefix
}

// simRNG is a tiny xorshift so the skiplist is deterministic per table.
type simRNG struct{ s uint64 }

func (r *simRNG) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

// NewMemTable returns an empty table.
func NewMemTable() *MemTable {
	return &MemTable{head: &skipNode{}, height: 1, rng: &simRNG{s: 0x9E3779B97F4A7C15}}
}

// Len reports the number of entries (including tombstones).
func (m *MemTable) Len() int { return m.count }

// ApproxBytes reports the approximate index memory held.
func (m *MemTable) ApproxBytes() int { return m.bytes }

func (m *MemTable) randomHeight() int {
	h := 1
	for h < maxHeight && m.rng.next()&3 == 0 {
		h++
	}
	return h
}

// Put inserts or updates a key. The key is copied; callers may reuse the
// slice. Oversized keys are an error.
func (m *MemTable) Put(key []byte, addr vlog.Addr, size uint32, tombstone bool) error {
	if len(key) == 0 || len(key) > MaxKeySize {
		return fmt.Errorf("lsm: key length %d out of range [1,%d]", len(key), MaxKeySize)
	}
	var prev [maxHeight]*skipNode
	pre := keyPrefix(key)
	n := m.search(pre, key, &prev)
	if c := n.next[0]; c != nil && bytes.Equal(c.entry.Key, key) {
		c.entry.Addr = addr
		c.entry.Size = size
		c.entry.Tombstone = tombstone
		return nil
	}
	h := m.randomHeight()
	if h > m.height {
		for lvl := m.height; lvl < h; lvl++ {
			prev[lvl] = m.head
		}
		m.height = h
	}
	node := m.newNode()
	node.pre = pre
	copy(node.key[:], key)
	node.entry = Entry{Key: node.key[:len(key):len(key)], Addr: addr, Size: size, Tombstone: tombstone}
	for lvl := 0; lvl < h; lvl++ {
		node.next[lvl] = prev[lvl].next[lvl]
		prev[lvl].next[lvl] = node
	}
	m.count++
	m.bytes += len(key) + entryOverhead
	return nil
}

// search returns the last node whose key sorts before key, whose prefix is
// pre. When prev is not nil it also records that node for every level.
func (m *MemTable) search(pre uint64, key []byte, prev *[maxHeight]*skipNode) *skipNode {
	n := m.head
	for lvl := m.height - 1; lvl >= 0; lvl-- {
		for {
			nx := n.next[lvl]
			if nx == nil || nx.pre > pre || nx.pre == pre && bytes.Compare(nx.entry.Key, key) >= 0 {
				break
			}
			n = nx
		}
		if prev != nil {
			prev[lvl] = n
		}
	}
	return n
}

// newNode carves a zeroed node from the node slab, starting a new slab when
// the current one is used up.
func (m *MemTable) newNode() *skipNode {
	if len(m.nodes) == cap(m.nodes) {
		m.nodes = make([]skipNode, 0, nodeSlab)
	}
	m.nodes = m.nodes[:len(m.nodes)+1]
	return &m.nodes[len(m.nodes)-1]
}

// entryOverhead approximates the per-entry index cost (addr+size+flags+links).
const entryOverhead = 16

// Get looks a key up. The second result reports whether the key is present
// (a tombstone is present — the entry's Tombstone field distinguishes it).
func (m *MemTable) Get(key []byte) (Entry, bool) {
	n := m.search(keyPrefix(key), key, nil)
	if c := n.next[0]; c != nil && bytes.Equal(c.entry.Key, key) {
		return c.entry, true
	}
	return Entry{}, false
}

// Iterator returns an in-order iterator positioned before the first entry.
func (m *MemTable) Iterator() *MemIterator {
	return &MemIterator{node: m.head}
}

// MemIterator walks a MemTable in key order.
type MemIterator struct {
	node *skipNode
}

// Next advances and reports whether an entry is available via Entry.
func (it *MemIterator) Next() bool {
	if it.node == nil {
		return false
	}
	it.node = it.node.next[0]
	return it.node != nil
}

// Entry returns the current entry. Valid only after Next reported true.
func (it *MemIterator) Entry() Entry { return it.node.entry }

// Seek positions the iterator so the next call to Next returns the first
// entry with key >= target.
func (it *MemIterator) Seek(m *MemTable, target []byte) {
	it.node = m.search(keyPrefix(target), target, nil)
}
