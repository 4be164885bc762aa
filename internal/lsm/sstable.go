package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"bandslim/internal/ftl"
	"bandslim/internal/sim"
	"bandslim/internal/vlog"
)

// PageStore abstracts the NAND meta region SSTables are serialized into.
// Page numbers are region-relative. The FTL-backed implementation charges
// simulated NAND time; tests may use an in-memory store.
type PageStore interface {
	WritePage(t sim.Time, page int, data []byte) (sim.Time, error)
	ReadPage(t sim.Time, page int) ([]byte, sim.Time, error)
	TrimPage(page int) error
	PageSize() int
	Pages() int
}

// FTLStore adapts a region of the FTL's logical space as a PageStore.
type FTLStore struct {
	f     *ftl.FTL
	base  int
	pages int
}

// NewFTLStore maps pages [base, base+pages) of the FTL.
func NewFTLStore(f *ftl.FTL, base, pages int) (*FTLStore, error) {
	if base < 0 || pages <= 0 || base+pages > f.LogicalPages() {
		return nil, fmt.Errorf("lsm: store region [%d,%d) exceeds FTL capacity %d",
			base, base+pages, f.LogicalPages())
	}
	return &FTLStore{f: f, base: base, pages: pages}, nil
}

// WritePage persists one meta page.
func (s *FTLStore) WritePage(t sim.Time, page int, data []byte) (sim.Time, error) {
	if page < 0 || page >= s.pages {
		return t, fmt.Errorf("lsm: page %d out of store range %d", page, s.pages)
	}
	return s.f.Write(t, s.base+page, data)
}

// ReadPage fetches one meta page.
func (s *FTLStore) ReadPage(t sim.Time, page int) ([]byte, sim.Time, error) {
	if page < 0 || page >= s.pages {
		return nil, t, fmt.Errorf("lsm: page %d out of store range %d", page, s.pages)
	}
	return s.f.Read(t, s.base+page)
}

// TrimPage releases one meta page back to the FTL.
func (s *FTLStore) TrimPage(page int) error {
	if page < 0 || page >= s.pages {
		return fmt.Errorf("lsm: page %d out of store range %d", page, s.pages)
	}
	return s.f.Trim(s.base + page)
}

// PageSize reports the NAND page size.
func (s *FTLStore) PageSize() int { return s.f.PageSize() }

// Pages reports the region size.
func (s *FTLStore) Pages() int { return s.pages }

// Entry wire format within an SSTable page:
//
//	keyLen   uint8
//	key      keyLen bytes
//	addr     5 bytes little-endian (40-bit vLog byte address, §3.4)
//	size     uint32
//	flags    uint8 (bit0 = tombstone)
//
// Entries never span pages; a page ends with a 0 keyLen sentinel (or runs to
// the page boundary).
const (
	addrBytes     = 5
	entryFixed    = 1 + addrBytes + 4 + 1 // keyLen + addr + size + flags
	flagTombstone = 0x01
)

func encodedLen(e Entry) int { return entryFixed + len(e.Key) }

func encodeEntry(dst []byte, e Entry) int {
	i := 0
	dst[i] = byte(len(e.Key))
	i++
	i += copy(dst[i:], e.Key)
	a := uint64(e.Addr)
	binary.LittleEndian.PutUint32(dst[i:], uint32(a))
	dst[i+4] = byte(a >> 32)
	i += addrBytes
	binary.LittleEndian.PutUint32(dst[i:], e.Size)
	i += 4
	var fl byte
	if e.Tombstone {
		fl |= flagTombstone
	}
	dst[i] = fl
	return i + 1
}

// parseEntry validates one encoded entry and returns its fields without
// materializing the key (the key occupies src[1 : 1+kl]).
func parseEntry(src []byte) (kl int, addr vlog.Addr, size uint32, tomb bool, n int, err error) {
	if len(src) < 1 {
		return 0, 0, 0, false, 0, fmt.Errorf("lsm: truncated entry header")
	}
	kl = int(src[0])
	if kl == 0 {
		return 0, 0, 0, false, 0, errEndOfPage
	}
	if kl > MaxKeySize || len(src) < entryFixed+kl {
		return 0, 0, 0, false, 0, fmt.Errorf("lsm: corrupt entry (keyLen %d, %d bytes left)", kl, len(src))
	}
	i := 1 + kl
	a := uint64(binary.LittleEndian.Uint32(src[i:])) | uint64(src[i+4])<<32
	i += addrBytes
	size = binary.LittleEndian.Uint32(src[i:])
	i += 4
	tomb = src[i]&flagTombstone != 0
	return kl, vlog.Addr(a), size, tomb, i + 1, nil
}

var errEndOfPage = fmt.Errorf("lsm: end of page")

// SSTable is one immutable sorted run. Pages hold the encoded entries; the
// in-memory handle keeps the page list and a sparse index (first key per
// page), as in-device LSM-trees keep their level lists in DRAM.
type SSTable struct {
	id       uint64
	pages    []int    // region-relative page numbers, in key order
	firstKey [][]byte // first key of each page
	smallest []byte
	largest  []byte
	entries  int
	keyBytes int // sum of the entries' key lengths
}

// ID reports the table's unique id.
func (t *SSTable) ID() uint64 { return t.id }

// Entries reports how many entries the table holds.
func (t *SSTable) Entries() int { return t.entries }

// Smallest reports the table's smallest key.
func (t *SSTable) Smallest() []byte { return t.smallest }

// Largest reports the table's largest key.
func (t *SSTable) Largest() []byte { return t.largest }

// PageCount reports how many NAND pages the table occupies.
func (t *SSTable) PageCount() int { return len(t.pages) }

// overlaps reports whether the table's key range intersects [lo, hi].
func (t *SSTable) overlaps(lo, hi []byte) bool {
	if len(t.smallest) == 0 {
		return false
	}
	return bytes.Compare(t.largest, lo) >= 0 && bytes.Compare(t.smallest, hi) <= 0
}

// pageForKey returns the index of the page that may contain key (the last
// page whose first key is <= key), or -1 when the key precedes the table.
func (t *SSTable) pageForKey(key []byte) int {
	lo, hi := 0, len(t.firstKey)-1
	best := -1
	for lo <= hi {
		mid := (lo + hi) / 2
		if bytes.Compare(t.firstKey[mid], key) <= 0 {
			best = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return best
}

// decodePageInto parses every entry in a page image into reused scratch: the
// entry slice is truncated and refilled, and every key sub-slices the arena.
// The arena is pre-sized to the page so appends never move it mid-decode.
// Returned entries are views valid until the next call with the same scratch;
// the read hot paths (point lookups, scans) use this to avoid a key
// allocation per decoded entry.
func decodePageInto(entries []Entry, arena, data []byte) ([]Entry, []byte, error) {
	if cap(arena) < len(data) {
		arena = make([]byte, 0, len(data))
	}
	return appendPage(entries[:0], arena[:0], data)
}

// appendPage parses every entry in a page image, appending the entries to
// entries and their keys to arena. Keys are views into arena; a caller that
// sizes arena for every key it will append keeps earlier keys in place.
func appendPage(entries []Entry, arena, data []byte) ([]Entry, []byte, error) {
	i := 0
	for i < len(data) {
		kl, addr, size, tomb, n, err := parseEntry(data[i:])
		if err == errEndOfPage {
			break
		}
		if err != nil {
			return entries, arena, err
		}
		start := len(arena)
		arena = append(arena, data[i+1:i+1+kl]...)
		key := arena[start : start+kl : start+kl]
		entries = append(entries, Entry{Key: key, Addr: addr, Size: size, Tombstone: tomb})
		i += n
	}
	return entries, arena, nil
}

// tableBuilder streams sorted entries into pages through a PageStore. The
// tree keeps one builder and restarts it for every table, so the page buffer
// is reused; that is safe because a PageStore copies what it writes.
type tableBuilder struct {
	store PageStore
	alloc *pageAllocator
	table *SSTable
	last  []byte // the table's largest key so far, a view of the caller's entry
	page  []byte
	used  int
	end   sim.Time
}

func newTableBuilder(store PageStore, alloc *pageAllocator) *tableBuilder {
	return &tableBuilder{store: store, alloc: alloc, page: make([]byte, store.PageSize())}
}

// start begins a new table with the given id, sized for pages pages.
func (b *tableBuilder) start(id uint64, pages int) {
	b.table = &SSTable{id: id, pages: make([]int, 0, pages), firstKey: make([][]byte, 0, pages)}
	b.used = 0
	b.end = 0
}

// add appends one entry (entries must arrive in strictly increasing key
// order; the caller guarantees this). The entry's key must stay intact until
// finish, which copies the largest one.
func (b *tableBuilder) add(t sim.Time, e Entry) error {
	need := encodedLen(e)
	if b.used+need > len(b.page) {
		if err := b.flushPage(t); err != nil {
			return err
		}
	}
	if b.used == 0 {
		b.table.firstKey = append(b.table.firstKey, append([]byte(nil), e.Key...))
	}
	b.used += encodeEntry(b.page[b.used:], e)
	b.last = e.Key
	b.table.entries++
	b.table.keyBytes += len(e.Key)
	return nil
}

func (b *tableBuilder) flushPage(t sim.Time) error {
	if b.used == 0 {
		return nil
	}
	page, err := b.alloc.alloc()
	if err != nil {
		return err
	}
	end, err := b.store.WritePage(t, page, b.page[:b.used])
	if err != nil {
		b.alloc.free(page)
		return err
	}
	if end > b.end {
		b.end = end
	}
	b.table.pages = append(b.table.pages, page)
	clear(b.page[:b.used])
	b.used = 0
	return nil
}

// finish flushes the tail page and returns the table (nil if empty).
func (b *tableBuilder) finish(t sim.Time) (*SSTable, sim.Time, error) {
	if err := b.flushPage(t); err != nil {
		return nil, b.end, err
	}
	if b.table.entries == 0 {
		return nil, b.end, nil
	}
	b.table.smallest = b.table.firstKey[0]
	b.table.largest = append([]byte(nil), b.last...)
	return b.table, b.end, nil
}

// pageAllocator hands out meta-region pages with free-list reuse.
type pageAllocator struct {
	next     int
	limit    int
	freeList []int
}

func newPageAllocator(pages int) *pageAllocator {
	return &pageAllocator{limit: pages}
}

func (a *pageAllocator) alloc() (int, error) {
	if n := len(a.freeList); n > 0 {
		p := a.freeList[n-1]
		a.freeList = a.freeList[:n-1]
		return p, nil
	}
	if a.next >= a.limit {
		return 0, fmt.Errorf("lsm: meta region full (%d pages)", a.limit)
	}
	p := a.next
	a.next++
	return p, nil
}

func (a *pageAllocator) free(p int) { a.freeList = append(a.freeList, p) }

// inUse reports how many pages are currently allocated.
func (a *pageAllocator) inUse() int { return a.next - len(a.freeList) }

// allocState is a restorable copy of the allocator, captured in the tree's
// committed catalog.
type allocState struct {
	next     int
	freeList []int
}

func (a *pageAllocator) snapshot() allocState {
	return allocState{next: a.next, freeList: append([]int(nil), a.freeList...)}
}

func (a *pageAllocator) restore(s allocState) {
	a.next = s.next
	a.freeList = append(a.freeList[:0], s.freeList...)
}
