package lsm

import (
	"bytes"
	"fmt"
	"sort"

	"bandslim/internal/metrics"
	"bandslim/internal/sim"
	"bandslim/internal/vlog"
)

// Config tunes the tree.
type Config struct {
	// MemTableEntries triggers a flush when the MemTable reaches this many
	// entries.
	MemTableEntries int
	// L0CompactionTrigger compacts L0 into L1 when L0 accumulates this many
	// tables.
	L0CompactionTrigger int
	// LevelTableBase caps L1 at this many tables; each deeper level holds
	// 10x more.
	LevelTableBase int
	// MaxLevels bounds the tree depth (L0..L{MaxLevels-1}).
	MaxLevels int
	// TablePages caps the size of one output SSTable during compaction.
	TablePages int
}

// DefaultConfig returns the tuning used by the benchmarks.
func DefaultConfig() Config {
	return Config{
		MemTableEntries:     4096,
		L0CompactionTrigger: 4,
		LevelTableBase:      8,
		MaxLevels:           4,
		TablePages:          8,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.MemTableEntries < 1 || c.L0CompactionTrigger < 2 ||
		c.LevelTableBase < 1 || c.MaxLevels < 2 || c.TablePages < 1 {
		return fmt.Errorf("lsm: invalid config %+v", c)
	}
	return nil
}

// Stats tallies tree activity.
type Stats struct {
	Puts            metrics.Counter
	Gets            metrics.Counter
	Flushes         metrics.Counter
	Compactions     metrics.Counter
	TablesWritten   metrics.Counter
	EntriesMerged   metrics.Counter
	TombstonesDrop  metrics.Counter
	PageReadsServed metrics.Counter // meta pages read for lookups/compaction
}

// Tree is the LSM index. Values never live here — only (addr, size) pairs
// pointing into the vLog, so compaction rewrites the index, not the data.
type Tree struct {
	cfg    Config
	store  PageStore
	alloc  *pageAllocator
	mem    *MemTable
	levels [][]*SSTable // levels[0]: newest first; deeper: sorted by smallest
	nextID uint64
	stats  Stats
	// searchEntries/searchArena are the point-lookup decode scratch: Get
	// returns as soon as a table hits, so entries never outlive one
	// searchTable call. The returned Entry's key is a view valid until the
	// next lookup.
	searchEntries []Entry
	searchArena   []byte
	// builder writes every table the tree produces, one after another;
	// scratch is the compaction merge state (see mergeScratch).
	builder *tableBuilder
	scratch mergeScratch

	// Crash-atomicity state. The catalog (levels + allocator + nextID) is
	// snapshotted at the end of every successful Flush; Restore rolls back to
	// that snapshot after a power cut. Pages vacated by compaction are only
	// trimmed at commit (pendingFree), so the committed catalog's tables are
	// always intact on flash.
	pendingFree []int
	committed   catalog
	onDurable   func()
}

// catalog is the durable view of the tree: everything needed to rebuild it
// at mount, as firmware would persist in a superblock.
type catalog struct {
	levels [][]*SSTable // SSTables are immutable; sharing pointers is safe
	alloc  allocState
	nextID uint64
}

// snapshotCatalog deep-copies the level structure (table pointers shared).
func (tr *Tree) snapshotCatalog() catalog {
	levels := make([][]*SSTable, len(tr.levels))
	for i, lvl := range tr.levels {
		levels[i] = append([]*SSTable(nil), lvl...)
	}
	return catalog{levels: levels, alloc: tr.alloc.snapshot(), nextID: tr.nextID}
}

// commit applies the deferred page frees and snapshots the catalog. Called
// at the end of every successful Flush — the tree's durability point.
func (tr *Tree) commit() {
	for _, pg := range tr.pendingFree {
		tr.alloc.free(pg)
		// Trim failures only occur for out-of-range pages, which would be a
		// bug caught by the allocator; ignore defensively.
		_ = tr.store.TrimPage(pg)
	}
	tr.pendingFree = tr.pendingFree[:0]
	tr.committed = tr.snapshotCatalog()
	if tr.onDurable != nil {
		tr.onDurable()
	}
}

// SetOnDurable registers a hook invoked every time the tree reaches a new
// durable point (end of a successful Flush). The device uses it to clear its
// battery-backed index journal.
func (tr *Tree) SetOnDurable(fn func()) { tr.onDurable = fn }

// Restore rolls the tree back to its last committed catalog: the MemTable
// empties, partially flushed tables vanish, and deferred frees are dropped
// (their pages were never trimmed, so the committed tables remain intact).
// The device mount calls this before replaying its journal.
func (tr *Tree) Restore() {
	tr.levels = make([][]*SSTable, len(tr.committed.levels))
	for i, lvl := range tr.committed.levels {
		tr.levels[i] = append([]*SSTable(nil), lvl...)
	}
	tr.alloc.restore(tr.committed.alloc)
	tr.nextID = tr.committed.nextID
	tr.mem = NewMemTable()
	tr.pendingFree = tr.pendingFree[:0]
}

// NewTree builds an empty tree over the store.
func NewTree(cfg Config, store PageStore) (*Tree, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	alloc := newPageAllocator(store.Pages())
	tr := &Tree{
		cfg:     cfg,
		store:   store,
		alloc:   alloc,
		mem:     NewMemTable(),
		levels:  make([][]*SSTable, cfg.MaxLevels),
		builder: newTableBuilder(store, alloc),
	}
	tr.committed = tr.snapshotCatalog()
	return tr, nil
}

// Stats exposes the tree's tallies.
func (tr *Tree) Stats() *Stats { return &tr.stats }

// MemLen reports the MemTable's entry count (introspection for tests).
func (tr *Tree) MemLen() int { return tr.mem.Len() }

// LevelTables reports the table count of each level.
func (tr *Tree) LevelTables() []int {
	out := make([]int, len(tr.levels))
	for i, lvl := range tr.levels {
		out[i] = len(lvl)
	}
	return out
}

// MetaPagesInUse reports how many meta-region pages the tree occupies.
func (tr *Tree) MetaPagesInUse() int { return tr.alloc.inUse() }

// Put records key → (addr, size). It may trigger a MemTable flush and
// cascading compactions, whose NAND time is charged to the returned
// completion time (firmware performs them synchronously).
func (tr *Tree) Put(t sim.Time, key []byte, addr vlog.Addr, size uint32) (sim.Time, error) {
	return tr.insert(t, key, addr, size, false)
}

// Delete records a tombstone for key.
func (tr *Tree) Delete(t sim.Time, key []byte) (sim.Time, error) {
	return tr.insert(t, key, 0, 0, true)
}

func (tr *Tree) insert(t sim.Time, key []byte, addr vlog.Addr, size uint32, tomb bool) (sim.Time, error) {
	if err := tr.mem.Put(key, addr, size, tomb); err != nil {
		return t, err
	}
	tr.stats.Puts.Inc()
	if tr.mem.Len() < tr.cfg.MemTableEntries {
		return t, nil
	}
	return tr.Flush(t)
}

// Flush persists the MemTable as a new L0 table and runs any compactions it
// triggers. Flushing an empty MemTable is a no-op.
func (tr *Tree) Flush(t sim.Time) (sim.Time, error) {
	if tr.mem.Len() == 0 {
		return t, nil
	}
	b := tr.startTable()
	it := tr.mem.Iterator()
	for it.Next() {
		if err := b.add(t, it.Entry()); err != nil {
			return t, err
		}
	}
	table, end, err := b.finish(t)
	if err != nil {
		return t, err
	}
	if table != nil {
		tr.levels[0] = append([]*SSTable{table}, tr.levels[0]...)
		tr.stats.TablesWritten.Inc()
	}
	tr.mem = NewMemTable()
	tr.stats.Flushes.Inc()
	cEnd, err := tr.maybeCompact(t)
	if err != nil {
		return end, err
	}
	if cEnd > end {
		end = cEnd
	}
	tr.commit()
	return end, nil
}

// Get resolves a key to its vLog location, searching MemTable, then L0
// newest-first, then each deeper level. The boolean reports presence; a
// present tombstone means "deleted".
func (tr *Tree) Get(t sim.Time, key []byte) (Entry, bool, sim.Time, error) {
	tr.stats.Gets.Inc()
	if e, ok := tr.mem.Get(key); ok {
		return e, true, t, nil
	}
	end := t
	for _, table := range tr.levels[0] {
		if !table.overlaps(key, key) {
			continue
		}
		e, ok, rEnd, err := tr.searchTable(t, table, key)
		if err != nil {
			return Entry{}, false, t, err
		}
		if rEnd > end {
			end = rEnd
		}
		if ok {
			return e, true, end, nil
		}
	}
	for lvl := 1; lvl < len(tr.levels); lvl++ {
		table := tr.findInLevel(lvl, key)
		if table == nil {
			continue
		}
		e, ok, rEnd, err := tr.searchTable(t, table, key)
		if err != nil {
			return Entry{}, false, t, err
		}
		if rEnd > end {
			end = rEnd
		}
		if ok {
			return e, true, end, nil
		}
	}
	return Entry{}, false, end, nil
}

// findInLevel binary-searches a sorted (non-overlapping) level for the table
// covering key.
func (tr *Tree) findInLevel(lvl int, key []byte) *SSTable {
	tables := tr.levels[lvl]
	i := sort.Search(len(tables), func(i int) bool {
		return bytes.Compare(tables[i].largest, key) >= 0
	})
	if i < len(tables) && bytes.Compare(tables[i].smallest, key) <= 0 {
		return tables[i]
	}
	return nil
}

// searchTable reads the one candidate page and scans it for the key.
func (tr *Tree) searchTable(t sim.Time, table *SSTable, key []byte) (Entry, bool, sim.Time, error) {
	pi := table.pageForKey(key)
	if pi < 0 {
		return Entry{}, false, t, nil
	}
	data, end, err := tr.store.ReadPage(t, table.pages[pi])
	if err != nil {
		return Entry{}, false, t, err
	}
	tr.stats.PageReadsServed.Inc()
	entries, arena, err := decodePageInto(tr.searchEntries, tr.searchArena, data)
	tr.searchEntries, tr.searchArena = entries, arena
	if err != nil {
		return Entry{}, false, t, err
	}
	i := sort.Search(len(entries), func(i int) bool {
		return bytes.Compare(entries[i].Key, key) >= 0
	})
	if i < len(entries) && bytes.Equal(entries[i].Key, key) {
		return entries[i], true, end, nil
	}
	return Entry{}, false, end, nil
}

func (tr *Tree) maxTables(lvl int) int {
	n := tr.cfg.LevelTableBase
	for i := 1; i < lvl; i++ {
		n *= 10
	}
	return n
}

// maybeCompact runs L0→L1 compaction and cascades level overflows downward.
func (tr *Tree) maybeCompact(t sim.Time) (sim.Time, error) {
	end := t
	if len(tr.levels[0]) >= tr.cfg.L0CompactionTrigger {
		e, err := tr.compactL0(t)
		if err != nil {
			return end, err
		}
		if e > end {
			end = e
		}
	}
	for lvl := 1; lvl < len(tr.levels)-1; lvl++ {
		for len(tr.levels[lvl]) > tr.maxTables(lvl) {
			e, err := tr.compactLevel(t, lvl)
			if err != nil {
				return end, err
			}
			if e > end {
				end = e
			}
		}
	}
	return end, nil
}

// compactL0 merges every L0 table with the overlapping span of L1.
func (tr *Tree) compactL0(t sim.Time) (sim.Time, error) {
	inputs := append([]*SSTable(nil), tr.levels[0]...)
	lo, hi := keyRange(inputs)
	over, rest := splitOverlap(tr.levels[1], lo, hi)
	inputs = append(inputs, over...)
	out, end, err := tr.merge(t, inputs, 1 == len(tr.levels)-1)
	if err != nil {
		return t, err
	}
	tr.levels[0] = nil
	tr.levels[1] = insertSorted(rest, out)
	tr.freeTables(inputs)
	tr.stats.Compactions.Inc()
	return end, nil
}

// compactLevel pushes one table from lvl into lvl+1.
func (tr *Tree) compactLevel(t sim.Time, lvl int) (sim.Time, error) {
	victim := tr.levels[lvl][0]
	tr.levels[lvl] = tr.levels[lvl][1:]
	over, rest := splitOverlap(tr.levels[lvl+1], victim.smallest, victim.largest)
	inputs := append([]*SSTable{victim}, over...)
	out, end, err := tr.merge(t, inputs, lvl+1 == len(tr.levels)-1)
	if err != nil {
		return t, err
	}
	tr.levels[lvl+1] = insertSorted(rest, out)
	tr.freeTables(inputs)
	tr.stats.Compactions.Inc()
	return end, nil
}

// startTable restarts the tree's builder on a fresh table id.
func (tr *Tree) startTable() *tableBuilder {
	tr.nextID++
	tr.builder.start(tr.nextID, tr.cfg.TablePages)
	return tr.builder
}

// mergeScratch is a merge's working state: every input entry decoded into
// one flat slice whose keys live in one arena, and a binary min-heap of run
// cursors over it. The tree reuses the run bookkeeping across merges; the
// entries and their arena live for one merge, since held between merges they
// would stay in the live heap that paces the garbage collector.
type mergeScratch struct {
	entries []Entry
	bounds  []int // run i is entries[bounds[i]:bounds[i+1]]
	pos     []int // run i's cursor, an index into entries
	heap    []int // run indices ordered by less
	// kid is the heap slot of the top's smaller child, or 0 when unknown.
	// The children stay put while one run keeps winning, so each of its
	// entries then costs one comparison.
	kid int
}

// less orders runs by the key under their cursors, then by run index, so
// the newest input wins a tie.
func (m *mergeScratch) less(a, b int) bool {
	c := bytes.Compare(m.entries[m.pos[a]].Key, m.entries[m.pos[b]].Key)
	return c < 0 || c == 0 && a < b
}

// down restores the heap order below slot i.
func (m *mergeScratch) down(i int) {
	h := m.heap
	if i == 0 {
		m.kid = 0
	}
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && m.less(h[r], h[c]) {
			c = r
		}
		if !m.less(h[c], h[i]) {
			if i == 0 {
				m.kid = c
			}
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// top returns the smallest entry under any cursor. The heap must be
// non-empty.
func (m *mergeScratch) top() Entry { return m.entries[m.pos[m.heap[0]]] }

// pop advances the top run's cursor, dropping the run once it is used up.
func (m *mergeScratch) pop() {
	r := m.heap[0]
	m.pos[r]++
	if m.pos[r] == m.bounds[r+1] {
		last := len(m.heap) - 1
		m.heap[0] = m.heap[last]
		m.heap = m.heap[:last]
	} else if m.kid > 0 && m.less(r, m.heap[m.kid]) {
		return
	}
	m.down(0)
}

// load reads and decodes every page of every input, in input then page
// order, and builds the heap over the non-empty runs. The entries and arena
// are sized from the inputs' entry and key byte counts, so decoding never
// grows them.
//
// An input whose keys all follow the previous input's extends that input's
// run: the two share no key, so no tie between them is ever resolved, and a
// level's disjoint tables merge as one run.
func (m *mergeScratch) load(tr *Tree, t sim.Time, inputs []*SSTable) (sim.Time, error) {
	end := t
	n, keyBytes := 0, 0
	for _, table := range inputs {
		n += table.entries
		keyBytes += table.keyBytes
	}
	entries, arena := make([]Entry, 0, n), make([]byte, 0, keyBytes)
	m.bounds = m.bounds[:0]
	for i, table := range inputs {
		if i == 0 || bytes.Compare(inputs[i-1].largest, table.smallest) >= 0 {
			m.bounds = append(m.bounds, len(entries))
		}
		for _, pg := range table.pages {
			data, e, err := tr.store.ReadPage(t, pg)
			if err != nil {
				return end, err
			}
			tr.stats.PageReadsServed.Inc()
			if e > end {
				end = e
			}
			entries, arena, err = appendPage(entries, arena, data)
			if err != nil {
				return end, err
			}
		}
	}
	m.bounds = append(m.bounds, len(entries))
	m.entries = entries
	runs := len(m.bounds) - 1
	m.pos = append(m.pos[:0], m.bounds[:runs]...)
	m.heap = m.heap[:0]
	for r := 0; r < runs; r++ {
		if m.bounds[r] < m.bounds[r+1] {
			m.heap = append(m.heap, r)
		}
	}
	m.kid = 0
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
	return end, nil
}

// release drops the decoded entries and, with them, their arena.
func (m *mergeScratch) release() { m.entries = nil }

// merge performs a k-way merge of the inputs (ordered newest-first for
// duplicate resolution) into size-capped output tables. Tombstones are
// dropped when merging into the bottom level.
//
// Every input page is read at t, in input then page order, before the first
// output page is written. The simulated NAND schedule, and so every
// simulated time, depends on that order.
func (tr *Tree) merge(t sim.Time, inputs []*SSTable, bottom bool) ([]*SSTable, sim.Time, error) {
	// Reads are charged to the request that triggered the compaction, as
	// synchronous firmware does.
	m := &tr.scratch
	defer m.release()
	end, err := m.load(tr, t, inputs)
	if err != nil {
		return nil, end, err
	}
	var out []*SSTable
	var builder *tableBuilder
	for len(m.heap) > 0 {
		r, e := m.heap[0], m.top()
		// Older duplicates of e surface at the top right behind it. A run's
		// keys strictly increase, so once r is back on top none is left.
		m.pop()
		for len(m.heap) > 0 && m.heap[0] != r && bytes.Equal(m.top().Key, e.Key) {
			m.pop()
		}
		tr.stats.EntriesMerged.Inc()
		if e.Tombstone && bottom {
			tr.stats.TombstonesDrop.Inc()
			continue
		}
		if builder == nil {
			builder = tr.startTable()
		}
		if err := builder.add(t, e); err != nil {
			return nil, end, err
		}
		if len(builder.table.pages) >= tr.cfg.TablePages {
			table, bEnd, err := builder.finish(t)
			if err != nil {
				return nil, end, err
			}
			if bEnd > end {
				end = bEnd
			}
			if table != nil {
				out = append(out, table)
				tr.stats.TablesWritten.Inc()
			}
			builder = nil
		}
	}
	if builder != nil {
		table, bEnd, err := builder.finish(t)
		if err != nil {
			return nil, end, err
		}
		if bEnd > end {
			end = bEnd
		}
		if table != nil {
			out = append(out, table)
			tr.stats.TablesWritten.Inc()
		}
	}
	return out, end, nil
}

// freeTables schedules every input table's pages for release. The frees are
// deferred to the next catalog commit: until then the pages stay allocated
// and untrimmed, so a crash between compaction and commit can roll back to
// the previous catalog with all its tables readable.
func (tr *Tree) freeTables(tables []*SSTable) {
	for _, table := range tables {
		tr.pendingFree = append(tr.pendingFree, table.pages...)
	}
}

// keyRange reports the smallest and largest keys across tables.
func keyRange(tables []*SSTable) (lo, hi []byte) {
	for _, t := range tables {
		if lo == nil || bytes.Compare(t.smallest, lo) < 0 {
			lo = t.smallest
		}
		if hi == nil || bytes.Compare(t.largest, hi) > 0 {
			hi = t.largest
		}
	}
	return lo, hi
}

// splitOverlap partitions a sorted level into tables overlapping [lo,hi] and
// the rest.
func splitOverlap(tables []*SSTable, lo, hi []byte) (over, rest []*SSTable) {
	for _, t := range tables {
		if lo != nil && t.overlaps(lo, hi) {
			over = append(over, t)
		} else {
			rest = append(rest, t)
		}
	}
	return over, rest
}

// insertSorted merges new tables into a level, keeping it sorted by smallest
// key. Both lists are already sorted, and levels ≥1 are non-overlapping by
// construction, so no two tables share a smallest key.
func insertSorted(level, add []*SSTable) []*SSTable {
	out := make([]*SSTable, 0, len(level)+len(add))
	for len(level) > 0 && len(add) > 0 {
		if bytes.Compare(add[0].smallest, level[0].smallest) < 0 {
			out, add = append(out, add[0]), add[1:]
		} else {
			out, level = append(out, level[0]), level[1:]
		}
	}
	out = append(out, level...)
	return append(out, add...)
}
