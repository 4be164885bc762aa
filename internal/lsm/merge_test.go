package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"bandslim/internal/sim"
	"bandslim/internal/vlog"
)

// storeCall is one PageStore call as a recStore saw it.
type storeCall struct {
	op   byte // 'R' read, 'W' write
	t    sim.Time
	page int
	end  sim.Time
	data []byte // the image written, for 'W'
}

// recStore is an in-memory PageStore that logs every read and write with its
// times, and can fail its failAt-th call (counting from 1; 0 never fails).
type recStore struct {
	pageSize int
	limit    int
	pages    map[int][]byte
	log      []storeCall
	calls    int
	failAt   int
}

var errInjected = errors.New("recStore: injected failure")

func newRecStore(pageSize, limit int) *recStore {
	return &recStore{pageSize: pageSize, limit: limit, pages: make(map[int][]byte)}
}

// clone copies the page images; the log and the failure point start afresh.
func (s *recStore) clone() *recStore {
	c := newRecStore(s.pageSize, s.limit)
	for pg, data := range s.pages {
		c.pages[pg] = append([]byte(nil), data...)
	}
	return c
}

func (s *recStore) fail() bool {
	s.calls++
	return s.calls == s.failAt
}

func (s *recStore) WritePage(t sim.Time, page int, data []byte) (sim.Time, error) {
	if s.fail() {
		return t, errInjected
	}
	img := append([]byte(nil), data...)
	s.pages[page] = img
	// The completion time depends on the page and its length, so a write
	// of the wrong image or to the wrong page shows up in the times too.
	end := t.Add(sim.Duration(300+page%7*10+len(data)%13) * sim.Microsecond)
	s.log = append(s.log, storeCall{op: 'W', t: t, page: page, end: end, data: img})
	return end, nil
}

func (s *recStore) ReadPage(t sim.Time, page int) ([]byte, sim.Time, error) {
	if s.fail() {
		return nil, t, errInjected
	}
	end := t.Add(sim.Duration(50+page%5*10) * sim.Microsecond)
	s.log = append(s.log, storeCall{op: 'R', t: t, page: page, end: end})
	return s.pages[page], end, nil
}

func (s *recStore) TrimPage(page int) error {
	delete(s.pages, page)
	return nil
}

func (s *recStore) PageSize() int { return s.pageSize }
func (s *recStore) Pages() int    { return s.limit }

// decodePage decodes every entry of a page with a fresh copy of each key.
func decodePage(data []byte) ([]Entry, error) {
	var out []Entry
	i := 0
	for i < len(data) {
		e, n, err := decodeEntry(data[i:])
		if err == errEndOfPage {
			break
		}
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		i += n
	}
	return out, nil
}

// refMerge is the reference k-way merge: it decodes every input into its own
// run, then for each output entry scans every run for the minimum and again
// to skip older duplicates, with a fresh builder per output table.
func refMerge(tr *Tree, t sim.Time, inputs []*SSTable, bottom bool) ([]*SSTable, sim.Time, error) {
	end := t
	runs := make([][]Entry, len(inputs))
	for i, table := range inputs {
		var entries []Entry
		for _, pg := range table.pages {
			data, e, err := tr.store.ReadPage(t, pg)
			if err != nil {
				return nil, end, err
			}
			tr.stats.PageReadsServed.Inc()
			if e > end {
				end = e
			}
			pe, err := decodePage(data)
			if err != nil {
				return nil, end, err
			}
			entries = append(entries, pe...)
		}
		runs[i] = entries
	}
	var out []*SSTable
	var builder *tableBuilder
	pos := make([]int, len(runs))
	for {
		best := -1
		for i := range runs {
			if pos[i] >= len(runs[i]) {
				continue
			}
			if best < 0 || bytes.Compare(runs[i][pos[i]].Key, runs[best][pos[best]].Key) < 0 {
				best = i
			}
		}
		if best < 0 {
			break
		}
		e := runs[best][pos[best]]
		for i := range runs {
			for pos[i] < len(runs[i]) && bytes.Equal(runs[i][pos[i]].Key, e.Key) {
				pos[i]++
			}
		}
		tr.stats.EntriesMerged.Inc()
		if e.Tombstone && bottom {
			tr.stats.TombstonesDrop.Inc()
			continue
		}
		if builder == nil {
			tr.nextID++
			builder = newTableBuilder(tr.store, tr.alloc)
			builder.start(tr.nextID, 1)
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

// cloneTree copies the tree's catalog onto a copy of its store. Tables are
// immutable, so the clone shares them.
func cloneTree(t *testing.T, src *Tree, store *recStore) (*Tree, *recStore) {
	t.Helper()
	st := store.clone()
	tr, err := NewTree(src.cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	for i, lvl := range src.levels {
		tr.levels[i] = append([]*SSTable(nil), lvl...)
	}
	tr.alloc.restore(src.alloc.snapshot())
	tr.nextID = src.nextID
	return tr, st
}

// mergeCase is one set of merge inputs taken from a tree.
type mergeCase struct {
	name   string
	inputs []*SSTable
	bottom bool
}

// mergeCases lists the merges the tree's compactions would run now, plus
// one merge of random tables in random order.
func mergeCases(tr *Tree, rng *rand.Rand) []mergeCase {
	var cases []mergeCase
	last := len(tr.levels) - 1
	if len(tr.levels[0]) > 0 {
		inputs := append([]*SSTable(nil), tr.levels[0]...)
		lo, hi := keyRange(inputs)
		over, _ := splitOverlap(tr.levels[1], lo, hi)
		cases = append(cases, mergeCase{"L0", append(inputs, over...), last == 1})
	}
	for lvl := 1; lvl < last; lvl++ {
		if len(tr.levels[lvl]) == 0 {
			continue
		}
		victim := tr.levels[lvl][rng.Intn(len(tr.levels[lvl]))]
		over, _ := splitOverlap(tr.levels[lvl+1], victim.smallest, victim.largest)
		cases = append(cases, mergeCase{fmt.Sprintf("L%d", lvl), append([]*SSTable{victim}, over...), lvl+1 == last})
	}
	var all []*SSTable
	for _, lvl := range tr.levels {
		all = append(all, lvl...)
	}
	if len(all) > 0 {
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		cases = append(cases, mergeCase{"random", all[:1+rng.Intn(len(all))], rng.Intn(2) == 0})
	}
	return cases
}

// checkMergeMatches runs the tree's merge on got and the reference on want,
// two clones of one tree, and requires the same result, the same store calls
// with the same times and images, and the same tree state afterwards. A
// failAt above zero fails that store call of the merge.
func checkMergeMatches(t *testing.T, got, want *Tree, gotStore, wantStore *recStore, c mergeCase, at sim.Time, failAt int) {
	t.Helper()
	for _, st := range []*recStore{gotStore, wantStore} {
		st.log, st.calls, st.failAt = nil, 0, failAt
	}
	gotOut, gotEnd, gotErr := got.merge(at, c.inputs, c.bottom)
	wantOut, wantEnd, wantErr := refMerge(want, at, c.inputs, c.bottom)
	where := fmt.Sprintf("%s merge of %d tables (bottom=%v, failAt=%d)", c.name, len(c.inputs), c.bottom, failAt)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, reference %v", where, gotErr, wantErr)
	}
	if gotEnd != wantEnd {
		t.Fatalf("%s: end %v, reference %v", where, gotEnd, wantEnd)
	}
	if len(gotOut) != len(wantOut) {
		t.Fatalf("%s: %d output tables, reference %d", where, len(gotOut), len(wantOut))
	}
	for i := range gotOut {
		if !reflect.DeepEqual(gotOut[i], wantOut[i]) {
			t.Fatalf("%s: output table %d = %+v, reference %+v", where, i, gotOut[i], wantOut[i])
		}
	}
	if !reflect.DeepEqual(gotStore.log, wantStore.log) {
		t.Fatalf("%s: store calls differ:\n got %v\nwant %v", where, gotStore.log, wantStore.log)
	}
	if got.stats != want.stats {
		t.Fatalf("%s: stats %+v, reference %+v", where, got.stats, want.stats)
	}
	if got.nextID != want.nextID || !reflect.DeepEqual(got.alloc, want.alloc) {
		t.Fatalf("%s: nextID/allocator %d %+v, reference %d %+v", where, got.nextID, got.alloc, want.nextID, want.alloc)
	}
}

// TestMergeMatchesReference drives seeded random trees (small pages and
// tables, overlapping multi-page tables, keys rewritten across tables,
// tombstones) and, after every flush, checks each merge a compaction could
// run — into the bottom level and above it — against the reference merge,
// with and without a store failure part-way through.
func TestMergeMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cfg := Config{
				MemTableEntries:     8 + rng.Intn(40),
				L0CompactionTrigger: 2 + rng.Intn(3),
				LevelTableBase:      1 + rng.Intn(3),
				MaxLevels:           2 + rng.Intn(3),
				TablePages:          1 + rng.Intn(3),
			}
			store := newRecStore(128+rng.Intn(4)*128, 1<<14)
			tr, err := NewTree(cfg, store)
			if err != nil {
				t.Fatal(err)
			}
			keyspace := 50 + rng.Intn(400)
			var now sim.Time
			checked := 0
			for op := 0; op < 1500; op++ {
				k := rng.Intn(keyspace)
				key := []byte(fmt.Sprintf("%0*d", 1+k%MaxKeySize, k))
				flushes := tr.stats.Flushes.Value()
				if rng.Intn(5) == 0 {
					now, err = tr.Delete(now, key)
				} else {
					now, err = tr.Put(now, key, vlog.Addr(op)*16, uint32(op%977))
				}
				if err != nil {
					t.Fatal(err)
				}
				if tr.stats.Flushes.Value() == flushes {
					continue
				}
				// Each pair of clones runs every case in turn, so the tree's
				// merge also reuses its state from the merge before.
				cases := mergeCases(tr, rng)
				for _, fail := range []bool{false, true} {
					got, gotStore := cloneTree(t, tr, store)
					want, wantStore := cloneTree(t, tr, store)
					for _, c := range cases {
						failAt := 0
						if fail {
							failAt = 1 + rng.Intn(8)
						}
						checkMergeMatches(t, got, want, gotStore, wantStore, c, now, failAt)
						checked++
					}
				}
			}
			if checked == 0 {
				t.Fatal("no merge was checked")
			}
		})
	}
}
