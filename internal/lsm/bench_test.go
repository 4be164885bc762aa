package lsm

import (
	"encoding/binary"
	"runtime"
	"testing"

	"bandslim/internal/sim"
	"bandslim/internal/vlog"
)

// benchStore is an in-memory PageStore with 16 KiB pages. Each page keeps its
// buffer across rewrites, so a store reused by successive fills stops
// allocating once it has held its largest tree.
type benchStore struct {
	pages [][]byte
}

const benchPageSize = 16 << 10

func (s *benchStore) WritePage(t sim.Time, page int, data []byte) (sim.Time, error) {
	s.pages[page] = append(s.pages[page][:0], data...)
	return t.Add(400 * sim.Microsecond), nil
}

func (s *benchStore) ReadPage(t sim.Time, page int) ([]byte, sim.Time, error) {
	return s.pages[page], t.Add(100 * sim.Microsecond), nil
}

func (s *benchStore) TrimPage(page int) error {
	s.pages[page] = s.pages[page][:0]
	return nil
}

func (s *benchStore) PageSize() int { return benchPageSize }
func (s *benchStore) Pages() int    { return len(s.pages) }

// benchKey writes the i-th fill key: a bijective 64-bit mix of i, so keys are
// unique and arrive in random order.
func benchKey(dst []byte, i uint64) {
	z := i + 0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	binary.BigEndian.PutUint64(dst, z^z>>31)
}

// BenchmarkTreeFill fills a fresh tree with exactly n unique keys per
// iteration, so the store size is fixed by n and never by b.N. Besides the
// per-fill ns/op it reports the cost per put, the cost per entry compaction
// merged (the work per put grows with n as the tree deepens), and heap
// allocations per put.
func BenchmarkTreeFill(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
	}{{"n=100k", 100_000}, {"n=1M", 1_000_000}} {
		n := c.n
		b.Run(c.name, func(b *testing.B) {
			store := &benchStore{pages: make([][]byte, 1<<16)}
			key := make([]byte, 8)
			var merged int64
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				tr, err := NewTree(DefaultConfig(), store)
				if err != nil {
					b.Fatal(err)
				}
				var now sim.Time
				for i := 0; i < n; i++ {
					benchKey(key, uint64(i))
					if now, err = tr.Put(now, key, vlog.Addr(i)*64, 64); err != nil {
						b.Fatal(err)
					}
				}
				merged += tr.Stats().EntriesMerged.Value()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			puts := float64(b.N) * float64(n)
			ns := float64(b.Elapsed().Nanoseconds())
			b.ReportMetric(ns/puts, "ns/put")
			b.ReportMetric(ns/float64(merged), "ns/merged_entry")
			b.ReportMetric(float64(merged)/puts, "merged/put")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/puts, "allocs/put")
		})
	}
}
