package bandslim

import (
	"bytes"
	"fmt"
	"testing"

	"bandslim/internal/sim"
	"bandslim/internal/timeseries"
)

// metricsWorkload drives enough mixed-size PUTs and GETs to advance the
// simulated clock across many sampling boundaries, then flushes.
func metricsWorkload(t *testing.T, put func(k, v []byte) error, get func(k []byte) ([]byte, error), flush func() error) {
	t.Helper()
	sizes := []int{16, 512, 2048, 4096 + 32, 8192}
	for i := 0; i < 200; i++ {
		key := []byte(fmt.Sprintf("key-%04d", i))
		if err := put(key, make([]byte, sizes[i%len(sizes)])); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i += 3 {
		if _, err := get([]byte(fmt.Sprintf("key-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := flush(); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesEmptyWithoutInterval(t *testing.T) {
	db := openSmall(t, nil)
	defer db.Close()
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if s := db.Series(); s.Len() != 0 {
		t.Fatalf("Series without MetricsInterval has %d samples, want 0", s.Len())
	}
}

func TestSeriesRecordsTrajectory(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		db := openSharded(t, shards, func(c *Config) { c.MetricsInterval = 5 * sim.Microsecond })
		seriesTrajectory(t, db)
	}
}

func seriesTrajectory(t *testing.T, db *DB) {
	t.Helper()
	metricsWorkload(t, db.Put, db.Get, db.Flush)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	s := db.Series() // readable after Close, includes the final flush
	if s.Len() < 3 {
		t.Fatalf("series has %d samples, want several boundaries crossed", s.Len())
	}
	if s.Samples[0].T != 0 {
		t.Fatalf("first sample T = %v, want 0", s.Samples[0].T)
	}
	for i, sm := range s.Samples {
		if sm.T != sim.Time(int64(s.Interval)*int64(i)) {
			t.Fatalf("sample %d T = %v, off the fixed grid", i, sm.T)
		}
	}
	puts, ok := s.Column("host_puts")
	if !ok {
		t.Fatal("host_puts column missing")
	}
	if puts[0] != 0 {
		t.Fatalf("host_puts at t=0 = %v, want 0", puts[0])
	}
	if last := puts[len(puts)-1]; last != 200 {
		t.Fatalf("final host_puts = %v, want 200", last)
	}
	for i := 1; i < len(puts); i++ {
		if puts[i] < puts[i-1] {
			t.Fatalf("counter host_puts decreased at sample %d", i)
		}
	}
	if len(s.HistKeys) == 0 {
		t.Fatal("series recorded no latency histograms")
	}
}

func TestExportsDeterministic(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		exportsDeterministic(t, shards)
	}
}

func exportsDeterministic(t *testing.T, shards int) {
	t.Helper()
	capture := func() ([]byte, []byte) {
		db := openSharded(t, shards, func(c *Config) { c.MetricsInterval = 5 * sim.Microsecond })
		metricsWorkload(t, db.Put, db.Get, db.Flush)
		var prom bytes.Buffer
		if err := db.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		var csv bytes.Buffer
		if err := WriteSeriesCSV(&csv, db.Series()); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		return prom.Bytes(), csv.Bytes()
	}
	p1, c1 := capture()
	p2, c2 := capture()
	if len(p1) == 0 || len(c1) == 0 {
		t.Fatalf("shards=%d: exports are empty", shards)
	}
	if !bytes.Equal(p1, p2) {
		t.Fatalf("shards=%d: same-seed runs produced different Prometheus exposition", shards)
	}
	if !bytes.Equal(c1, c2) {
		t.Fatalf("shards=%d: same-seed runs produced different series CSV", shards)
	}
}

// OpenSharded with one shard running the same serialized workload must agree
// with Open on every counter metric, sample by sample, and on the exposition
// bytes: Open is the one-shard case, and the cross-shard merge is exact.
func TestShardedSeriesMatchesSingleDB(t *testing.T) {
	cfg := smallConfig()
	cfg.MetricsInterval = 5 * sim.Microsecond

	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	metricsWorkload(t, db.Put, db.Get, db.Flush)
	defer db.Close()

	sdb, err := OpenSharded(ShardedConfig{Shards: 1, PerShard: cfg})
	if err != nil {
		t.Fatal(err)
	}
	metricsWorkload(t, sdb.Put, sdb.Get, sdb.Flush)
	defer sdb.Close()

	single, merged := db.Series(), sdb.Series()
	if single.Len() != merged.Len() {
		t.Fatalf("series lengths differ: single %d, sharded %d", single.Len(), merged.Len())
	}
	for _, d := range single.Descs {
		if d.Kind != timeseries.KindCounter {
			continue
		}
		a, _ := single.Column(d.Name)
		b, ok := merged.Column(d.Name)
		if !ok {
			t.Fatalf("sharded series missing %s", d.Name)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s[%d]: single %v, sharded %v", d.Name, i, a[i], b[i])
			}
		}
	}

	var p1, p2 bytes.Buffer
	if err := db.WritePrometheus(&p1); err != nil {
		t.Fatal(err)
	}
	if err := sdb.WritePrometheus(&p2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p1.Bytes(), p2.Bytes()) {
		t.Fatal("one-shard OpenSharded exposition differs from Open")
	}
}

func TestShardedCountersSumAcrossShards(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		countersSum(t, openSharded(t, shards, func(c *Config) { c.MetricsInterval = 5 * sim.Microsecond }))
	}
}

func countersSum(t *testing.T, sdb *DB) {
	t.Helper()
	const n = 256
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key-%04d", i))
		if err := sdb.Put(key, make([]byte, 512)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sdb.Flush(); err != nil {
		t.Fatal(err)
	}
	s := sdb.Series()
	if err := sdb.Close(); err != nil {
		t.Fatal(err)
	}
	puts, ok := s.Column("host_puts")
	if !ok || len(puts) == 0 {
		t.Fatal("host_puts column missing from merged series")
	}
	if last := puts[len(puts)-1]; last != n {
		t.Fatalf("merged final host_puts = %v, want %d", last, n)
	}
	stats := sdb.Stats()
	if got := stats.Host.Puts; int64(puts[len(puts)-1]) != got {
		t.Fatalf("merged series (%v) disagrees with Stats (%d)", puts[len(puts)-1], got)
	}
}
