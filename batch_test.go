package bandslim_test

import (
	"bytes"
	"fmt"
	"testing"

	"bandslim"
)

func batchKV(n int) (keys, values [][]byte) {
	keys = make([][]byte, n)
	values = make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("bk%04d", i))
		// Mixed sizes exercise inline, PRP, and adaptive transfer classes.
		size := 16 + (i%4)*700
		v := make([]byte, size)
		for j := range v {
			v[j] = byte(i + j)
		}
		values[i] = v
	}
	return keys, values
}

func openBatchDB(t *testing.T, shards int) *bandslim.DB {
	t.Helper()
	db, err := bandslim.OpenSharded(bandslim.ShardedConfig{Shards: shards, PerShard: bandslim.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestPutBatchGetBatchRoundTrip(t *testing.T) {
	batchRoundTrip(t, openBatchDB(t, 1), 200)
}

func TestShardedBatchRoundTrip(t *testing.T) {
	batchRoundTrip(t, openBatchDB(t, 2), 256)
	batchRoundTrip(t, openBatchDB(t, 4), 256)
}

// batchRoundTrip writes n records in one batch and reads them back through
// the batch and per-key paths, then overwrites them in place and growing.
func batchRoundTrip(t *testing.T, db *bandslim.DB, n int) {
	t.Helper()
	shards := db.NumShards()
	keys, values := batchKV(n)
	if err := db.PutBatch(keys, values); err != nil {
		t.Fatal(err)
	}
	got, err := db.GetBatch(keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !bytes.Equal(got[i], values[i]) {
			t.Fatalf("shards=%d key %s: got %d bytes, want %d", shards, keys[i], len(got[i]), len(values[i]))
		}
	}

	// The batch path must agree with the per-key routed path.
	for i := 0; i < len(keys); i += 29 {
		v, err := db.Get(keys[i])
		if err != nil || !bytes.Equal(v, values[i]) {
			t.Fatalf("shards=%d Get(%s) after PutBatch: %v", shards, keys[i], err)
		}
	}

	// Lanes are reused in place: a second call with the returned slice must
	// not allocate fresh lanes, and overwrites must be visible through it.
	for i := range values {
		values[i][0] ^= 0xFF
	}
	if err := db.PutBatch(keys, values); err != nil {
		t.Fatal(err)
	}
	got2, err := db.GetBatch(keys, got)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !bytes.Equal(got2[i], values[i]) {
			t.Fatalf("shards=%d key %s: overwrite not visible through reused lanes", shards, keys[i])
		}
	}

	// Growing overwrites stay consistent too.
	for i := range values {
		values[i] = append(values[i], 0xAB)
	}
	if err := db.PutBatch(keys, values); err != nil {
		t.Fatal(err)
	}
	got, err = db.GetBatch(keys, got)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !bytes.Equal(got[i], values[i]) {
			t.Fatalf("shards=%d key %s: growing batch overwrite mismatch", shards, keys[i])
		}
	}
}

func TestBatchArgumentErrors(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		db := openBatchDB(t, shards)
		keys := [][]byte{[]byte("a"), []byte("b")}
		one := [][]byte{[]byte("x")}
		if err := db.PutBatch(keys, one); err == nil {
			t.Errorf("shards=%d: PutBatch accepted mismatched key/value counts", shards)
		}
		if _, err := db.GetBatch(keys, one); err == nil {
			t.Errorf("shards=%d: GetBatch accepted mismatched key/lane counts", shards)
		}
		if _, err := db.GetBatch([][]byte{[]byte("missing")}, nil); err == nil {
			t.Errorf("shards=%d: GetBatch of an absent key succeeded", shards)
		}
	}
}

// TestGetBatchSparse checks the miss-tolerant batch lookup at every shard
// count: present keys copy into their lanes, absent keys set miss[i] with an
// empty lane, and no error is raised for the misses.
func TestGetBatchSparse(t *testing.T) {
	keys, values := batchKV(64)
	// Interleave present and absent keys.
	probe := make([][]byte, 0, len(keys)*2)
	wantMiss := make([]bool, 0, len(keys)*2)
	for i := range keys {
		probe = append(probe, keys[i])
		wantMiss = append(wantMiss, false)
		if i%3 == 0 {
			probe = append(probe, []byte(fmt.Sprintf("absent%04d", i)))
			wantMiss = append(wantMiss, true)
		}
	}
	for _, shards := range []int{1, 2, 4} {
		db := openBatchDB(t, shards)
		if err := db.PutBatch(keys, values); err != nil {
			t.Fatal(err)
		}
		miss := make([]bool, len(probe))
		got, err := db.GetBatchSparse(probe, nil, miss)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		vi := 0
		for i := range probe {
			if miss[i] != wantMiss[i] {
				t.Fatalf("shards=%d: key %q miss=%v, want %v", shards, probe[i], miss[i], wantMiss[i])
			}
			if wantMiss[i] {
				if len(got[i]) != 0 {
					t.Fatalf("shards=%d: absent key %q got %d bytes", shards, probe[i], len(got[i]))
				}
				continue
			}
			if !bytes.Equal(got[i], values[vi]) {
				t.Fatalf("shards=%d: key %q value mismatch", shards, probe[i])
			}
			vi++
		}
		// Mismatched miss length is an argument error.
		if _, err := db.GetBatchSparse(probe, nil, make([]bool, 1)); err == nil {
			t.Fatalf("shards=%d: accepted short miss slice", shards)
		}
	}
}

// TestBatchPathDeterminism replays the same batched workload twice and
// requires byte-identical exported metrics: the batch fast path must not
// introduce any run-to-run nondeterminism into simulated time.
func TestBatchPathDeterminism(t *testing.T) {
	run := func(shards int) (string, string) {
		s, err := bandslim.OpenSharded(bandslim.ShardedConfig{
			Shards:   shards,
			PerShard: bandslim.DefaultConfig(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		keys, values := batchKV(300)
		for round := 0; round < 3; round++ {
			if err := s.PutBatch(keys, values); err != nil {
				t.Fatal(err)
			}
			if _, err := s.GetBatch(keys, nil); err != nil {
				t.Fatal(err)
			}
		}
		var prom bytes.Buffer
		if err := s.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		var csv bytes.Buffer
		if err := bandslim.WriteSeriesCSV(&csv, s.Series()); err != nil {
			t.Fatal(err)
		}
		return prom.String(), csv.String()
	}
	for _, shards := range []int{1, 2, 4} {
		prom1, csv1 := run(shards)
		prom2, csv2 := run(shards)
		if prom1 != prom2 {
			t.Errorf("shards=%d: WritePrometheus output differs between identical runs", shards)
		}
		if csv1 != csv2 {
			t.Errorf("shards=%d: WriteSeriesCSV output differs between identical runs", shards)
		}
	}
}
