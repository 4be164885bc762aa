package driver

// Tests for the submission-policy API and the asynchronous queue-depth-N
// window: config validation, presence-based Tune semantics, out-of-order
// completion reaping, doorbell batching, and trace-level determinism.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"bandslim/internal/nvme"
	"bandslim/internal/sim"
	"bandslim/internal/trace"
)

// windowedGetAll pumps keys through the async window the way the batch
// paths do — submit until the window fills, reap the oldest, keep going —
// and returns each key's value in key order.
func windowedGetAll(t *testing.T, d *Driver, keys [][]byte) [][]byte {
	t.Helper()
	depth := d.WindowDepth()
	out := make([][]byte, len(keys))
	var handles, idx []int
	head := 0
	wait := func() {
		h, i := handles[head], idx[head]
		head++
		v, err := d.WaitGetInto(h, nil)
		if err != nil {
			t.Fatalf("WaitGetInto(key %d): %v", i, err)
		}
		out[i] = append([]byte(nil), v...)
	}
	for i := range keys {
		if len(handles)-head >= depth {
			wait()
		}
		h, err := d.StartGet(keys[i])
		if err != nil {
			t.Fatalf("StartGet(key %d): %v", i, err)
		}
		handles, idx = append(handles, h), append(idx, i)
	}
	for head < len(handles) {
		wait()
	}
	return out
}

func TestSubmissionConfigValidation(t *testing.T) {
	d, _, _ := newStack(t, MethodAdaptive, false)
	cases := []struct {
		name  string
		cfg   SubmissionConfig
		field string
	}{
		{"negative_depth", SubmissionConfig{QueueDepth: -1}, "Submission.QueueDepth"},
		{"depth_exceeds_ring", SubmissionConfig{QueueDepth: 64}, "Submission.QueueDepth"},
		{"negative_doorbell", SubmissionConfig{DoorbellBatch: -2}, "Submission.DoorbellBatch"},
		{"negative_coalesce", SubmissionConfig{QueueDepth: 4, CoalesceInterval: -1}, "Submission.CoalesceInterval"},
		{"coalesce_without_window", SubmissionConfig{QueueDepth: 1, CoalesceInterval: sim.Microsecond}, "Submission.CoalesceInterval"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := d.SetSubmission(tc.cfg)
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("SetSubmission(%+v) = %v, want *ConfigError", tc.cfg, err)
			}
			if ce.Field != tc.field {
				t.Fatalf("ConfigError.Field = %q, want %q", ce.Field, tc.field)
			}
		})
	}
	// Valid settings round-trip through the accessor.
	want := SubmissionConfig{QueueDepth: 8, DoorbellBatch: 4, CoalesceInterval: 2 * sim.Microsecond}
	if err := d.SetSubmission(want); err != nil {
		t.Fatal(err)
	}
	if got := d.Submission(); got != want {
		t.Fatalf("Submission() = %+v, want %+v", got, want)
	}
}

func TestSubmissionZeroValueIsSync(t *testing.T) {
	d, _, _ := newStack(t, MethodAdaptive, false)
	if d.pipelined || d.WindowDepth() != 1 {
		t.Fatalf("zero-value submission: pipelined=%v WindowDepth=%d, want sync passthrough",
			d.pipelined, d.WindowDepth())
	}
	// Depth-1 burst mode turns on burst PUTs without opening a window, and
	// the zero value turns them back off.
	setBurst(t, d)
	if !d.pipelined || d.WindowDepth() != 1 {
		t.Fatalf("burst submission: pipelined=%v WindowDepth=%d", d.pipelined, d.WindowDepth())
	}
	if err := d.SetSubmission(SubmissionConfig{}); err != nil {
		t.Fatal(err)
	}
	if sub := d.Submission(); sub != (SubmissionConfig{}) || d.pipelined {
		t.Fatalf("SetSubmission(zero) → %+v, pipelined=%v, want sync passthrough", sub, d.pipelined)
	}
}

func TestTunePresenceSemantics(t *testing.T) {
	d, _, _ := newStack(t, MethodAdaptive, false)
	thr := d.Thresholds()
	m := MethodPiggyback
	if err := d.Tune(Tuning{Method: &m}); err != nil {
		t.Fatal(err)
	}
	if d.Method() != MethodPiggyback || d.Thresholds() != thr || d.Submission() != (SubmissionConfig{}) {
		t.Fatal("Tune with only Method set disturbed absent fields")
	}
	// An invalid Submission rejects the whole Tuning before applying any
	// present field.
	bad := SubmissionConfig{QueueDepth: -5}
	m2 := MethodBaseline
	err := d.Tune(Tuning{Method: &m2, Submission: &bad})
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("Tune with invalid Submission = %v, want *ConfigError", err)
	}
	if d.Method() != MethodPiggyback {
		t.Fatal("rejected Tune still applied its Method")
	}
}

// TestWindowedGetOutOfOrderCompletion fills the window with reads whose
// device latencies differ (so completions post out of simulated-time order)
// and checks every wait frame is matched back to its command by CID.
func TestWindowedGetOutOfOrderCompletion(t *testing.T) {
	d, _, _ := newStack(t, MethodAdaptive, true)
	// Mixed sizes: over-page values take DMA round trips and multi-page NAND
	// reads; tiny ones complete quickly. Interleaved in one window, their
	// completions coalesce and reorder.
	sizes := []int{5000, 16, 9000, 64, 12000, 8, 7000, 128}
	keys := make([][]byte, len(sizes))
	want := make([][]byte, len(sizes))
	for i, n := range sizes {
		keys[i] = []byte(fmt.Sprintf("oo%02d", i))
		want[i] = bytes.Repeat([]byte{byte(i + 1)}, n)
		if err := d.Put(keys[i], want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.SetSubmission(SubmissionConfig{
		QueueDepth:       8,
		DoorbellBatch:    4,
		CoalesceInterval: 2 * sim.Microsecond,
	}); err != nil {
		t.Fatal(err)
	}
	handles := make([]int, len(keys))
	for i := range keys {
		h, err := d.StartGet(keys[i])
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	for i, h := range handles {
		got, err := d.WaitGetInto(h, nil)
		if err != nil {
			t.Fatalf("WaitGetInto(%d): %v", i, err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("key %d: got %d bytes, want %d — completion matched to wrong frame?",
				i, len(got), len(want[i]))
		}
	}
	// The window must be empty again: a fresh StartGet succeeds at slot 0.
	h, err := d.StartGet(keys[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.WaitGetInto(h, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWindowedGetPerKeyOrdering: a windowed read observes the latest
// acknowledged write even when earlier reads of the same key are still in
// flight.
func TestWindowedGetPerKeyOrdering(t *testing.T) {
	d, _, _ := newStack(t, MethodAdaptive, true)
	key := []byte("ord")
	if err := d.Put(key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := d.SetSubmission(SubmissionConfig{QueueDepth: 4}); err != nil {
		t.Fatal(err)
	}
	h1, err := d.StartGet(key)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := d.WaitGetInto(h1, nil)
	if err != nil || string(v1) != "v1" {
		t.Fatalf("windowed read before overwrite: %q, %v", v1, err)
	}
	if err := d.Put(key, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	h2, err := d.StartGet(key)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := d.WaitGetInto(h2, nil)
	if err != nil || string(v2) != "v2" {
		t.Fatalf("windowed read after overwrite: %q, %v", v2, err)
	}
}

func TestWindowedGetMiss(t *testing.T) {
	d, _, _ := newStack(t, MethodAdaptive, true)
	if err := d.Put([]byte("present"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := d.SetSubmission(SubmissionConfig{QueueDepth: 4}); err != nil {
		t.Fatal(err)
	}
	h, err := d.StartGet([]byte("absent"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.WaitGetInto(h, nil)
	if st, ok := nvme.StatusOf(err); !ok || st != nvme.StatusKeyNotFound {
		t.Fatalf("missing key through the window: %v, want key-not-found status", err)
	}
	// The miss released its frame; the window keeps working.
	h, err = d.StartGet([]byte("present"))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := d.WaitGetInto(h, nil); err != nil || string(v) != "x" {
		t.Fatalf("window broken after miss: %q, %v", v, err)
	}
}

// TestWindowedDoorbellBatching: batching submissions behind one doorbell
// must cut doorbell MMIO relative to the one-ring-per-command sync path.
func TestWindowedDoorbellBatching(t *testing.T) {
	const nkeys = 16
	run := func(sub SubmissionConfig) int64 {
		d, _, link := newStack(t, MethodAdaptive, true)
		keys := make([][]byte, nkeys)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("db%02d", i))
			if err := d.Put(keys[i], bytes.Repeat([]byte{1}, 64)); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.SetSubmission(sub); err != nil {
			t.Fatal(err)
		}
		before := link.Traf.Doorbells.Value()
		if sub.QueueDepth >= 2 {
			windowedGetAll(t, d, keys)
		} else {
			for i := range keys {
				if _, err := d.Get(keys[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		return link.Traf.Doorbells.Value() - before
	}
	sync := run(SubmissionConfig{})
	if sync != 2*nkeys {
		t.Fatalf("sync GETs rang %d doorbells, want %d (one SQ + one CQ each)", sync, 2*nkeys)
	}
	windowed := run(SubmissionConfig{QueueDepth: 8, DoorbellBatch: 8})
	if windowed*2 > sync {
		t.Fatalf("windowed GETs rang %d doorbells, want < half of sync's %d", windowed, sync)
	}
}

// TestWindowedTraceDeterminism runs the same windowed workload twice and
// requires byte-identical EvSubmit/EvReap streams: same CIDs, same simulated
// timestamps, same order.
func TestWindowedTraceDeterminism(t *testing.T) {
	run := func() []trace.Event {
		d, _, _ := newStack(t, MethodAdaptive, true)
		rec := trace.NewRecorder(4096)
		d.SetTracer(rec)
		keys := make([][]byte, 12)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("tr%02d", i))
			if err := d.Put(keys[i], bytes.Repeat([]byte{byte(i)}, 100+400*i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.SetSubmission(SubmissionConfig{
			QueueDepth:       6,
			DoorbellBatch:    3,
			CoalesceInterval: sim.Microsecond,
		}); err != nil {
			t.Fatal(err)
		}
		windowedGetAll(t, d, keys)
		var out []trace.Event
		for _, ev := range rec.Events() {
			if ev.Name == trace.EvSubmit || ev.Name == trace.EvReap {
				out = append(out, ev)
			}
		}
		return out
	}
	first, second := run(), run()
	if len(first) != len(second) {
		t.Fatalf("trace lengths differ: %d vs %d", len(first), len(second))
	}
	reaps := 0
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("event %d differs:\nrun1: %+v\nrun2: %+v", i, first[i], second[i])
		}
		if first[i].Name == trace.EvReap {
			reaps++
			if first[i].End < first[i].Start {
				t.Fatalf("reap %d spans backwards: %+v", i, first[i])
			}
		}
	}
	if reaps != 12 {
		t.Fatalf("saw %d reap events, want 12 (one per windowed GET)", reaps)
	}
}

// TestDrainWindowAfterError: abandoning a partially reaped window leaves
// the driver consistent for the next operation.
func TestDrainWindowAfterError(t *testing.T) {
	d, _, _ := newStack(t, MethodAdaptive, true)
	for i := 0; i < 6; i++ {
		if err := d.Put([]byte(fmt.Sprintf("dr%02d", i)), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.SetSubmission(SubmissionConfig{QueueDepth: 4}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := d.StartGet([]byte(fmt.Sprintf("dr%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a caller bailing out mid-batch.
	d.DrainWindow()
	if d.InFlight() != 0 {
		t.Fatalf("InFlight = %d after DrainWindow, want 0", d.InFlight())
	}
	// Scalar and windowed paths both still work.
	if v, err := d.Get([]byte("dr05")); err != nil || v[0] != 5 {
		t.Fatalf("Get after drain: %v", err)
	}
	h, err := d.StartGet([]byte("dr00"))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := d.WaitGetInto(h, nil); err != nil || v[0] != 0 {
		t.Fatalf("windowed Get after drain: %v", err)
	}
}

// TestSetSubmissionRejectedInFlight: the policy cannot change under an open
// window.
func TestSetSubmissionRejectedInFlight(t *testing.T) {
	d, _, _ := newStack(t, MethodAdaptive, true)
	if err := d.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := d.SetSubmission(SubmissionConfig{QueueDepth: 4}); err != nil {
		t.Fatal(err)
	}
	h, err := d.StartGet([]byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetSubmission(SubmissionConfig{QueueDepth: 8}); err == nil {
		t.Fatal("SetSubmission succeeded with a command in flight")
	}
	if _, err := d.WaitGetInto(h, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.SetSubmission(SubmissionConfig{QueueDepth: 8}); err != nil {
		t.Fatalf("SetSubmission after window drained: %v", err)
	}
}
