package driver

import (
	"bytes"
	"fmt"
	"testing"
)

// burstSubmission is depth-1 burst mode: multi-command PUTs submit as one
// doorbell burst while reads keep the synchronous passthrough.
var burstSubmission = SubmissionConfig{QueueDepth: 1, DoorbellBatch: 64}

func setBurst(t *testing.T, d *Driver) {
	t.Helper()
	if err := d.SetSubmission(burstSubmission); err != nil {
		t.Fatal(err)
	}
}

func TestPipelinedToggle(t *testing.T) {
	d, _, _ := newStack(t, MethodPiggyback, false)
	if d.pipelined || d.Submission().burst() {
		t.Fatal("pipelining on by default; the paper's testbed serializes")
	}
	setBurst(t, d)
	if !d.pipelined || d.Submission() != burstSubmission {
		t.Fatal("burst submission lost")
	}
}

func TestPipelinedPutFasterThanSerial(t *testing.T) {
	serial, _, _ := newStack(t, MethodPiggyback, false)
	serial.Put([]byte("k"), make([]byte, 2048))
	sResp := serial.Stats().WriteResponse.Mean()

	pipe, _, _ := newStack(t, MethodPiggyback, false)
	setBurst(t, pipe)
	pipe.Put([]byte("k"), make([]byte, 2048))
	pResp := pipe.Stats().WriteResponse.Mean()

	if pResp >= sResp/3 {
		t.Fatalf("pipelined %.0f ns not ≪ serial %.0f ns", pResp, sResp)
	}
}

func TestPipelinedFewerDoorbells(t *testing.T) {
	d, _, link := newStack(t, MethodPiggyback, false)
	setBurst(t, d)
	d.Put([]byte("k"), make([]byte, 1024)) // 19 commands, one burst
	if got := link.Traf.Doorbells.Value(); got != 2 {
		t.Fatalf("doorbells = %d, want 2 (one SQ + one CQ)", got)
	}
	if got := link.Traf.Commands.Value(); got != 19 {
		t.Fatalf("commands = %d, want 19", got)
	}
}

func TestPipelinedBurstSplitsAtQueueDepth(t *testing.T) {
	// A 4 KiB value needs 74 commands; the default 64-deep SQ forces two
	// bursts, and everything still lands correctly.
	d, _, link := newStack(t, MethodPiggyback, true)
	setBurst(t, d)
	v := make([]byte, 4096)
	for i := range v {
		v[i] = byte(i * 11)
	}
	if err := d.Put([]byte("big"), v); err != nil {
		t.Fatal(err)
	}
	if got := link.Traf.Doorbells.Value(); got != 4 {
		t.Fatalf("doorbells = %d, want 4 (two bursts)", got)
	}
	got, err := d.Get([]byte("big"))
	if err != nil || !bytes.Equal(got, v) {
		t.Fatal("split-burst value corrupted")
	}
}

func TestPipelinedRoundTripsAllSizes(t *testing.T) {
	d, _, _ := newStack(t, MethodPiggyback, true)
	setBurst(t, d)
	for _, size := range []int{1, 35, 36, 100, 500, 3000} {
		key := []byte(fmt.Sprintf("p%d", size))
		v := bytes.Repeat([]byte{byte(size)}, size)
		if err := d.Put(key, v); err != nil {
			t.Fatalf("Put(%d): %v", size, err)
		}
		got, err := d.Get(key)
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("Get(%d) mismatch", size)
		}
	}
}

func TestPowerFailureSemantics(t *testing.T) {
	d, _, _ := newStack(t, MethodAdaptive, true)
	// Durable path: per-PUT writes land in the device's battery-backed
	// buffer before completion.
	if err := d.Put([]byte("safe"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Volatile path: batched records buffered on the host.
	b, _ := d.NewBatcher(100)
	b.Put([]byte("flushed"), []byte("x"))
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	b.Put([]byte("doomed1"), []byte("y"))
	b.Put([]byte("doomed2"), []byte("z"))

	lost := b.SimulatePowerFailure()
	if len(lost) != 2 {
		t.Fatalf("lost %d records, want 2", len(lost))
	}
	if string(lost[0]) != "doomed1" || string(lost[1]) != "doomed2" {
		t.Fatalf("lost keys %q", lost)
	}
	// Durable and flushed records survive; unflushed batched ones do not.
	if _, err := d.Get([]byte("safe")); err != nil {
		t.Fatal("per-PUT record lost")
	}
	if _, err := d.Get([]byte("flushed")); err != nil {
		t.Fatal("flushed batch record lost")
	}
	if _, err := d.Get([]byte("doomed1")); err == nil {
		t.Fatal("volatile batch record survived the power failure")
	}
	if b.AtRiskOps() != 0 {
		t.Fatal("power failure left volatile state")
	}
}

func TestCompactVLogViaDriver(t *testing.T) {
	d, dev, _ := newStack(t, MethodAdaptive, true)
	if _, err := d.CompactVLog(0); err == nil {
		t.Fatal("pages=0 accepted")
	}
	for i := 0; i < 60; i++ {
		if err := d.Put([]byte("hot"), bytes.Repeat([]byte{byte(i)}, 2000)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	relocated, err := d.CompactVLog(4)
	if err != nil {
		t.Fatal(err)
	}
	if relocated > 1 {
		t.Fatalf("relocated %d; only the live version should move", relocated)
	}
	if dev.VLog().Stats().ReclaimedPages.Value() == 0 {
		t.Fatal("nothing reclaimed")
	}
	got, err := d.Get([]byte("hot"))
	if err != nil || got[0] != 59 {
		t.Fatal("live value lost by compaction")
	}
}
