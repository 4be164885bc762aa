package bandslim_test

// Replay-equivalence regression: record a mixed scenario live, round-trip
// the trace through its text format, replay it against a fresh identically
// configured stack, and require the replayed run to be indistinguishable —
// same Stats, same Prometheus exposition bytes, same final key/value
// contents by full iteration — at every shard count. This is the in-tree
// twin of the `make ycsb-smoke` CLI gate.

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"bandslim"
	"bandslim/internal/bench"
	"bandslim/internal/sim"
	"bandslim/internal/workload"
)

// replayStack mirrors the bandslim-cli trace stack: default config with the
// metrics sampler armed.
func replayStack(t *testing.T, shards int) *bandslim.DB {
	t.Helper()
	per := bandslim.DefaultConfig()
	per.MetricsInterval = 100 * sim.Microsecond
	db, err := bandslim.OpenSharded(bandslim.ShardedConfig{Shards: shards, PerShard: per})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// replayFingerprint closes the stack and renders everything the equivalence
// check compares: the Prometheus exposition, the Stats structure, and a full
// ordered dump of the surviving key/value pairs.
func replayFingerprint(t *testing.T, db *bandslim.DB) (prom string, stats bandslim.Stats, dump string) {
	t.Helper()
	it, err := db.NewIterator(nil)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for it.Valid() {
		fmt.Fprintf(&sb, "%q=%x\n", it.Key(), it.Value())
		it.Next()
	}
	if err := it.Err(); err != nil {
		t.Fatalf("fingerprint iteration: %v", err)
	}
	// Close before rendering the exposition so it includes the final flush,
	// matching the order the CLI gate exports in.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String(), db.Stats(), sb.String()
}

func TestReplayEquivalence(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			const seed = 1234
			s, err := workload.NewScenario("mixed", workload.ScenarioConfig{
				Records: 300, Ops: 900, Seed: seed,
				Arrival: workload.ArrivalConfig{
					Rate: 50000, DiurnalAmp: 0.5, DiurnalPeriod: 8 * sim.Millisecond,
				},
				Shifts: workload.HotShifts{{At: sim.Time(10 * sim.Millisecond), Rotate: 97}},
			})
			if err != nil {
				t.Fatal(err)
			}
			live := replayStack(t, shards)
			var tr workload.Trace
			liveRes, err := bench.DriveScenario(live, s, seed, &tr)
			if err != nil {
				t.Fatal(err)
			}
			livePromText, liveStats, liveDump := replayFingerprint(t, live)

			// Round-trip the trace through the text format before replaying:
			// the replayed stream is what a trace file on disk reproduces.
			parsed, err := workload.ParseTrace(strings.NewReader(workload.FormatTrace(&tr)))
			if err != nil {
				t.Fatal(err)
			}
			replayed := replayStack(t, shards)
			replayRes, err := bench.DriveScenario(replayed, workload.NewReplay(parsed), parsed.Seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			replayPromText, replayStats, replayDump := replayFingerprint(t, replayed)

			replayRes.Name = liveRes.Name
			if !reflect.DeepEqual(liveRes, replayRes) {
				t.Errorf("drive results diverged:\nlive   %+v\nreplay %+v", liveRes, replayRes)
			}
			if !reflect.DeepEqual(liveStats, replayStats) {
				t.Errorf("Stats diverged:\nlive   %+v\nreplay %+v", liveStats, replayStats)
			}
			if livePromText != replayPromText {
				t.Errorf("Prometheus expositions differ (%d vs %d bytes)",
					len(livePromText), len(replayPromText))
			}
			if liveDump != replayDump {
				t.Errorf("final key/value contents differ (%d vs %d bytes)",
					len(liveDump), len(replayDump))
			}
			if liveDump == "" {
				t.Error("empty final contents; scenario wrote nothing?")
			}
		})
	}
}
