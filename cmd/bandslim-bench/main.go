// Command bandslim-bench regenerates the tables and figures of the BandSlim
// paper's evaluation (§4) on the simulated KV-SSD stack.
//
// Usage:
//
//	bandslim-bench -experiment fig8 [-scale 20000] [-seed 42] [-csv out/]
//	bandslim-bench -experiment shards [-shards 1,2,4,8] [-json out/]
//	bandslim-bench -experiment hotpath [-scale 40000] [-json out/]
//	bandslim-bench -experiment server [-scale 20000] [-shards 4] [-json out/]
//	bandslim-bench -experiment blame [-scale 20000] [-json out/]
//	bandslim-bench -experiment cache [-scale 20000] [-json out/]
//	bandslim-bench -experiment ycsb [-scale 20000] [-json out/]
//	bandslim-bench -experiment all
//	bandslim-bench -trace out.json [-shards 4]
//	bandslim-bench -trace-jsonl out.jsonl [-shards 4]
//	bandslim-bench -metrics-out out.prom -series-out series.csv [-shards 4] [-listen :9090]
//	bandslim-bench -list
//
// Each experiment prints the same rows/series the paper plots; -csv also
// writes one CSV file per table for plotting. The shards experiment
// additionally writes machine-readable BENCH_shards.json.
//
// The hotpath experiment measures the simulator's own wall-clock cost: the
// micro-benchmark suite with allocation counts plus the 4-shard mixed
// workload in per-op and batched modes, written as BENCH_hotpath.json with
// before/after speedups against the committed seed-commit baseline.
// -cpuprofile and -memprofile capture pprof profiles of any run.
//
// -trace skips the experiments and instead captures a short adaptive-method
// workload with command-level tracing on, writing Chrome trace_event JSON
// loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing. With
// -shards the capture runs a multi-shard DB and the shards render as processes.
// -trace-jsonl writes the same capture as one JSON object per event — the
// input format of `bandslim-cli analyze`, which reconstructs per-op latency
// attribution offline.
//
// The blame experiment sweeps the submission-window depth and attributes
// every measured op's latency to pipeline stages (host, window wait, fetch,
// device exec, transfer, NAND, coalescing, reap), writing BENCH_blame.json.
// It fails hard if any op's stages do not sum exactly to its end-to-end
// latency.
//
// The cache experiment sweeps the device-DRAM read cache (size × policy ×
// Zipfian skew) against the cache-off read path, writing BENCH_cache.json.
// It fails hard if the hot-read p99 at the default operating point does not
// improve at least 3x over cache-off.
//
// The ycsb experiment runs the six YCSB core scenarios (A: update-heavy
// under a diurnal load curve with a mid-run hotspot shift, B: read-mostly
// under bursts, C: read-only, D: read-latest with insert-ordered keyspace
// growth, E: scan-heavy, F: read-modify-write), writing BENCH_ycsb.json. It
// fails hard if any scenario's realized op mix drifts from its spec. Use
// `bandslim-cli trace record|replay|stat` to capture any scenario to a
// deterministic trace file and replay it bit-identically.
//
// -metrics-out, -series-out, and -listen likewise skip the experiments and
// run one instrumented workload with the simulated-time metrics sampler on:
// -metrics-out writes the final Prometheus exposition, -series-out writes
// the sampled per-metric series CSV, and -listen serves /metrics (live
// Prometheus scrape) and /progress (JSON: ops done, simulated elapsed,
// current rates) while the run executes. The exported files are
// deterministic: same seed, scale, shards, and interval produce
// byte-identical bytes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"bandslim"
	"bandslim/internal/bench"
	"bandslim/internal/sim"
)

// runTelemetry drives the instrumented workload behind -metrics-out,
// -series-out, and -listen: start the sharded run, optionally serve the
// live endpoints while it executes, then export the deterministic files.
func runTelemetry(opts bench.Options, shards int, interval sim.Duration, listen, metricsOut, seriesOut string) error {
	tr, err := bench.StartTelemetry(opts, shards, interval)
	if err != nil {
		return err
	}
	defer tr.DB.Close()

	var srv *http.Server
	if listen != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := tr.DB.WritePrometheus(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
		mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if err := json.NewEncoder(w).Encode(tr.Progress()); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
		srv = &http.Server{Addr: listen, Handler: mux}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "bandslim-bench: listen:", err)
			}
		}()
		defer srv.Close()
		fmt.Printf("serving /metrics and /progress on %s\n", listen)
	}

	if err := tr.Wait(); err != nil {
		return err
	}
	if metricsOut != "" {
		f, err := os.Create(metricsOut)
		if err != nil {
			return err
		}
		if err := tr.DB.WritePrometheus(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Println("wrote", metricsOut)
	}
	if seriesOut != "" {
		series := tr.DB.Series()
		f, err := os.Create(seriesOut)
		if err != nil {
			return err
		}
		if err := bandslim.WriteSeriesCSV(f, series); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d samples)\n", seriesOut, series.Len())
	}
	p := tr.Progress()
	fmt.Printf("telemetry run: %d ops on %d shard(s), %.3f ms simulated, %.1f wall Kops\n",
		p.OpsDone, shards, p.SimElapsedUs/1000, p.WallKops)
	return nil
}

// parseShards turns "1,2,4,8" into a shard-count sweep.
func parseShards(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad shard count %q (want comma-separated integers >= 1)", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// serverShards picks the shard count for the server sweep: the first entry
// of -shards, defaulting to 4.
func serverShards(counts []int) int {
	if len(counts) > 0 {
		return counts[0]
	}
	return 4
}

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment ID (see -list)")
		scale      = flag.Int("scale", 20000, "operations per data point (paper: 1M)")
		seed       = flag.Uint64("seed", 42, "workload seed")
		shards     = flag.String("shards", "", "shard counts for the shards experiment, e.g. 1,2,4,8")
		csvDir     = flag.String("csv", "", "directory to write per-table CSV files")
		jsonDir    = flag.String("json", "", "directory for BENCH_shards.json (default: current dir)")
		tracePath  = flag.String("trace", "", "capture a traced workload and write Chrome trace JSON to this path")
		traceJSONL = flag.String("trace-jsonl", "", "capture a traced workload and write JSONL events to this path (bandslim-cli analyze input)")
		metricsOut = flag.String("metrics-out", "", "run an instrumented workload and write its Prometheus exposition here")
		seriesOut  = flag.String("series-out", "", "run an instrumented workload and write its sampled metric series CSV here")
		listen     = flag.String("listen", "", "serve /metrics and /progress on this address during the instrumented run")
		intervalUs = flag.Int64("metrics-interval-us", 100, "simulated sampling interval for the instrumented run, µs")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this path")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this path")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Println("wrote", *cpuProfile)
		}()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
			}
			f.Close()
			fmt.Println("wrote", path)
		}()
	}

	if *list {
		fmt.Println("experiments:")
		for _, id := range bench.Experiments() {
			fmt.Println("  ", id)
		}
		return
	}

	counts, err := parseShards(*shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
		os.Exit(1)
	}
	opts := bench.Options{Scale: *scale, Seed: *seed, Shards: counts}

	if *metricsOut != "" || *seriesOut != "" || *listen != "" {
		shardCount := 1
		if len(counts) > 0 {
			shardCount = counts[0]
		}
		if err := runTelemetry(opts, shardCount, sim.Duration(*intervalUs)*sim.Microsecond,
			*listen, *metricsOut, *seriesOut); err != nil {
			fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *tracePath != "" || *traceJSONL != "" {
		shardCount := 1
		if len(counts) > 0 {
			shardCount = counts[0]
		}
		events, err := bench.CaptureTrace(opts, shardCount)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
			os.Exit(1)
		}
		write := func(path string, render func(f *os.File) error, note string) {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
				os.Exit(1)
			}
			if err := render(f); err != nil {
				f.Close()
				fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s (%d events, %d shard(s))%s\n", path, len(events), shardCount, note)
		}
		if *tracePath != "" {
			write(*tracePath, func(f *os.File) error {
				return bandslim.WriteChromeTrace(f, events)
			}, " — load it at https://ui.perfetto.dev")
		}
		if *traceJSONL != "" {
			write(*traceJSONL, func(f *os.File) error {
				return bandslim.WriteTraceJSONL(f, events)
			}, " — feed it to bandslim-cli analyze")
		}
		return
	}

	if *experiment == "hotpath" {
		start := time.Now()
		report, err := bench.RunHotpath(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
			os.Exit(1)
		}
		raw, err := bench.HotpathJSON(report)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
			os.Exit(1)
		}
		dir := *jsonDir
		if dir == "" {
			dir = "."
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
			os.Exit(1)
		}
		path := filepath.Join(dir, "BENCH_hotpath.json")
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", path)
		names := make([]string, 0, len(report.Speedup))
		for k := range report.Speedup {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Printf("  %s: %.2fx\n", k, report.Speedup[k])
		}
		fmt.Printf("hotpath experiment completed in %v (wall clock)\n", time.Since(start).Round(time.Millisecond))
		return
	}

	if *experiment == "blame" {
		start := time.Now()
		t, points, err := bench.RunBlameSweep(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
			os.Exit(1)
		}
		fmt.Println(t.Format())
		raw, err := bench.BlameSweepJSON(points)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
			os.Exit(1)
		}
		dir := *jsonDir
		if dir == "" {
			dir = "."
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
			os.Exit(1)
		}
		path := filepath.Join(dir, "BENCH_blame.json")
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", path)
		fmt.Printf("blame experiment completed in %v (wall clock)\n", time.Since(start).Round(time.Millisecond))
		return
	}

	if *experiment == "qd" {
		start := time.Now()
		t, points, err := bench.RunQDSweep(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
			os.Exit(1)
		}
		fmt.Println(t.Format())
		raw, err := bench.QDSweepJSON(points)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
			os.Exit(1)
		}
		dir := *jsonDir
		if dir == "" {
			dir = "."
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
			os.Exit(1)
		}
		path := filepath.Join(dir, "BENCH_qd.json")
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", path)
		fmt.Printf("qd experiment completed in %v (wall clock)\n", time.Since(start).Round(time.Millisecond))
		return
	}

	if *experiment == "ycsb" {
		start := time.Now()
		t, points, err := bench.RunYCSB(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
			os.Exit(1)
		}
		fmt.Println(t.Format())
		raw, err := bench.YCSBJSON(points)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
			os.Exit(1)
		}
		dir := *jsonDir
		if dir == "" {
			dir = "."
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
			os.Exit(1)
		}
		path := filepath.Join(dir, "BENCH_ycsb.json")
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", path)
		fmt.Printf("ycsb experiment completed in %v (wall clock)\n", time.Since(start).Round(time.Millisecond))
		return
	}

	if *experiment == "cache" {
		start := time.Now()
		t, points, err := bench.RunCacheSweep(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
			os.Exit(1)
		}
		fmt.Println(t.Format())
		raw, err := bench.CacheSweepJSON(points)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
			os.Exit(1)
		}
		dir := *jsonDir
		if dir == "" {
			dir = "."
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
			os.Exit(1)
		}
		path := filepath.Join(dir, "BENCH_cache.json")
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", path)
		fmt.Printf("cache experiment completed in %v (wall clock)\n", time.Since(start).Round(time.Millisecond))
		return
	}

	if *experiment == "server" {
		start := time.Now()
		t, points, err := bench.RunServerSweep(opts, serverShards(counts), nil, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
			os.Exit(1)
		}
		fmt.Println(t.Format())
		raw, err := bench.ServerSweepJSON(points)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
			os.Exit(1)
		}
		dir := *jsonDir
		if dir == "" {
			dir = "."
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
			os.Exit(1)
		}
		path := filepath.Join(dir, "BENCH_server.json")
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", path)
		fmt.Printf("server experiment completed in %v (wall clock)\n", time.Since(start).Round(time.Millisecond))
		return
	}

	start := time.Now()
	var tables []*bench.Table
	if *experiment == "shards" {
		// Run directly so the machine-readable points are in hand for
		// BENCH_shards.json alongside the usual table.
		t, points, err := bench.RunShardScaling(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
			os.Exit(1)
		}
		tables = []*bench.Table{t}
		raw, err := bench.ShardScalingJSON(points)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
			os.Exit(1)
		}
		dir := *jsonDir
		if dir == "" {
			dir = "."
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
			os.Exit(1)
		}
		path := filepath.Join(dir, "BENCH_shards.json")
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", path)
	} else {
		tables, err = bench.Run(*experiment, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
			os.Exit(1)
		}
	}
	for _, t := range tables {
		fmt.Println(t.Format())
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
			os.Exit(1)
		}
		for _, t := range tables {
			path := filepath.Join(*csvDir, t.ID+".csv")
			if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "bandslim-bench:", err)
				os.Exit(1)
			}
			fmt.Println("wrote", path)
		}
	}
	fmt.Printf("completed %d table(s) in %v (wall clock)\n", len(tables), time.Since(start).Round(time.Millisecond))
}
