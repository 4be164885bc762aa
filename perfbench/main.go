// Command perfbench is the repository's benchmark. It runs one named
// workload through the public entry points (bandslim.DB, bandslim.ShardedDB,
// or the RESP server over loopback), checks every value it reads, and prints
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1) as
// one JSON object on the last line of standard output. See README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"bandslim"
)

// outDir holds the spans and the full per-run reports, under the build
// directory .gitignore lists.
const outDir = ".bench_build/results"

// Rep counts of the untraced measurement: at least minReps set-ups and timed
// phases, more while the timed phases have not yet filled --seconds.
const (
	minReps = 3
	maxReps = 40
)

// profileHz is the CPU profile's sampling rate in the per-layer run.
const profileHz = 1000

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := flag.Uint64("seed", 1, "seed the workload's operations are generated from")
	seconds := flag.Int("seconds", 10, "wall seconds of timed phases to measure")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	var ws []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			ws = append(ws, w)
		}
	}
	if len(ws) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s, or all)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	final := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range ws {
		res, err := runWorkload(w, *seed, *seconds, *traceFlag == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		if len(ws) == 1 {
			final = res
			break
		}
		// "all": one line per workload, then the union with prefixed names.
		line, _ := json.Marshal(res)
		fmt.Printf("%s %s\n", w.name, line)
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			final.Metrics[w.name+"/"+k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !final.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// pass is everything one set-up + timed phase + check measured.
type pass struct {
	setup     time.Duration
	wall      time.Duration // timed phase
	ops       int
	attempted int // timed ops plus read-back checks
	failed    int
	walls     []float64 // p50, p99 of per-op wall latency, µs
	samples   int

	sim    map[string]float64 // deterministic end-to-end values
	layers map[string]float64 // Stats-derived per-layer counts
	blame  map[string]float64 // traced pass only
	cpu    map[string]int64   // CPU time per profile bucket, profiled pass only
	cpuN   int64              // profile samples
	steal  int64              // host steal ticks during the timed phase
	goRT   map[string]float64
	simN   map[string]int64 // sample counts behind the sim quantiles
	spans  []span

	// repeatable is set when the simulated results must repeat bit for bit.
	// The RESP server coalesces whatever commands have arrived when its
	// writer wakes, so its batches, and the simulated time they take,
	// follow wall-clock scheduling.
	repeatable bool
}

// runWorkload generates the workload's inputs and runs the untraced
// measurement (trace false) or the per-layer measurement (trace true).
func runWorkload(w workload, seed uint64, seconds int, trace bool) (result, error) {
	open, err := w.prepare(seed)
	if err != nil {
		return result{}, fmt.Errorf("generate: %w", err)
	}
	rep := report{Workload: w.name, Env: environment(seed, w.name), Trace: trace}
	var res result
	if trace {
		res, err = measureLayers(open, seconds, &rep)
	} else {
		res, err = measureEndToEnd(open, seconds, &rep)
	}
	if err != nil {
		return result{}, err
	}
	rep.Result = res
	if err := rep.write(seed); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing report:", err)
	}
	if stamp, err := json.Marshal(rep.Env); err == nil {
		fmt.Printf("env %s\n", stamp)
	}
	fmt.Fprintf(os.Stderr, "%s seed=%d trace=%v %s\n", w.name, seed, trace, rep.Env.summary())
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-36s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	return res, nil
}

// runPass opens a fresh store, runs the timed phase once and the read-back
// check, and collects every measurement of that pass.
func runPass(open func(bool) (*session, error), traced, profile bool) (*pass, error) {
	runtime.GC() // start every pass from the same heap state
	base := time.Now()
	rec := newRecorder(base, traced, 0)
	runID := rec.newID()

	t0 := rec.now()
	s, err := open(traced)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	p := &pass{setup: time.Duration(rec.now() - t0), ops: s.ops, repeatable: s.srv == nil}
	rec.record(rec.newID(), runID, kindPhase, "setup", t0, rec.now())
	defer func() {
		if s != nil {
			s.stop()
		}
	}()

	before, exBefore := s.st.Stats(), expo(s.st)
	from, simFrom := s.shardClocks(), s.st.Now()
	srvBefore := serverStats(s)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var prof bytes.Buffer
	if profile {
		// A higher rate than pprof's default 100 Hz gives a short timed phase
		// enough samples; the runtime warns on stderr that the rate was set
		// before StartCPUProfile and keeps it.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	rec.phaseID = rec.newID()
	steal0 := stealTicks()
	t1 := rec.now()
	err = s.timed(rec)
	t2 := rec.now()
	p.steal = stealTicks() - steal0
	if profile {
		pprof.StopCPUProfile()
	}
	rec.record(rec.phaseID, runID, kindPhase, "timed", t1, t2)
	if err != nil {
		return nil, fmt.Errorf("timed phase: %w", err)
	}
	runtime.ReadMemStats(&ms1)
	p.wall = time.Duration(t2 - t1)
	p.walls = quantiles(rec.lat, 0.50, 0.99)
	p.samples = len(rec.lat)
	p.attempted, p.failed = len(rec.lat), rec.failed

	after, exAfter := s.st.Stats(), expo(s.st)
	to, simTo := s.shardClocks(), s.st.Now()
	srvAfter := serverStats(s)

	// Drain the page buffer so write amplification and packing count every
	// byte written, then read back through the untimed check.
	if err := s.st.Flush(); err != nil {
		return nil, fmt.Errorf("flush: %w", err)
	}
	fin := s.st.Stats()
	exCheck := expo(s.st)
	chk := newRecorder(base, traced, rec.nextID)
	if s.check != nil {
		chk.phaseID = chk.newID()
		t3 := chk.now()
		if err := s.check(chk); err != nil {
			return nil, fmt.Errorf("check: %w", err)
		}
		chk.record(chk.phaseID, runID, kindPhase, "check", t3, chk.now())
	}
	p.attempted += len(chk.lat)
	p.failed += chk.failed

	lat := simLatencies(exBefore, exAfter)
	if lat.reads == 0 && len(chk.lat) > 0 {
		// A write-only timed phase: simulated reads come from the read-back.
		lat = withReads(lat, simLatencies(exCheck, expo(s.st)))
	}
	simSec := float64(simTo-simFrom) / 1e9
	p.sim = map[string]float64{
		"sim_kops":          ratio(float64(s.ops), simSec) / 1e3,
		"sim_read_p50_us":   lat.readP50,
		"sim_read_p99_us":   lat.readP99,
		"sim_write_p50_us":  lat.writeP50,
		"sim_write_p99_us":  lat.writeP99,
		"pcie_bytes_per_op": float64(after.PCIe.Bytes-before.PCIe.Bytes) / float64(s.ops),
		"waf":               float64(fin.Device.NANDPageWrites*nandPageSize) / float64(s.userBytes),
		"vlog_space_amp":    ratio(1, fin.Device.BufferUtil),
	}
	p.simN = map[string]int64{"sim_read": lat.reads, "sim_write": lat.writes}
	p.layers = layerCounts(before, after, fin, s.ops)
	for k, v := range serverCounts(srvBefore, srvAfter) {
		p.layers[k] = v
	}
	ops := float64(s.ops)
	p.goRT = map[string]float64{
		"go.allocs_per_op": float64(ms1.Mallocs-ms0.Mallocs) / ops,
		"go.bytes_per_op":  float64(ms1.TotalAlloc-ms0.TotalAlloc) / ops,
		"go.gc_cycles":     float64(ms1.NumGC - ms0.NumGC),
	}
	if profile {
		if p.cpu, p.cpuN, err = cpuWeights(prof.Bytes()); err != nil {
			return nil, err
		}
	}
	if traced {
		p.blame = blameShares(s.st.Blame(), from, to)
		p.blame["trace.dropped"] = float64(s.traceDropped())
	}
	err = s.stop()
	s = nil
	if err != nil {
		return nil, fmt.Errorf("stop: %w", err)
	}
	rec.record(runID, 0, kindRun, "pass", 0, rec.now())
	if traced {
		p.spans = append(rec.spans, chk.spans...)
	}
	return p, nil
}

// withReads takes the read quantiles from r and the rest from w.
func withReads(w, r simLatency) simLatency {
	w.readP50, w.readP99, w.reads = r.readP50, r.readP99, r.reads
	return w
}

// expo renders the store's Prometheus exposition.
func expo(st store) []byte {
	var b bytes.Buffer
	if err := st.WritePrometheus(&b); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: exposition:", err)
	}
	return b.Bytes()
}

func serverStats(s *session) bandslim.ServerStats {
	if s.srv == nil {
		return bandslim.ServerStats{}
	}
	return s.srv.Stats()
}

// simDiff names the first simulated value or Stats count that differs
// between two passes over the same inputs, or returns "".
func simDiff(a, b *pass) string {
	for _, m := range []struct{ x, y map[string]float64 }{{a.sim, b.sim}, {a.layers, b.layers}} {
		for k, v := range m.x {
			if w := m.y[k]; math.Float64bits(v) != math.Float64bits(w) {
				return fmt.Sprintf("%s: %v vs %v", k, v, w)
			}
		}
	}
	return ""
}

// measureEndToEnd runs repeated untraced passes and reports the medians.
func measureEndToEnd(open func(bool) (*session, error), seconds int, rep *report) (result, error) {
	var passes []*pass
	var timed time.Duration
	for len(passes) < minReps || (timed < time.Duration(seconds)*time.Second && len(passes) < maxReps) {
		p, err := runPass(open, false, false)
		if err != nil {
			return result{}, err
		}
		if len(passes) > 0 && p.repeatable {
			if d := simDiff(passes[0], p); d != "" {
				return result{}, fmt.Errorf("simulated results differ between repeated passes: %s", d)
			}
		}
		passes = append(passes, p)
		timed += p.wall
		rep.Passes = append(rep.Passes, p.summary())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
	res.Correct = res.Failed == 0
	med := func(ps []*pass, f func(*pass) float64) float64 {
		v := make([]float64, len(ps))
		for i, p := range ps {
			v[i] = f(p)
		}
		return median(v)
	}
	quiet := quietHalf(passes)
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	set("wall_kops", "kops/s", med(quiet, func(p *pass) float64 { return float64(p.ops) / p.wall.Seconds() / 1e3 }))
	set("wall_p50_us", "us", med(quiet, func(p *pass) float64 { return p.walls[0] }))
	set("wall_p99_us", "us", med(quiet, func(p *pass) float64 { return p.walls[1] }))
	set("setup_s", "s", med(passes, func(p *pass) float64 { return p.setup.Seconds() }))
	set("host_mem_mb", "MiB", float64(ms.Sys)/(1<<20))
	set("op_ok_ratio", "ratio", 1-ratio(float64(res.Failed), float64(res.Attempted)))
	units := map[string]string{"sim_kops": "kops/s", "pcie_bytes_per_op": "B/op", "waf": "ratio", "vlog_space_amp": "ratio"}
	for k := range passes[0].sim {
		u, ok := units[k]
		if !ok {
			u = "us"
		}
		set(k, u, med(passes, func(p *pass) float64 { return p.sim[k] }))
	}
	rep.Extra = map[string]any{
		"op_error_ratio":       ratio(float64(res.Failed), float64(res.Attempted)),
		"wall_samples_per_rep": passes[0].samples,
		"sim_samples_per_rep":  passes[0].simN,
		"reps":                 len(passes),
		"quiet_reps":           len(quiet),
		"sim_repeatable":       passes[0].repeatable,
	}
	return res, nil
}

// quietHalf keeps the passes whose timed phase saw no more host steal time
// than the run's median pass. Steal (the hypervisor running another guest
// on this VM's vCPUs) only ever slows a pass, and on a shared host it comes
// in bursts lasting seconds, so the wall metrics are medians over the
// quieter half of the passes.
func quietHalf(passes []*pass) []*pass {
	steal := make([]float64, len(passes))
	for i, p := range passes {
		steal[i] = float64(p.steal)
	}
	limit := median(steal)
	var out []*pass
	for _, p := range passes {
		if float64(p.steal) <= limit {
			out = append(out, p)
		}
	}
	return out
}

// measureLayers runs untraced, CPU-profiled passes until their timed phases
// fill seconds, then one traced pass over the same inputs, and reports the
// per-layer metrics.
func measureLayers(open func(bool) (*session, error), seconds int, rep *report) (result, error) {
	var plain []*pass
	var timed time.Duration
	for len(plain) == 0 || (timed < time.Duration(seconds)*time.Second && len(plain) < maxReps) {
		p, err := runPass(open, false, true)
		if err != nil {
			return result{}, err
		}
		if len(plain) > 0 && p.repeatable {
			if d := simDiff(plain[0], p); d != "" {
				return result{}, fmt.Errorf("simulated results differ between repeated passes: %s", d)
			}
		}
		plain = append(plain, p)
		timed += p.wall
		rep.Passes = append(rep.Passes, p.summary())
	}
	traced, err := runPass(open, true, false)
	if err != nil {
		return result{}, err
	}
	if traced.repeatable {
		if d := simDiff(plain[0], traced); d != "" {
			return result{}, fmt.Errorf("simulated results differ between the traced and untraced passes: %s", d)
		}
	}
	rep.Passes = append(rep.Passes, traced.summary())

	res := result{Metrics: map[string]metric{}}
	weight := map[string]int64{}
	var samples int64
	walls := make([]float64, len(plain))
	goRT := map[string][]float64{}
	for i, p := range plain {
		res.Attempted += p.attempted
		res.Failed += p.failed
		for b, w := range p.cpu {
			weight[b] += w
		}
		samples += p.cpuN
		walls[i] = p.wall.Seconds()
		for k, v := range p.goRT {
			goRT[k] = append(goRT[k], v)
		}
	}
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	res.Correct = res.Failed == 0
	for b, v := range cpuShares(weight) {
		res.Metrics["cpu."+b+"_share"] = metric{v, "ratio"}
	}
	res.Metrics["cpu.samples"] = metric{float64(samples), "count"}
	for k, v := range goRT {
		res.Metrics[k] = metric{median(v), goUnits[k]}
	}
	for k, v := range traced.layers {
		res.Metrics[k] = metric{v, layerUnit(k)}
	}
	for k, v := range traced.blame {
		res.Metrics[k] = metric{v, layerUnit(k)}
	}
	res.Metrics["trace.overhead_ratio"] = metric{traced.wall.Seconds() / median(walls), "ratio"}
	if err := writeSpans(rep.Workload, traced.spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	}
	rep.Extra = map[string]any{"spans": len(traced.spans), "profiled_reps": len(plain)}
	return res, nil
}

var goUnits = map[string]string{"go.allocs_per_op": "count/op", "go.bytes_per_op": "B/op", "go.gc_cycles": "count"}

// layerUnit infers a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_share"), strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, ".util"):
		return "ratio"
	case strings.HasSuffix(name, "_sim_us_per_op"):
		return "us/op"
	case strings.HasSuffix(name, "bytes_per_op"), strings.HasSuffix(name, "_per_cmd"):
		return "B/op"
	case strings.HasSuffix(name, "_per_op"), strings.HasSuffix(name, "_per_get"):
		return "count/op"
	}
	return "count"
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// summary is one pass's record in the written report.
func (p *pass) summary() map[string]any {
	return map[string]any{
		"setup_s": p.setup.Seconds(), "timed_s": p.wall.Seconds(), "ops": p.ops,
		"wall_p50_us": p.walls[0], "wall_p99_us": p.walls[1], "wall_samples": p.samples,
		"attempted": p.attempted, "failed": p.failed, "sim": p.sim, "steal_ticks": p.steal,
	}
}

// writeSpans writes the traced pass's wall spans as JSON lines.
func writeSpans(workload string, spans []span) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(outDir, "spans-"+workload+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"kind":%q,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.id, s.parent, kindNames[s.kind], s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report is the full record of one run, written beside the spans.
type report struct {
	Workload string           `json:"workload"`
	Trace    bool             `json:"trace"`
	Env      env              `json:"env"`
	Result   result           `json:"result"`
	Passes   []map[string]any `json:"passes"`
	Extra    map[string]any   `json:"extra"`
}

func (r *report) write(seed uint64) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if r.Trace {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, seed, trace)
	return os.WriteFile(filepath.Join(outDir, name), b, 0o644)
}

// env stamps a result with the machine and build it was measured on.
type env struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Workload   string `json:"workload"`
}

func environment(seed uint64, workload string) env {
	return env{
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: gitCommit(), Seed: seed, Workload: workload,
	}
}

func (e env) summary() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s", e.CPU, e.NProc, e.GOMAXPROCS, e.GoVersion, e.Commit)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from the checkout's .git directory without running
// git; a tree that is not a git checkout reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	f, err := os.Open(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	return packedRef(f, ref)
}

func packedRef(r io.Reader, ref string) string {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if sha, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// stealTicks reads the host's cumulative steal time from /proc/stat, in
// clock ticks: time this VM's vCPUs were runnable but not running.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}
