package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"time"

	"bandslim"
	"bandslim/internal/nand"
	"bandslim/internal/resp"
	"bandslim/internal/server"
	gen "bandslim/internal/workload"
)

// store is the surface the benchmark reads from both front-ends.
type store interface {
	Stats() bandslim.Stats
	WritePrometheus(io.Writer) error
	Now() bandslim.SimTime
	Blame() *bandslim.BlameReport
	Flush() error
}

// session is one store under test after set-up: opened, loaded, and for the
// RESP workload served on loopback with its client connections dialled.
type session struct {
	st        store
	ops       int   // operations in the timed phase
	userBytes int64 // key+value bytes written since open, timed phase included
	timed     func(r *recorder) error
	check     func(r *recorder) error // untimed read-back after the timed phase, if any
	stop      func() error
	srv       *server.Server
}

// shardClocks reads every shard's simulated clock.
func (s *session) shardClocks() []bandslim.SimTime {
	switch db := s.st.(type) {
	case *bandslim.ShardedDB:
		out := make([]bandslim.SimTime, db.NumShards())
		for i := range out {
			out[i] = bandslim.SimTime(db.ShardStats(i).Host.Elapsed)
		}
		return out
	default:
		return []bandslim.SimTime{s.st.Now()}
	}
}

// traceDropped reports how many events the trace rings evicted.
func (s *session) traceDropped() int64 {
	if db, ok := s.st.(*bandslim.ShardedDB); ok {
		return db.TraceDropped()
	}
	return s.st.Stats().Trace.Dropped
}

// workload is one named benchmark input. prepare generates every operation
// from the seed (outside any timing) and returns the set-up function, which
// each pass calls to open a fresh store; its duration is setup_s.
type workload struct {
	name    string
	prepare func(seed uint64) (open func(traced bool) (*session, error), err error)
}

var workloads = []workload{
	{"fill-mixgraph", prepareFill},
	{"ycsb-b-sharded", prepareYCSB},
	{"resp-pipelined", prepareRESP},
}

// Sizes of the three workloads. Each timed phase leaves well over 1,000
// samples beyond its p99.
const (
	fillOps    = 200_000 // W(M) puts
	fillChecks = 5_000   // keys read back after the fill

	ycsbRecords = 1 << 17 // loaded keys, 256 B values: ~34 MB against 2 x 4 MiB of value cache
	ycsbValue   = 256
	ycsbOps     = 150_000
	ycsbUpdate  = 0.05

	// One RESP client at depth 4: two clients on two vCPUs made the wall
	// tail swing threefold between runs of one seed, and a deeper pipeline
	// lets one host stall delay more samples (README.md).
	respKeys  = 1 << 13 // 8192 keys of 128 B: fits the value cache
	respValue = 128
	respOps   = 100_000
	respDepth = 4

	shards     = 2
	traceRing  = 1 << 20 // trace events kept per shard in the traced pass
	loadBatch  = 256     // keys per PutBatch in the load phase
	zipfTheta  = 0.99
	rankSpread = 0x9E3779B1 // odd: a bijection on power-of-two key spaces
)

// benchGeometry is the repository's standard benchmark device: the real
// 16 KiB page and Cosmos+ parallelism with a bounded mapping table.
func benchGeometry() nand.Geometry {
	return nand.Geometry{Channels: 4, WaysPerChannel: 8, BlocksPerWay: 128, PagesPerBlock: 128, PageSize: 16 * 1024}
}

// nandPageSize converts NAND page counts to bytes for the write amplification.
const nandPageSize = 16 * 1024

// baseConfig is the paper's headline configuration (Adaptive transfer,
// Selective Packing with Backfilling) on the benchmark device, NAND on.
func baseConfig() bandslim.Config {
	cfg := bandslim.DefaultConfig()
	cfg.Device.Geometry = benchGeometry()
	return cfg
}

// mix is the SplitMix64 finalizer.
func mix(z uint64) uint64 {
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// fillValue writes the deterministic value of write number id into dst.
func fillValue(dst []byte, seed, id uint64) {
	x := seed ^ id*0x9E3779B97F4A7C15
	var z uint64
	for i := range dst {
		if i%8 == 0 {
			x += 0x9E3779B97F4A7C15
			z = mix(x)
		}
		dst[i] = byte(z >> (8 * (i % 8)))
	}
}

// arena hands out value slices from large blocks, so millions of generated
// values cost a handful of allocations.
type arena struct{ buf []byte }

func (a *arena) alloc(n int) []byte {
	if len(a.buf) < n {
		a.buf = make([]byte, max(n, 4<<20))
	}
	v := a.buf[:n:n]
	a.buf = a.buf[n:]
	return v
}

// prepareFill builds fill-mixgraph: the paper's W(M) stream as Puts on one
// DB, then a seeded read-back sample.
func prepareFill(seed uint64) (func(bool) (*session, error), error) {
	stream := gen.NewWorkloadM(fillOps, seed)
	var a arena
	keys := make([][]byte, 0, fillOps)
	vals := make([][]byte, 0, fillOps)
	var user int64
	for i := 0; ; i++ {
		op, ok := stream.Next()
		if !ok {
			break
		}
		v := a.alloc(op.ValueSize)
		fillValue(v, seed, uint64(i))
		keys, vals = append(keys, op.Key), append(vals, v)
		user += int64(len(op.Key) + len(v))
	}
	rng := unitRNG(seed ^ 0xC4EC)
	sample := make([]int, fillChecks)
	for i := range sample {
		sample[i] = int(rng.next() * float64(len(keys)))
	}
	return func(traced bool) (*session, error) {
		cfg := baseConfig()
		if traced {
			cfg.Tracer = bandslim.NewRecorder(traceRing)
		}
		db, err := bandslim.Open(cfg)
		if err != nil {
			return nil, err
		}
		s := &session{st: db, ops: len(keys), userBytes: user, stop: db.Close}
		s.timed = func(r *recorder) error {
			for i := range keys {
				t0 := r.now()
				err := db.Put(keys[i], vals[i])
				r.op(kindPut, t0, r.now(), err != nil, 0)
			}
			return nil
		}
		s.check = func(r *recorder) error {
			var buf []byte
			for _, i := range sample {
				t0 := r.now()
				got, err := db.GetInto(keys[i], buf)
				r.op(kindGet, t0, r.now(), err != nil || !bytes.Equal(got, vals[i]), 0)
				if err == nil {
					buf = got
				}
			}
			return nil
		}
		return s, nil
	}, nil
}

// ycsbOp is one generated YCSB-B operation: a read expecting val, or an
// update writing val.
type ycsbOp struct {
	key    int
	update bool
	val    []byte
}

// zipfKeys draws Zipfian ranks over n keys and spreads them across the key
// space (YCSB's hashed chooser), so hot keys are not neighbours.
func zipfKeys(n int, seed uint64) (func() int, error) {
	z, err := gen.NewZipfian(n, zipfTheta, seed)
	if err != nil {
		return nil, err
	}
	return func() int { return int(uint64(z.Next()) * rankSpread % uint64(n)) }, nil
}

// unitRNG is a SplitMix64 stream of floats in [0, 1).
type unitRNG uint64

func (r *unitRNG) next() float64 {
	*r += 0x9E3779B97F4A7C15
	return float64(mix(uint64(*r))>>11) / (1 << 53)
}

// loadKeys writes every record through PutBatch in fixed-size chunks.
func loadKeys(db *bandslim.ShardedDB, keys, vals [][]byte) error {
	for i := 0; i < len(keys); i += loadBatch {
		j := min(i+loadBatch, len(keys))
		if err := db.PutBatch(keys[i:j], vals[i:j]); err != nil {
			return fmt.Errorf("load: %w", err)
		}
	}
	return nil
}

// shardedConfig is the two-shard serving configuration of the read-path
// workloads: the headline per-shard stack with the serving cache.
func shardedConfig(traced bool) bandslim.ShardedConfig {
	cfg := bandslim.DefaultShardedConfig(shards)
	cfg.PerShard = baseConfig()
	cfg.PerShard.Cache = bandslim.ServingCacheConfig()
	if traced {
		cfg.TraceCapacity = traceRing / shards
	}
	return cfg
}

// prepareYCSB builds ycsb-b-sharded: a load phase (set-up), then 95 % reads
// and 5 % updates over Zipfian keys from one caller.
func prepareYCSB(seed uint64) (func(bool) (*session, error), error) {
	var a arena
	keys := make([][]byte, ycsbRecords)
	vals := make([][]byte, ycsbRecords)
	cur := make([][]byte, ycsbRecords) // latest value of each key
	var user int64
	for k := range keys {
		keys[k] = []byte(fmt.Sprintf("user%012d", k))
		vals[k] = a.alloc(ycsbValue)
		fillValue(vals[k], seed, uint64(k))
		cur[k] = vals[k]
		user += int64(len(keys[k]) + ycsbValue)
	}
	next, err := zipfKeys(ycsbRecords, seed^0x59C5)
	if err != nil {
		return nil, err
	}
	rng := unitRNG(seed ^ 0xB0B)
	ops := make([]ycsbOp, ycsbOps)
	for i := range ops {
		k := next()
		ops[i] = ycsbOp{key: k, val: cur[k]}
		if rng.next() < ycsbUpdate {
			v := a.alloc(ycsbValue)
			fillValue(v, seed, uint64(ycsbRecords+i))
			ops[i] = ycsbOp{key: k, update: true, val: v}
			cur[k] = v
			user += int64(len(keys[k]) + ycsbValue)
		}
	}
	return func(traced bool) (*session, error) {
		db, err := bandslim.OpenSharded(shardedConfig(traced))
		if err != nil {
			return nil, err
		}
		if err := loadKeys(db, keys, vals); err != nil {
			db.Close()
			return nil, err
		}
		s := &session{st: db, ops: len(ops), userBytes: user, stop: db.Close}
		s.timed = func(r *recorder) error {
			buf := make([]byte, 0, ycsbValue)
			for _, op := range ops {
				t0 := r.now()
				if op.update {
					err := db.Put(keys[op.key], op.val)
					r.op(kindPut, t0, r.now(), err != nil, 0)
					continue
				}
				got, err := db.GetInto(keys[op.key], buf)
				r.op(kindGet, t0, r.now(), err != nil || !bytes.Equal(got, op.val), 0)
				if err == nil {
					buf = got
				}
			}
			return nil
		}
		return s, nil
	}, nil
}

// respBatch is one pre-encoded pipeline of commands and the reply each
// command must get: nil for SET (+OK), the value for GET.
type respBatch struct {
	wire   []byte
	expect [][]byte
	gets   []bool
}

// prepareRESP builds resp-pipelined: the RESP server over a two-shard
// ShardedDB with the serving cache, driven by one closed-loop client at a
// fixed pipeline depth with 50 % SET and 50 % GET over Zipfian keys.
func prepareRESP(seed uint64) (func(bool) (*session, error), error) {
	var a arena
	keys := make([][]byte, respKeys)
	vals := make([][]byte, respKeys)
	cur := make([][]byte, respKeys)
	var user int64
	for k := range keys {
		keys[k] = []byte(fmt.Sprintf("resp%08d", k))
		vals[k] = a.alloc(respValue)
		fillValue(vals[k], seed, uint64(k))
		cur[k] = vals[k]
		user += int64(len(keys[k]) + respValue)
	}
	next, err := zipfKeys(respKeys, seed^0x5E7)
	if err != nil {
		return nil, err
	}
	rng := unitRNG(seed ^ 0xD1CE)
	var plan []respBatch
	var enc bytes.Buffer
	w := resp.NewWriter(&enc)
	for n := 0; n < respOps; n += respDepth {
		var b respBatch
		enc.Reset()
		for j := 0; j < respDepth; j++ {
			k := next()
			if rng.next() < 0.5 {
				v := a.alloc(respValue)
				fillValue(v, seed, uint64(respKeys+n+j))
				cur[k] = v
				user += int64(len(keys[k]) + respValue)
				w.Command([]byte("SET"), keys[k], v)
				b.expect, b.gets = append(b.expect, nil), append(b.gets, false)
			} else {
				w.Command([]byte("GET"), keys[k])
				b.expect, b.gets = append(b.expect, cur[k]), append(b.gets, true)
			}
		}
		if err := w.Flush(); err != nil {
			return nil, err
		}
		b.wire = append([]byte(nil), enc.Bytes()...)
		plan = append(plan, b)
	}
	return func(traced bool) (*session, error) {
		return openRESP(traced, keys, vals, plan, user)
	}, nil
}

// openRESP loads the store, starts the server on loopback and dials the
// client: the RESP workload's set-up.
func openRESP(traced bool, keys, vals [][]byte, plan []respBatch, user int64) (*session, error) {
	db, err := bandslim.OpenSharded(shardedConfig(traced))
	if err != nil {
		return nil, err
	}
	if err := loadKeys(db, keys, vals); err != nil {
		db.Close()
		return nil, err
	}
	srv, err := server.New(server.Config{DB: db})
	if err != nil {
		db.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	var nc net.Conn
	stop := func() error {
		if nc != nil {
			nc.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		if serr := <-served; err == nil {
			err = serr
		}
		if cerr := db.Close(); err == nil {
			err = cerr
		}
		return err
	}
	if nc, err = net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second); err != nil {
		stop()
		return nil, err
	}
	s := &session{st: db, ops: len(plan) * respDepth, userBytes: user, stop: stop, srv: srv}
	s.timed = func(r *recorder) error { return drive(nc, plan, r) }
	return s, nil
}

// drive runs the closed-loop client: write a pipeline batch, read all of
// its replies, check each, then send the next batch.
func drive(nc net.Conn, plan []respBatch, r *recorder) error {
	rd := resp.NewReader(nc)
	for _, b := range plan {
		t0 := r.now()
		if _, err := nc.Write(b.wire); err != nil {
			return fmt.Errorf("client write: %w", err)
		}
		batch := r.newID()
		for j, want := range b.expect {
			rep, err := rd.ReadReply()
			if err != nil {
				return fmt.Errorf("client read: %w", err)
			}
			k, ok := kindPut, rep.Kind == resp.KindSimple && string(rep.Str) == "OK"
			if b.gets[j] {
				k, ok = kindGet, rep.Kind == resp.KindBulk && !rep.Null && bytes.Equal(rep.Str, want)
			}
			r.op(k, t0, r.now(), !ok, batch)
		}
		r.record(batch, r.phaseID, kindPipeline, "", t0, r.now())
	}
	return nil
}
