package bench

import (
	"fmt"

	"bandslim"
	"bandslim/internal/device"
	"bandslim/internal/driver"
	"bandslim/internal/nand"
	"bandslim/internal/workload"
)

// This file holds ablation studies beyond the paper's figures: each isolates
// one design choice DESIGN.md calls out (transfer mechanism alternatives,
// DLT sizing, buffer-entry cap, adaptive coefficients, NAND parallelism) and
// quantifies its contribution.

// runWith feeds a workload through a stack built from an explicit config.
func runWith(gen workload.Generator, cfg bandslim.Config) (runResult, error) {
	db, err := bandslim.Open(cfg)
	if err != nil {
		return runResult{}, err
	}
	defer db.Close()
	var payload, ops int64
	var buf []byte
	filler := workload.NewValueFiller(1)
	for {
		op, ok := gen.Next()
		if !ok {
			break
		}
		buf = filler.Fill(buf, op.ValueSize)
		if err := db.Put(op.Key, buf); err != nil {
			return runResult{}, fmt.Errorf("bench: %s: put: %w", gen.Name(), err)
		}
		payload += int64(op.ValueSize)
		ops++
	}
	timing := db.Stats()
	if !cfg.DisableNAND {
		if err := db.Flush(); err != nil {
			return runResult{}, err
		}
	}
	s := db.Stats()
	s.Host.WriteResp.Mean = timing.Host.WriteResp.Mean
	s.Host.WriteResp.P99 = timing.Host.WriteResp.P99
	s.Host.Elapsed = timing.Host.Elapsed
	s.Host.ThroughputKops = timing.Host.ThroughputKops
	s.Device.FlushWaitTime = timing.Device.FlushWaitTime
	s.Device.MemcpyTime = timing.Device.MemcpyTime
	return runResult{Stats: s, PayloadBytes: payload, Ops: ops}, nil
}

func benchConfig(method bandslim.TransferMethod, policy bandslim.PackingPolicy, nandOn bool) bandslim.Config {
	cfg := bandslim.DefaultConfig()
	cfg.Method = method
	cfg.Policy = policy
	cfg.DisableNAND = !nandOn
	dev := device.DefaultConfig()
	dev.Geometry = benchGeometry()
	cfg.Device = dev
	cfg.Thresholds = driver.DefaultThresholds()
	return cfg
}

// RunAblationSGL compares PRP, SGL, and piggybacking across value sizes,
// reproducing the §2.5 argument for ruling SGL out: its setup cost only
// amortizes above the Linux 32 KB sgl_threshold, far beyond KVS value sizes.
func RunAblationSGL(o Options) (*Table, error) {
	o = o.normalized()
	t := &Table{
		ID: "ablation-sgl", Title: "Transfer Mechanisms: PRP vs SGL vs Piggyback (NAND off)",
		XLabel: "value size (B)",
		Columns: []string{
			"PRP_traffic_KB_op", "SGL_traffic_KB_op", "Piggy_traffic_KB_op",
			"PRP_resp_us", "SGL_resp_us", "Piggy_resp_us",
		},
		Notes: []string{
			fmt.Sprintf("scale=%d ops per point", o.Scale),
			"SGL beats PRP only above ~32KB (the Linux sgl_threshold, §2.5)",
		},
	}
	for _, size := range []int{64, 512, 4096, 8192, 16384, 32768, 49152} {
		var traffic, resp []float64
		for _, m := range []bandslim.TransferMethod{bandslim.Baseline, bandslim.SGL, bandslim.Piggyback} {
			res, err := runWith(workload.NewFillSeq(o.Scale, size), benchConfig(m, bandslim.Block, false))
			if err != nil {
				return nil, err
			}
			traffic = append(traffic, float64(res.Stats.PCIe.Bytes)/float64(res.Ops)/1024)
			resp = append(resp, res.Stats.Host.WriteResp.Mean.Micros())
		}
		t.AddRow(sizeLabel(size), append(traffic, resp...)...)
	}
	return t, nil
}

// RunAblationBatch compares Dotori/KV-CSD-style host-side batching against
// BandSlim's adaptive transfer on the production-like W(M): batching
// amortizes commands but leaves a volatile host buffer (the §2 data-loss
// argument) and pays device-side unpacking.
func RunAblationBatch(o Options) (*Table, error) {
	o = o.normalized()
	t := &Table{
		ID: "ablation-batch", Title: "Host-side Batching vs BandSlim (W(M), NAND on)",
		XLabel: "config",
		Columns: []string{
			"traffic_B_op", "mean_us_op", "Kops", "nand_pages", "at_risk_ops",
		},
		Notes: []string{
			fmt.Sprintf("scale=%d ops", o.Scale),
			"at_risk_ops: peak records buffered volatile on the host (lost on power failure)",
			"BandSlim rows are durable per-PUT (battery-backed device buffer)",
		},
	}
	for _, batch := range []int{8, 64, 256} {
		cfg := benchConfig(bandslim.Baseline, bandslim.AllPacking, true)
		db, err := bandslim.Open(cfg)
		if err != nil {
			return nil, err
		}
		b, err := db.NewBatcher(batch)
		if err != nil {
			db.Close()
			return nil, err
		}
		gen := workload.NewWorkloadM(o.Scale, o.Seed)
		filler := workload.NewValueFiller(1)
		var buf []byte
		ops := 0
		for {
			op, ok := gen.Next()
			if !ok {
				break
			}
			buf = filler.Fill(buf, op.ValueSize)
			if err := b.Put(op.Key, buf); err != nil {
				db.Close()
				return nil, err
			}
			ops++
		}
		if err := b.Flush(); err != nil {
			db.Close()
			return nil, err
		}
		timing := db.Stats()
		if err := db.Flush(); err != nil {
			db.Close()
			return nil, err
		}
		s := db.Stats()
		t.AddRow(fmt.Sprintf("batch=%d", batch),
			float64(s.PCIe.Bytes)/float64(ops),
			timing.Host.Elapsed.Micros()/float64(ops),
			float64(ops)/timing.Host.Elapsed.Seconds()/1000,
			float64(s.Device.NANDPageWrites),
			float64(b.Stats().PeakAtRiskOps),
		)
		db.Close()
	}
	// BandSlim reference rows.
	for _, row := range []struct {
		label  string
		method bandslim.TransferMethod
		policy bandslim.PackingPolicy
	}{
		{"bandslim(adaptive+backfill)", bandslim.Adaptive, bandslim.BackfillPacking},
		{"stock(baseline+block)", bandslim.Baseline, bandslim.Block},
	} {
		res, err := runWith(workload.NewWorkloadM(o.Scale, o.Seed), benchConfig(row.method, row.policy, true))
		if err != nil {
			return nil, err
		}
		t.AddRow(row.label,
			float64(res.Stats.PCIe.Bytes)/float64(res.Ops),
			res.Stats.Host.WriteResp.Mean.Micros(),
			res.Stats.Host.ThroughputKops,
			float64(res.Stats.Device.NANDPageWrites),
			0, // durable per PUT
		)
	}
	return t, nil
}

// RunAblationDLT sweeps the DMA Log Table capacity under W(B): a tiny DLT
// retires entries early, abandoning backfillable gaps (§3.3.3 caps it at 512
// to match the buffer entries).
func RunAblationDLT(o Options) (*Table, error) {
	o = o.normalized()
	t := &Table{
		ID: "ablation-dlt", Title: "DMA Log Table Capacity (Backfill, W(B), NAND on)",
		XLabel:  "DLT entries",
		Columns: []string{"nand_pages", "backfill_jumps", "Kops"},
		Notes:   []string{fmt.Sprintf("scale=%d ops", o.Scale), "paper sizes the DLT at 512 entries (§3.3.3)"},
	}
	for _, cap := range []int{2, 8, 64, 512} {
		cfg := benchConfig(bandslim.Adaptive, bandslim.BackfillPacking, true)
		cfg.Device.Buffer.DLTCap = cap
		res, err := runWith(workload.NewWorkloadB(o.Scale, o.Seed), cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", cap),
			float64(res.Stats.Device.NANDPageWrites),
			float64(res.Stats.Device.BackfillJumps),
			res.Stats.Host.ThroughputKops)
	}
	return t, nil
}

// RunAblationBuffer sweeps the NAND page buffer entry cap under the
// DMA-heavy W(C): fewer open entries force fragmented flushes (the
// constraint §4.3 blames for Backfill's W(C) dip).
func RunAblationBuffer(o Options) (*Table, error) {
	o = o.normalized()
	t := &Table{
		ID: "ablation-buffer", Title: "NAND Page Buffer Entry Cap (Backfill, W(C), NAND on)",
		XLabel:  "buffer entries",
		Columns: []string{"nand_pages", "forced_flushes", "resp_us"},
		Notes:   []string{fmt.Sprintf("scale=%d ops", o.Scale)},
	}
	for _, entries := range []int{8, 32, 128, 512} {
		cfg := benchConfig(bandslim.Adaptive, bandslim.BackfillPacking, true)
		cfg.Device.Buffer.MaxEntries = entries
		cfg.Device.Buffer.DLTCap = entries
		res, err := runWith(workload.NewWorkloadC(o.Scale, o.Seed), cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", entries),
			float64(res.Stats.Device.NANDPageWrites),
			float64(res.Stats.Device.ForcedFlushes),
			res.Stats.Host.WriteResp.Mean.Micros())
	}
	return t, nil
}

// RunAblationAlpha sweeps the α coefficient of the adaptive method on W(M):
// larger α favours piggybacking (less traffic, more trailing-command
// latency), the user-preference dial of §3.2.
func RunAblationAlpha(o Options) (*Table, error) {
	o = o.normalized()
	t := &Table{
		ID: "ablation-alpha", Title: "Adaptive Coefficient α: traffic vs response (W(M), NAND off)",
		XLabel:  "alpha",
		Columns: []string{"traffic_MB", "resp_us", "inline_fraction"},
		Notes: []string{
			fmt.Sprintf("scale=%d ops; threshold1=128B", o.Scale),
			"α>1 trades response time for PCIe traffic reduction (§3.2)",
		},
	}
	for _, alpha := range []float64{0.25, 0.5, 1, 2, 4, 8} {
		cfg := benchConfig(bandslim.Adaptive, bandslim.Block, false)
		thr := driver.DefaultThresholds()
		thr.Alpha = alpha
		cfg.Thresholds = thr
		res, err := runWith(workload.NewWorkloadM(o.Scale, o.Seed), cfg)
		if err != nil {
			return nil, err
		}
		inline := float64(res.Stats.Adaptive.Inline) / float64(res.Ops)
		t.AddRow(fmt.Sprintf("%.2f", alpha),
			mb(res.Stats.PCIe.Bytes),
			res.Stats.Host.WriteResp.Mean.Micros(),
			inline)
	}
	return t, nil
}

// RunAblationNAND sweeps the flash array's parallelism on a page-sized
// fillseq: write responses are bound by the vLog's flush pipeline, so
// channel/way counts shift the backpressure point.
func RunAblationNAND(o Options) (*Table, error) {
	o = o.normalized()
	t := &Table{
		ID: "ablation-nand", Title: "NAND Parallelism (fillseq 16 KiB values, NAND on)",
		XLabel:  "channels x ways",
		Columns: []string{"resp_us", "Kops", "way_count"},
		Notes: []string{
			fmt.Sprintf("scale=%d ops", o.Scale),
			"flat across geometries: the vLog flush pipeline issues one page at a",
			"time (sequential append), so tPROG — not array parallelism — bounds",
			"page-sized writes; this is why Fig. 4's responses are NAND-dominated",
		},
	}
	for _, g := range []struct{ ch, ways int }{{1, 1}, {2, 2}, {4, 4}, {4, 8}, {8, 8}} {
		cfg := benchConfig(bandslim.Baseline, bandslim.Block, true)
		cfg.Device.Geometry = nand.Geometry{
			Channels:       g.ch,
			WaysPerChannel: g.ways,
			BlocksPerWay:   256,
			PagesPerBlock:  128,
			PageSize:       16 * 1024,
		}
		res, err := runWith(workload.NewFillSeq(o.Scale, 16*1024), cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%dx%d", g.ch, g.ways),
			res.Stats.Host.WriteResp.Mean.Micros(),
			res.Stats.Host.ThroughputKops,
			float64(g.ch*g.ways))
	}
	return t, nil
}

// RunAblationPipeline explores lifting the passthrough serialization the
// paper blames for piggybacking's large-value collapse (§4.2): with burst
// submission, trailing transfer commands pay a pipeline interval instead of
// a full round trip, so inline transfer stays competitive far beyond the
// 128 B threshold — and MMIO traffic shrinks to two doorbells per PUT.
func RunAblationPipeline(o Options) (*Table, error) {
	o = o.normalized()
	t := &Table{
		ID: "ablation-pipeline", Title: "Serialized vs Pipelined Piggybacking (NAND off)",
		XLabel: "value size (B)",
		Columns: []string{
			"PRP_resp_us", "PiggySerial_resp_us", "PiggyPipe_resp_us", "PiggyPipe_mmio_B_op",
		},
		Notes: []string{
			fmt.Sprintf("scale=%d ops per point", o.Scale),
			"the paper's testbed serializes commands; pipelining is the future-work fix",
		},
	}
	for _, size := range []int{32, 128, 512, 1024, 2048, 4096} {
		base, err := runWith(workload.NewFillSeq(o.Scale, size), benchConfig(bandslim.Baseline, bandslim.Block, false))
		if err != nil {
			return nil, err
		}
		serial, err := runWith(workload.NewFillSeq(o.Scale, size), benchConfig(bandslim.Piggyback, bandslim.Block, false))
		if err != nil {
			return nil, err
		}
		pipeCfg := benchConfig(bandslim.Piggyback, bandslim.Block, false)
		pipeCfg.Submission = bandslim.SubmissionConfig{QueueDepth: 1, DoorbellBatch: 64}
		pipe, err := runWith(workload.NewFillSeq(o.Scale, size), pipeCfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(sizeLabel(size),
			base.Stats.Host.WriteResp.Mean.Micros(),
			serial.Stats.Host.WriteResp.Mean.Micros(),
			pipe.Stats.Host.WriteResp.Mean.Micros(),
			float64(pipe.Stats.PCIe.MMIOBytes)/float64(pipe.Ops))
	}
	return t, nil
}

// RunScanPath measures range-scan behaviour per packing policy — an
// extension beyond the paper's point-query evaluation: densely packed vLogs
// (All/Backfill) touch fewer NAND pages per scanned value than page-unit
// packing (Block).
func RunScanPath(o Options) (*Table, error) {
	o = o.normalized()
	t := &Table{
		ID: "scan", Title: "Range Scan: NAND reads per scanned value (NAND on)",
		XLabel:  "policy",
		Columns: []string{"nand_reads_per_value", "scan_us_per_value"},
		Notes: []string{
			fmt.Sprintf("scale=%d pairs of 512 B, full scan", o.Scale),
			"dense packing amortizes one NAND page over ~30 values; Block reads a page per 4",
		},
	}
	for _, p := range []string{"Block", "All", "Backfill"} {
		cfg := benchConfig(bandslim.Adaptive, policyFor[p], true)
		db, err := bandslim.Open(cfg)
		if err != nil {
			return nil, err
		}
		gen := workload.NewFillSeq(o.Scale, 512)
		filler := workload.NewValueFiller(1)
		var buf []byte
		for {
			op, ok := gen.Next()
			if !ok {
				break
			}
			buf = filler.Fill(buf, op.ValueSize)
			if err := db.Put(op.Key, buf); err != nil {
				db.Close()
				return nil, err
			}
		}
		if err := db.Flush(); err != nil {
			db.Close()
			return nil, err
		}
		before := db.Stats()
		start := db.Now()
		it, err := db.NewIterator(nil)
		if err != nil {
			db.Close()
			return nil, err
		}
		scanned := 0
		for it.Valid() {
			scanned++
			it.Next()
		}
		if err := it.Err(); err != nil {
			db.Close()
			return nil, err
		}
		after := db.Stats()
		elapsed := db.Now().Sub(start)
		t.AddRow(p,
			float64(after.Device.NANDPageReads-before.Device.NANDPageReads)/float64(scanned),
			elapsed.Micros()/float64(scanned))
		db.Close()
	}
	return t, nil
}

// RunBreakdown decomposes the mean PUT response into its simulated
// components — wire transfer, device memcpy, and NAND flush backpressure —
// per packing policy on W(B). It makes visible *why* each policy wins or
// loses: Block drowns in flush waits, All pays memcpy, the selective
// policies pay neither.
func RunBreakdown(o Options) (*Table, error) {
	o = o.normalized()
	t := &Table{
		ID: "breakdown", Title: "PUT Response Breakdown by Packing Policy (W(B), NAND on)",
		XLabel:  "policy",
		Columns: []string{"total_us", "memcpy_us", "flushwait_us", "transfer_us"},
		Notes: []string{
			fmt.Sprintf("scale=%d ops; per-request averages", o.Scale),
			"transfer_us = total - memcpy - flushwait (wire + command round trips)",
		},
	}
	for _, p := range []string{"Block", "All", "Select", "Backfill"} {
		res, err := runWith(workload.NewWorkloadB(o.Scale, o.Seed), benchConfig(bandslim.Adaptive, policyFor[p], true))
		if err != nil {
			return nil, err
		}
		total := res.Stats.Host.WriteResp.Mean.Micros()
		memcpy := res.Stats.Device.MemcpyTime.Micros() / float64(res.Ops)
		flushWait := res.Stats.Device.FlushWaitTime.Micros() / float64(res.Ops)
		transfer := total - memcpy - flushWait
		if transfer < 0 {
			transfer = 0
		}
		t.AddRow(p, total, memcpy, flushWait, transfer)
	}
	return t, nil
}

// RunReadPath measures GET behaviour across value sizes — an extension
// beyond the paper's write-focused evaluation: read response splits into
// LSM index reads, vLog NAND reads, and the page-unit read DMA bloat that
// mirrors Problem #1 in the device-to-host direction.
func RunReadPath(o Options) (*Table, error) {
	o = o.normalized()
	t := &Table{
		ID: "read", Title: "GET Path: response and read amplification (Backfill, NAND on)",
		XLabel:  "value size (B)",
		Columns: []string{"get_resp_us", "read_traffic_B_op", "nand_reads_op"},
		Notes: []string{
			fmt.Sprintf("scale=%d pairs written, %d reads", o.Scale, o.Scale/2),
			"read DMA is page-unit: a 32B GET still moves 4 KiB device-to-host",
		},
	}
	for _, size := range []int{32, 512, 2048, 8192} {
		cfg := benchConfig(bandslim.Adaptive, bandslim.BackfillPacking, true)
		db, err := bandslim.Open(cfg)
		if err != nil {
			return nil, err
		}
		keys := make([][]byte, o.Scale)
		gen := workload.NewFillSeq(o.Scale, size)
		filler := workload.NewValueFiller(1)
		var buf []byte
		for i := 0; ; i++ {
			op, ok := gen.Next()
			if !ok {
				break
			}
			keys[i] = op.Key
			buf = filler.Fill(buf, op.ValueSize)
			if err := db.Put(op.Key, buf); err != nil {
				db.Close()
				return nil, err
			}
		}
		if err := db.Flush(); err != nil {
			db.Close()
			return nil, err
		}
		before := db.Stats()
		reads := o.Scale / 2
		for i := 0; i < reads; i++ {
			if _, err := db.Get(keys[(i*2654435761)%len(keys)]); err != nil {
				db.Close()
				return nil, err
			}
		}
		after := db.Stats()
		t.AddRow(sizeLabel(size),
			after.Host.ReadResp.Mean.Micros(),
			float64(after.PCIe.DMABytes-before.PCIe.DMABytes)/float64(reads),
			float64(after.Device.NANDPageReads-before.Device.NANDPageReads)/float64(reads))
		db.Close()
	}
	return t, nil
}
