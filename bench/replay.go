package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sort"

	"adr/internal/chunk"
	"adr/internal/core"
	"adr/internal/costmodel"
	"adr/internal/engine"
	"adr/internal/frontend"
	"adr/internal/layout"
	"adr/internal/plan"
	"adr/internal/rpc"
	"adr/internal/space"
)

// layerMetrics maps each replayed layer metric to the span that measures it:
// value = span self time / span work count, in the metric's unit (scale
// converts from nanoseconds). A span the workload never opens reads 0.
var layerMetrics = []struct {
	metric, span string
	scale        float64
}{
	{"index.search_us_per_query", "index.search", 1e-3},
	{"core.build_workload_us_per_query", "core.build_workload", 1e-3},
	{"plan.plan_us_per_query", "plan.plan", 1e-3},
	{"costmodel.select_us_per_query", "costmodel.select", 1e-3},
	{"layout.get_us_per_chunk", "layout.get", 1e-3},
	{"layout.cache_hit_us_per_chunk", "layout.cache_hit", 1e-3},
	{"layout.put_us_per_chunk", "layout.put", 1e-3},
	{"chunk.decompress_ns_per_item", "chunk.decompress", 1},
	{"chunk.decode_ns_per_item", "chunk.decode", 1},
	{"chunk.encode_ns_per_item", "chunk.encode", 1},
	{"apps.aggregate_ns_per_item", "apps.aggregate", 1},
	{"apps.combine_ns_per_cell", "apps.combine", 1},
	{"apps.accum_codec_ns_per_cell", "apps.accum_codec", 1},
	{"apps.output_ns_per_cell", "apps.output", 1},
	{"rpc.tcp_us_per_chunk_msg", "rpc.tcp", 1e-3},
	{"rpc.inproc_us_per_chunk_msg", "rpc.inproc", 1e-3},
	{"frontend.result_encode_ns_per_item", "frontend.result_encode", 1},
	{"frontend.result_decode_ns_per_item", "frontend.result_decode", 1},
	{"engine.inproc_run_ms_per_query", "engine.inproc_run", 1e-6},
	{"engine.serial_ms_per_query", "engine.serial", 1e-6},
}

const pingMessages = 2000

// replay is part (b) of the traced pass: for the first n queries of the
// workload's sequence it calls each layer's exported functions serially on
// the workload's own chunks, one span per call site, all children of the
// query's span. The stack must be closed: the replay reads the farm through
// the benchmark's own handle and writes only to scratchDir.
func replay(cat *catalog, w *workload, seed int64, n int, tr *tracer, scratchDir string, m map[string]float64) error {
	ctx := context.Background()
	planner, err := plan.NewPlanner(cat.machine)
	if err != nil {
		return err
	}
	simMachine, simCosts := (&costmodel.Calibration{}).Model(cat.machine.Procs, cat.farm.DisksPerNode)
	// One resident copy of every chunk the replay touches, for the hit path.
	cache := layout.NewChunkCache(1 << 40)
	cached := make([]*layout.CachedStore, cat.farm.NumDisks())
	for d := range cached {
		st, err := cat.farm.Store(d)
		if err != nil {
			return err
		}
		cached[d] = layout.NewCachedStore(st, cache)
	}
	scratch, err := layout.NewFileStore(scratchDir)
	if err != nil {
		return err
	}
	defer scratch.Close()
	compressed := cat.in.Codec != chunk.CodecNone
	var hits, decodeAllocs, decodeChunks, wireBytes, wireItems int64

	for i := 0; i < n; i++ {
		cfg, err := cat.serialConfig(w, seed, i)
		if err != nil {
			return err
		}
		box := w.box(seed, i)
		q := tr.begin("replay.query", i, -1)

		id := tr.begin("index.search", i, q)
		hits += int64(len(cat.in.Select(box)) + len(cat.out.Select(box)))
		tr.end(id, 1)

		id = tr.begin("core.build_workload", i, q)
		wl, err := core.BuildWorkload(cat.in, cat.out, box, box, space.IdentityMapper{})
		tr.end(id, 1)
		if err != nil {
			return err
		}

		id = tr.begin("plan.plan", i, q)
		_, err = planner.Plan(cfg.Plan.Strategy, wl)
		tr.end(id, 1)
		if err != nil {
			return err
		}

		id = tr.begin("costmodel.select", i, q)
		_, _, err = costmodel.Select(wl, cat.machine, simMachine, simCosts, nil)
		tr.end(id, 1)
		if err != nil {
			return err
		}

		// Store read, no cache.
		stored := make([][]byte, len(wl.Inputs))
		id = tr.begin("layout.get", i, q)
		for k, meta := range wl.Inputs {
			if stored[k], err = cached[meta.Disk].Store.Get(cat.in.Name, meta.ID); err != nil {
				return err
			}
		}
		tr.end(id, int64(len(wl.Inputs)))

		// Cache hit: make every chunk resident, then time the hits alone.
		for _, meta := range wl.Inputs {
			if _, err := cached[meta.Disk].Get(cat.in.Name, meta.ID); err != nil {
				return err
			}
		}
		id = tr.begin("layout.cache_hit", i, q)
		for _, meta := range wl.Inputs {
			if _, hit, err := cached[meta.Disk].GetCached(cat.in.Name, meta.ID); err != nil || !hit {
				return fmt.Errorf("replay: chunk %d not served from cache (err %v)", meta.ID, err)
			}
		}
		tr.end(id, int64(len(wl.Inputs)))

		var inItems int64
		for _, meta := range wl.Inputs {
			inItems += int64(meta.Items)
		}
		raw := stored
		if compressed {
			raw = make([][]byte, len(stored))
			id = tr.begin("chunk.decompress", i, q)
			for k := range stored {
				if raw[k], err = chunk.Decompress(stored[k]); err != nil {
					return err
				}
			}
			tr.end(id, inItems)
		}

		decoded := make([]*chunk.Chunk, len(raw))
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		id = tr.begin("chunk.decode", i, q)
		for k := range raw {
			if decoded[k], err = chunk.Decode(raw[k]); err != nil {
				return err
			}
		}
		tr.end(id, inItems)
		runtime.ReadMemStats(&ms1)
		decodeAllocs += int64(ms1.Mallocs - ms0.Mallocs)
		decodeChunks += int64(len(raw))

		// Aggregation service: one accumulator per selected output chunk.
		app := cfg.App
		cells := int64(w.Cells * w.Cells * len(wl.Outputs))
		accs := make([]engine.Accumulator, len(wl.Outputs))
		for o, meta := range wl.Outputs {
			if accs[o], err = app.Init(meta, nil, false); err != nil {
				return err
			}
		}
		var aggItems int64
		id = tr.begin("apps.aggregate", i, q)
		for k, c := range decoded {
			for _, o := range wl.Targets[k] {
				if err := app.Aggregate(accs[o], wl.Outputs[o], c); err != nil {
					return err
				}
				aggItems += int64(len(c.Items))
			}
		}
		tr.end(id, aggItems)

		ghosts := make([]engine.Accumulator, len(accs))
		id = tr.begin("apps.accum_codec", i, q)
		for o, meta := range wl.Outputs {
			data, err := app.EncodeAccum(accs[o], meta)
			if err == nil {
				ghosts[o], err = app.DecodeAccum(data, meta)
			}
			if err != nil {
				return err
			}
		}
		tr.end(id, cells)

		homes := make([]engine.Accumulator, len(accs))
		for o, meta := range wl.Outputs {
			if homes[o], err = app.Init(meta, nil, false); err != nil {
				return err
			}
		}
		id = tr.begin("apps.combine", i, q)
		for o, meta := range wl.Outputs {
			if err := app.Combine(homes[o], ghosts[o], meta); err != nil {
				return err
			}
		}
		tr.end(id, cells)

		outs := make([]*chunk.Chunk, len(accs))
		var outItems int64
		id = tr.begin("apps.output", i, q)
		for o, meta := range wl.Outputs {
			if outs[o], err = app.Output(homes[o], meta); err != nil {
				return err
			}
		}
		tr.end(id, cells)
		for o, c := range outs {
			c.Meta.ID, c.Meta.Dataset = wl.Outputs[o].ID, rasterName
			outItems += int64(len(c.Items))
		}

		encoded := make([][]byte, len(outs))
		id = tr.begin("chunk.encode", i, q)
		for o, c := range outs {
			encoded[o] = chunk.Encode(c)
		}
		tr.end(id, outItems)

		id = tr.begin("layout.put", i, q)
		for o, c := range outs {
			if err := scratch.Put("replay", c.Meta.ID, encoded[o]); err != nil {
				return err
			}
		}
		tr.end(id, int64(len(outs)))

		// Result framing as the daemons write it and the client reads it.
		var wire bytes.Buffer
		id = tr.begin("frontend.result_encode", i, q)
		for _, c := range outs {
			if err := frontend.WriteJSON(&wire, &frontend.Message{Type: "chunk", Chunk: frontend.ToChunkJSON(c)}); err != nil {
				return err
			}
		}
		tr.end(id, outItems)
		wireBytes += int64(wire.Len())
		wireItems += outItems
		rd := bufio.NewReader(&wire)
		id = tr.begin("frontend.result_decode", i, q)
		for range outs {
			var msg frontend.Message
			if err := frontend.ReadJSON(rd, &msg); err != nil {
				return err
			}
			if _, err := frontend.FromChunkJSON(msg.Chunk); err != nil {
				return err
			}
		}
		tr.end(id, outItems)

		// The engine without the daemon stack, then without parallelism.
		cfg.ResultDataset = ""
		cfg.OnResult = func(rpc.NodeID, *chunk.Chunk) error { return nil }
		id = tr.begin("engine.inproc_run", i, q)
		fabric, err := rpc.NewInprocFabric(cat.machine.Procs, 0)
		if err == nil {
			_, err = engine.Run(ctx, cfg, fabric, engine.FarmStorage{Farm: cat.farm})
			fabric.Close()
		}
		tr.end(id, 1)
		if err != nil {
			return err
		}
		id = tr.begin("engine.serial", i, q)
		_, err = engine.RunSerial(cfg.WithSerialStorage(engine.FarmStorage{Farm: cat.farm}))
		tr.end(id, 1)
		if err != nil {
			return err
		}
		tr.end(q, 1)
	}

	// Both transports at the workload's median stored chunk size.
	sizes := make([]int, len(cat.in.Chunks))
	for k := range cat.in.Chunks {
		sizes[k] = int(cat.in.Chunks[k].StoredOrRaw())
	}
	sort.Ints(sizes)
	size := sizes[len(sizes)/2]
	mesh, err := rpc.NewLoopbackMesh(2, rpc.TCPOptions{})
	if err != nil {
		return err
	}
	err = ping(ctx, tr, "rpc.tcp", mesh, size)
	mesh.Close()
	if err != nil {
		return err
	}
	inproc, err := rpc.NewInprocFabric(2, 0)
	if err != nil {
		return err
	}
	err = ping(ctx, tr, "rpc.inproc", inproc, size)
	inproc.Close()
	if err != nil {
		return err
	}

	selfNs, count := tr.layerTotals()
	for _, lm := range layerMetrics {
		m[lm.metric] = 0
		if c := count[lm.span]; c > 0 {
			m[lm.metric] = float64(selfNs[lm.span]) / float64(c) * lm.scale
		}
	}
	m["index.hits_per_query"] = float64(hits) / float64(n)
	m["chunk.decode_allocs_per_chunk"] = float64(decodeAllocs) / float64(decodeChunks)
	m["rpc.tcp_mb_per_s"] = float64(size) / (m["rpc.tcp_us_per_chunk_msg"] * 1e-6) / 1e6
	m["frontend.result_wire_bytes_per_item"] = float64(wireBytes) / float64(wireItems)
	return nil
}

// ping times pingMessages one-way chunk-sized messages 0 -> 1 over a fabric:
// send, receive, release, one at a time.
func ping(ctx context.Context, tr *tracer, name string, f rpc.Fabric, size int) error {
	src, err := f.Endpoint(0)
	if err != nil {
		return err
	}
	dst, err := f.Endpoint(1)
	if err != nil {
		return err
	}
	payload := make([]byte, size)
	id := tr.begin(name, -1, -1)
	for k := 0; k < pingMessages; k++ {
		if err := src.Send(rpc.Message{Src: 0, Dst: 1, Type: 1, Seq: int32(k), Payload: payload}); err != nil {
			return err
		}
		msg, err := dst.Recv(ctx)
		if err != nil {
			return err
		}
		msg.Release()
	}
	tr.end(id, pingMessages)
	return nil
}
