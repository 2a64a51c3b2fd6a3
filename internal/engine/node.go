package engine

import (
	"context"
	"fmt"
	"sync"
	"time"

	"adr/internal/bufpool"
	"adr/internal/chunk"
	"adr/internal/metrics"
	"adr/internal/plan"
	"adr/internal/rpc"
)

// node is one back-end processor executing its share of a plan.
type node struct {
	cfg  *Config
	self rpc.NodeID
	// ep is the query's view of the mesh: it sends, and what the mesh sends
	// this node arrives in ep.mbox, put there by the view's Dispatcher.
	ep  *QueryEndpoint
	st  ChunkStorage
	met *metrics.Node
	// onStall attributes flow-control credit stalls to this node's trace;
	// installed on every outbound message (one shared closure, so the send
	// hot path does not allocate one per message).
	onStall func(time.Duration)
	// share[t] is what the plan makes this node allocate, read, send and
	// wait for in tile t (plan.ShareOf: this node's share only).
	share []plan.Share
}

// RunNodeTraced executes one node's share of the configured query and
// returns its per-phase trace (NodeTrace.Totals carries the flat counters);
// the daemons return it to the front-end. All nodes of the fabric must run
// the same Config; the call completes when this node has emitted every
// output chunk it is responsible for.
//
// The node receives from the Dispatcher-owned mailbox behind ep: the
// caller claims the query's view with Dispatcher.Endpoint and releases it
// afterwards. A failure — this node's own, a peer's abort, or the death of a
// peer that cfg.Exclude does not list — is broadcast to the mesh as an abort
// and returned; one that traces back to a death is retryable (IsRetryable).
func RunNodeTraced(ctx context.Context, cfg Config, ep *QueryEndpoint, st ChunkStorage) (metrics.NodeTrace, error) {
	if err := cfg.Validate(); err != nil {
		return metrics.NodeTrace{}, err
	}
	start := time.Now()
	n := &node{
		cfg:  &cfg,
		self: ep.Self(),
		ep:   ep,
		st:   st,
		met:  &metrics.Node{},
	}
	n.onStall = func(d time.Duration) {
		n.met.CreditStalls.Add(1)
		n.met.CreditStallNanos.Add(d.Nanoseconds())
	}
	n.share = plan.ShareOf(cfg.Plan, cfg.Workload, int32(n.self))

	err := ep.watch(cfg.Exclude)
	if err == nil {
		err = n.runTiles(ctx)
	}
	if err != nil {
		// Tell the mesh before returning: peers blocked on this node's
		// messages must fail within their deadline, not hang.
		n.abortPeers(err)
	}
	n.recordTotals()

	tr := n.met.Trace(int(n.self), len(cfg.Plan.Tiles), time.Since(start))
	tr.Workers = cfg.workers()
	if len(cfg.Exclude) > 0 {
		tr.Degraded = true
		tr.Excluded = make([]int, len(cfg.Exclude))
		for i, id := range cfg.Exclude {
			tr.Excluded[i] = int(id)
		}
	}
	return tr, err
}

// runTiles advances this node through every tile of the plan.
func (n *node) runTiles(ctx context.Context) error {
	for t := range n.cfg.Plan.Tiles {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := n.runTile(ctx, int32(t)); err != nil {
			return fmt.Errorf("engine: node %d tile %d: %w", n.self, t, err)
		}
	}
	return nil
}

// Process-wide engine counters, rolled up from each node run's snapshot so
// the /metrics surface shows cumulative engine traffic without touching the
// per-query hot path.
var (
	engRuns      = metrics.Default.Counter("adr_engine_node_runs_total")
	engChunks    = metrics.Default.Counter("adr_engine_chunks_read_total")
	engBytesRead = metrics.Default.Counter("adr_engine_bytes_read_total")
	engBytesSent = metrics.Default.Counter("adr_engine_bytes_sent_total")
	engBytesRecv = metrics.Default.Counter("adr_engine_bytes_recv_total")
	engAggOps    = metrics.Default.Counter("adr_engine_agg_ops_total")
	// Pipeline counters: cumulative across workers, so they exceed wall time
	// on multi-worker runs (divide by adr_engine_node_runs_total × workers
	// for a per-worker view).
	engDecodeNS    = metrics.Default.Counter("adr_engine_decode_nanos_total")
	engQueueWaitNS = metrics.Default.Counter("adr_engine_queue_wait_nanos_total")
	engCompBytes   = metrics.Default.Counter("adr_engine_compressed_bytes_total")
	engPhaseNS     = [4]*metrics.Counter{
		metrics.Default.Counter(`adr_engine_phase_nanos_total{phase="I"}`),
		metrics.Default.Counter(`adr_engine_phase_nanos_total{phase="LR"}`),
		metrics.Default.Counter(`adr_engine_phase_nanos_total{phase="GC"}`),
		metrics.Default.Counter(`adr_engine_phase_nanos_total{phase="OH"}`),
	}
)

// recordTotals folds this node run's counters into the process-wide
// registry.
func (n *node) recordTotals() {
	s := n.met.Snapshot()
	engRuns.Inc()
	engChunks.Add(s.ChunksRead)
	engBytesRead.Add(s.BytesRead)
	engBytesSent.Add(s.BytesSent)
	engBytesRecv.Add(s.BytesRecv)
	engAggOps.Add(s.AggOps)
	engCompBytes.Add(s.CompressedBytes)
	engDecodeNS.Add(s.DecodeNanos)
	engQueueWaitNS.Add(s.QueueWaitNanos)
	for p, ns := range s.PhaseNanos {
		engPhaseNS[p].Add(ns)
	}
}

// runTile advances this node through the four §2.4 phases for one tile.
// The context bounds every blocking wait, so a caller-imposed deadline
// aborts the tile rather than letting it block in mbox.take forever.
func (n *node) runTile(ctx context.Context, t int32) error {
	accs, err := n.phaseInit(ctx, t)
	if err != nil {
		return fmt.Errorf("initialization: %w", err)
	}
	// One lock per held accumulator, shared by the local-reduction and
	// global-combine pools; the accs map itself is only mutated between
	// phases (ghost deletions in GC, local deletions in OH), never while a
	// pool's workers are reading it.
	locks := accumLocks(accs)
	if err := n.phaseLocalReduction(ctx, t, accs, locks); err != nil {
		return fmt.Errorf("local reduction: %w", err)
	}
	if err := n.phaseGlobalCombine(ctx, t, accs, locks); err != nil {
		return fmt.Errorf("global combine: %w", err)
	}
	if err := n.phaseOutput(ctx, t, accs); err != nil {
		return fmt.Errorf("output handling: %w", err)
	}
	return nil
}

// exchange is the one shape of a phase's communication: send issues the
// phase's sends on its own goroutine while the calling goroutine consumes
// exactly expect messages of type typ for tile t, handing each to recv; the
// two halves are joined, and whichever fails first is the failure l records
// (it also cancels l.ctx, which stops the other half's waits). Keeping the
// halves apart is §12's deadlock-freedom invariant: on a flow-controlled
// fabric a send can block on credit, and consuming inbound traffic is exactly
// what returns credit to the peers — a node that sent before it received
// would deadlock against a peer doing the same the moment the windows are
// smaller than the phase's traffic. recv owns the message it is handed.
func (n *node) exchange(l *latch, p metrics.Phase, t int32, typ uint8, expect int, send func() error, recv func(rpc.Message) error) {
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		l.fail(send())
	}()
	for k := 0; k < expect; k++ {
		msg, err := n.ep.mbox.take(l.ctx, t, typ)
		if err == nil {
			n.met.AddRecv(p, int64(len(msg.Payload)))
			err = recv(msg)
		}
		if err != nil {
			l.fail(err)
			break
		}
	}
	<-sent
}

// phaseInit allocates and initializes the accumulator chunks this node
// holds for the tile (locals it homes plus ghosts), retrieving and
// forwarding existing output chunks when the app requires them.
func (n *node) phaseInit(ctx context.Context, t int32) (map[int32]Accumulator, error) {
	w, sh := n.cfg.Workload, &n.share[t]
	existing := make(map[int32]*chunk.Chunk)

	// initMsgs holds received init messages alive while the decoded chunks
	// alias their payloads; they are released the moment the App.Init loop
	// has copied what it needs (and on every error path out of the phase).
	var initMsgs []rpc.Message
	defer func() { releaseAll(initMsgs) }()

	if n.cfg.App.InitRequiresOutput() {
		l := newLatch(ctx)
		defer l.cancel()
		ownerExisting := make(map[int32]*chunk.Chunk)
		n.exchange(l, metrics.Initialization, t, msgOutputInit, sh.ExpectInits, func() error {
			// Owner duties: read each owned output chunk in the tile from local
			// disk and forward it to every other holder of a replica.
			for k, o := range sh.Owned {
				var payload []byte
				if n.st.HasChunk(n.cfg.OutputDataset, w.Outputs[o]) {
					data, err := n.readChunk(metrics.Initialization, n.cfg.OutputDataset, w.Outputs[o])
					if err != nil {
						return fmt.Errorf("read existing output %d: %w", o, err)
					}
					payload = data
					c, err := n.decodeWhole(data)
					if err != nil {
						return fmt.Errorf("decode existing output %d: %w", o, err)
					}
					ownerExisting[o] = c
				}
				for _, h := range sh.InitHolders[k] {
					if rpc.NodeID(h) == n.self {
						continue
					}
					if err := n.send(metrics.Initialization, rpc.Message{
						Src: n.self, Dst: rpc.NodeID(h), Type: msgOutputInit, Tile: t, Seq: o,
						Payload: payload,
					}); err != nil {
						return err
					}
				}
			}
			return nil
		}, func(msg rpc.Message) error {
			// Replica duties: existing chunks for allocations whose owner is
			// remote.
			initMsgs = append(initMsgs, msg)
			if len(msg.Payload) > 0 {
				c, err := n.decodeWhole(msg.Payload)
				if err != nil {
					return fmt.Errorf("decode output-init %d: %w", msg.Seq, err)
				}
				existing[msg.Seq] = c
			}
			return nil
		})
		if l.err != nil {
			return nil, l.err
		}
		// The send half has been joined; merging its reads is race-free.
		for o, c := range ownerExisting {
			existing[o] = c
		}
	}

	accs := make(map[int32]Accumulator)
	start := time.Now()
	for _, o := range sh.Locals {
		acc, err := n.cfg.App.Init(w.Outputs[o], existing[o], false)
		if err != nil {
			return nil, fmt.Errorf("init output %d: %w", o, err)
		}
		accs[o] = acc
	}
	for _, o := range sh.Ghosts {
		acc, err := n.cfg.App.Init(w.Outputs[o], existing[o], true)
		if err != nil {
			return nil, fmt.Errorf("init ghost %d: %w", o, err)
		}
		accs[o] = acc
	}
	n.met.AddPhase(metrics.Initialization, time.Since(start))
	// Init copies what it keeps, so the deferred release of initMsgs (credits
	// back to the owners, pooled payloads recycled) is safe from here on.
	return accs, nil
}

// readChunk reads a local chunk through the storage and does all of a
// read's accounting: its bytes go to phase p, a cache hit is counted, and a
// miss is timed as a disk read.
func (n *node) readChunk(p metrics.Phase, dataset string, m chunk.Meta) ([]byte, error) {
	if len(m.Holders) > 0 && m.Disk != m.Holders[0] {
		// The meta was remapped off its primary copy by plan.Degrade: this
		// read is being served by a surviving replica holder.
		n.met.ReplicaFallbackReads.Add(1)
	}
	start := time.Now()
	data, hit, err := n.st.ReadChunkCached(dataset, m)
	if err != nil {
		return nil, err
	}
	n.met.AddRead(p, int64(len(data)))
	if hit {
		n.met.CacheHits.Add(1)
	} else {
		// Time only the reads that actually hit storage: this ratio is
		// the node's observed disk bandwidth (costmodel.Calibration).
		n.met.DiskReadNanos.Add(time.Since(start).Nanoseconds())
		n.met.DiskReadBytes.Add(int64(len(data)))
	}
	return data, nil
}

// decodePooled decodes a possibly-compressed payload on a pool worker, so
// decompression overlaps aggregation exactly like decoding does; both are
// timed into DecodeNanos, and the compressed volume lands in
// CompressedBytes. A compressed payload decompresses into a bufpool scratch
// buffer, returned for the caller to Put after its last use of v, which may
// alias it (nil for raw payloads, and on error).
func decodePooled[T any](n *node, data []byte, decode func(raw []byte) (T, error)) (v T, scratch []byte, err error) {
	start := time.Now()
	raw := data
	if chunk.IsCompressed(data) {
		n.met.CompressedBytes.Add(int64(len(data)))
		scratch = bufpool.Get(chunk.RawLen(data))[:0]
		if raw, err = chunk.DecompressTo(scratch, data); err == nil {
			scratch = raw
		}
	}
	if err == nil {
		v, err = decode(raw)
	}
	if err != nil {
		bufpool.Put(scratch)
		scratch = nil
	}
	n.met.DecodeNanos.Add(time.Since(start).Nanoseconds())
	return v, scratch, err
}

// lrChunks recycles the chunks local-reduction workers decode into: a
// worker decodes each input with chunk.DecodeInto into one taken from here
// and puts it back once every Aggregate call on it has returned, so the hot
// path stops allocating and zeroing a fresh []chunk.Item per chunk. Only
// that path uses it; a chunk that may escape (init chunks, shipped finals,
// RunSerial) is decoded fresh. A chunk in the pool still points at the
// payload it last aliased, which stays reachable until the chunk is reused
// or the pool is emptied at a collection.
var lrChunks = sync.Pool{New: func() any { return new(chunk.Chunk) }}

// decodeWhole decodes a possibly-compressed stored payload on a cold path
// (existing output chunks for init) where the decoded chunk may outlive the
// call: decompression allocates a garbage-collected buffer instead of pooled
// scratch.
func (n *node) decodeWhole(data []byte) (*chunk.Chunk, error) {
	if chunk.IsCompressed(data) {
		n.met.CompressedBytes.Add(int64(len(data)))
	}
	return chunk.DecodeAny(data)
}

// phaseLocalReduction retrieves this node's local input chunks, forwards
// each to its remote homes, aggregates it into every allocated target
// accumulator of the tile, and folds in the input chunks other nodes forward
// here. A read with no target allocated here (ReadPairs 0: DA and HYBRID) is
// only forwarded, never decoded.
//
// The phase is one exchange. Its send half runs one reader per local disk
// (§2.2: nodes have multiple disks attached; chunks on different disks are
// read in parallel), each reading its disk's chunks in plan order. Both
// sources — the local reads and forwarded chunks from the mailbox — feed one
// worker pool, so a remote chunk is decoded and aggregated the moment it
// arrives instead of waiting for local reads to drain, and Config.Workers
// chunks are processed concurrently under per-output locks.
func (n *node) phaseLocalReduction(ctx context.Context, t int32, accs map[int32]Accumulator, locks map[int32]*sync.Mutex) error {
	p, w, sh := n.cfg.Plan, n.cfg.Workload, &n.share[t]

	pl := newPool(ctx, n.cfg.workers(), n.met, func(wk work) error {
		// Decompress (when the chunk is stored as an envelope) and
		// decode on the worker, into a recycled chunk; the chunk and the
		// scratch buffer both recycle once the aggregation loop below is
		// done with the decoded items aliasing them (App.Aggregate retains
		// neither).
		c := lrChunks.Get().(*chunk.Chunk)
		defer lrChunks.Put(c)
		_, scratch, err := decodePooled(n, wk.data, func(raw []byte) (*chunk.Chunk, error) {
			return c, chunk.DecodeInto(c, raw)
		})
		if err != nil {
			kind := "input"
			if wk.rel != nil {
				kind = "forwarded input"
			}
			return fmt.Errorf("decode %s %d: %w", kind, wk.seq, err)
		}
		defer bufpool.Put(scratch)
		for _, o := range w.Targets[wk.seq] {
			if p.TileOf[o] != t {
				continue
			}
			acc, ok := accs[o]
			if !ok {
				continue
			}
			start := time.Now()
			mu := locks[o]
			mu.Lock()
			err := n.cfg.App.Aggregate(acc, w.Outputs[o], c)
			mu.Unlock()
			if err != nil {
				return fmt.Errorf("aggregate input %d into output %d: %w", wk.seq, o, err)
			}
			n.met.AggOps.Add(1)
			n.met.AddPhase(metrics.LocalReduction, time.Since(start))
		}
		return nil
	})

	// One queue per disk: positions in sh.Reads, in retrieval order.
	byDisk := make(map[int32][]int)
	for k, i := range sh.Reads {
		d := w.Inputs[i].Disk
		byDisk[d] = append(byDisk[d], k)
	}
	n.exchange(pl.latch, metrics.LocalReduction, t, msgInputChunk, sh.ExpectInputs, func() error {
		var readers sync.WaitGroup
		for _, queue := range byDisk {
			readers.Add(1)
			go func() {
				defer readers.Done()
				pl.fail(n.readDisk(pl, t, queue))
			}()
		}
		readers.Wait()
		return nil
	}, pl.deliver)
	return pl.wait()
}

// readDisk is one disk's reader in local reduction: it reads the chunks at
// queue's positions in sh.Reads in order, sends each to its remote homes and
// then submits it to the pool if it has targets allocated here. Sending
// before aggregating lets remote homes overlap their processing with ours;
// the buffer is shared (storage data is immutable here, the zero-copy path
// §2.4 argues for), and the send only reads it. A send blocked on credit
// stops this disk alone while the receive half and the pool keep consuming,
// which is what returns the credit.
func (n *node) readDisk(pl *pool, t int32, queue []int) error {
	w, sh := n.cfg.Workload, &n.share[t]
	for _, k := range queue {
		if err := pl.ctx.Err(); err != nil {
			return err
		}
		i := sh.Reads[k]
		data, err := n.readChunk(metrics.LocalReduction, n.cfg.InputDataset, w.Inputs[i])
		if err != nil {
			return fmt.Errorf("read input %d: %w", i, err)
		}
		if to := sh.Dests(k); len(to) > 0 {
			// A chunk travels as it is stored, raw or enveloped, so the
			// flow-control credits charge its stored bytes.
			for _, dst := range to {
				if err := n.send(metrics.LocalReduction, rpc.Message{
					Src: n.self, Dst: rpc.NodeID(dst.To), Type: msgInputChunk, Tile: t, Seq: i,
					Payload: data,
				}); err != nil {
					return err
				}
			}
		}
		// A chunk none of whose targets is allocated here in this tile is
		// only forwarded: decoding it would be wasted work.
		if sh.ReadPairs[k] > 0 && !pl.submit(work{seq: i, data: data}) {
			return nil // the pool has failed; submit recorded why
		}
	}
	return nil
}

// phaseGlobalCombine sends this node's ghost accumulators to their homes
// and combines the ghosts other nodes send here into the final values.
// Inbound ghosts are decoded and combined on the worker pool — decode
// dominates for large accumulators, and ghosts for different outputs never
// contend (per-output locks serialize only same-output combines).
func (n *node) phaseGlobalCombine(ctx context.Context, t int32, accs map[int32]Accumulator, locks map[int32]*sync.Mutex) error {
	p, w, sh := n.cfg.Plan, n.cfg.Workload, &n.share[t]
	if len(sh.Ghosts) == 0 && sh.ExpectGhosts == 0 {
		return nil // a tile without replicas (DA, HYBRID) has nothing to combine
	}

	// Ghost deletions mutate accs; they complete before the pool's workers
	// (and the send half) start reading the map.
	ghosts := make([]Accumulator, len(sh.Ghosts))
	for k, o := range sh.Ghosts {
		ghosts[k] = accs[o]
		delete(accs, o) // ghost memory is released after the send
	}

	pl := newPool(ctx, n.cfg.workers(), n.met, func(wk work) error {
		o := wk.seq
		dst, ok := accs[o]
		if !ok {
			return fmt.Errorf("ghost for output %d arrived but no local accumulator", o)
		}
		src, scratch, err := decodePooled(n, wk.data, func(raw []byte) (Accumulator, error) {
			return n.cfg.App.DecodeAccum(raw, w.Outputs[o])
		})
		if err != nil {
			return fmt.Errorf("decode ghost %d: %w", o, err)
		}
		defer bufpool.Put(scratch)
		start := time.Now()
		mu := locks[o]
		mu.Lock()
		err = n.cfg.App.Combine(dst, src, w.Outputs[o])
		mu.Unlock()
		if err != nil {
			return fmt.Errorf("combine ghost %d: %w", o, err)
		}
		n.met.CombineOps.Add(1)
		n.met.AddPhase(metrics.GlobalCombine, time.Since(start))
		return nil
	})
	n.exchange(pl.latch, metrics.GlobalCombine, t, msgGhostAccum, sh.ExpectGhosts, func() error {
		for k, o := range sh.Ghosts {
			start := time.Now()
			data, err := n.cfg.App.EncodeAccum(ghosts[k], w.Outputs[o])
			if err != nil {
				return fmt.Errorf("encode ghost %d: %w", o, err)
			}
			n.met.AddPhase(metrics.GlobalCombine, time.Since(start))
			if err := n.send(metrics.GlobalCombine, rpc.Message{
				Src: n.self, Dst: rpc.NodeID(p.Home[o]), Type: msgGhostAccum, Tile: t, Seq: o,
				Payload: data,
			}); err != nil {
				return err
			}
		}
		return nil
	}, pl.deliver)
	return pl.wait()
}

// phaseOutput finalizes this node's homed accumulators into output chunks,
// ships homed-away chunks to their owners, and emits everything this node
// owns. All emit calls — local outputs and shipped finals alike — stay on
// the phase goroutine, so a result callback sees one node's results
// serially.
func (n *node) phaseOutput(ctx context.Context, t int32, accs map[int32]Accumulator) error {
	w, sh := n.cfg.Workload, &n.share[t]

	// output finalizes one homed accumulator; accs is only read (never
	// mutated) until both halves of the phase have finished.
	output := func(o int32) (*chunk.Chunk, error) {
		start := time.Now()
		out, err := n.cfg.App.Output(accs[o], w.Outputs[o])
		if err != nil {
			return nil, fmt.Errorf("output %d: %w", o, err)
		}
		n.finalizeMeta(out, o)
		n.met.AddPhase(metrics.OutputHandling, time.Since(start))
		return out, nil
	}
	var remoteOwned []int32
	for _, o := range sh.Locals {
		if rpc.NodeID(w.Outputs[o].Node) != n.self {
			remoteOwned = append(remoteOwned, o)
			continue
		}
		out, err := output(o)
		if err != nil {
			return err
		}
		if err := n.emit(out); err != nil {
			return fmt.Errorf("emit output %d: %w", o, err)
		}
	}

	l := newLatch(ctx)
	defer l.cancel()
	n.exchange(l, metrics.OutputHandling, t, msgFinalOutput, sh.ExpectFinals, func() error {
		for _, o := range remoteOwned {
			out, err := output(o)
			if err != nil {
				return err
			}
			// Encode into a pooled buffer: the transport owns and recycles
			// it — once the frame is on the wire for TCP, when the receiver
			// releases it in-process.
			payload := chunk.AppendTo(out, bufpool.Get(chunk.EncodedSize(out))[:0])
			if err := n.send(metrics.OutputHandling, rpc.Message{
				Src: n.self, Dst: rpc.NodeID(w.Outputs[o].Node), Type: msgFinalOutput, Tile: t, Seq: o,
				Payload: payload, Pooled: true,
			}); err != nil {
				return err
			}
		}
		return nil
	}, func(msg rpc.Message) error {
		out, err := chunk.Decode(msg.Payload)
		if err != nil {
			msg.Release()
			return fmt.Errorf("decode final output %d: %w", msg.Seq, err)
		}
		err = n.emit(out)
		if n.cfg.OnResult != nil {
			// The result callback may retain the decoded chunk, whose
			// items alias the payload: return the credit but hand the
			// bytes over to the retainer (and the GC).
			msg.ReleaseKeep()
		} else {
			msg.Release()
		}
		if err != nil {
			return fmt.Errorf("emit shipped output %d: %w", msg.Seq, err)
		}
		return nil
	})
	for _, o := range sh.Locals {
		delete(accs, o)
	}
	return l.err
}

// finalizeMeta stamps engine-owned metadata onto a finished chunk.
func (n *node) finalizeMeta(out *chunk.Chunk, o int32) {
	src := n.cfg.Workload.Outputs[o]
	out.Meta.ID = src.ID
	out.Meta.Disk = src.Disk
	out.Meta.Node = src.Node
	out.Meta.Items = int32(len(out.Items))
	if n.cfg.ResultDataset != "" {
		out.Meta.Dataset = n.cfg.ResultDataset
	} else {
		out.Meta.Dataset = src.Dataset
	}
	if out.Meta.MBR.IsEmpty() {
		out.Meta.MBR = src.MBR
	}
}

// emit delivers a finished output chunk at its owner: written back to the
// owner's disk (new datasets are declustered to the source output chunk's
// disk; updates overwrite in place) and/or handed to the result callback.
func (n *node) emit(out *chunk.Chunk) error {
	if n.cfg.ResultDataset != "" {
		data := chunk.Encode(out)
		out.Meta.Bytes = int64(len(data))
		out.Meta.StoredBytes = 0
		if err := n.st.WriteChunk(n.cfg.ResultDataset, out.Meta, data); err != nil {
			return err
		}
		n.met.BytesWritten.Add(int64(len(data)))
	}
	if n.cfg.OnResult != nil {
		return n.cfg.OnResult(n.self, out)
	}
	return nil
}

// send transmits m, attributing the traffic to the phase issuing it.
func (n *node) send(p metrics.Phase, m rpc.Message) error {
	m.OnStall = n.onStall
	bytes := int64(len(m.Payload))
	start := time.Now()
	if err := n.ep.Send(m); err != nil {
		return fmt.Errorf("send %s to %d: %w", msgTypeName(uint8(m.Type)), m.Dst, err)
	}
	n.met.NetSendNanos.Add(time.Since(start).Nanoseconds())
	n.met.AddSent(p, bytes)
	return nil
}
