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
	ep   rpc.Endpoint
	st   ChunkStorage
	met  *metrics.Node
	mbox *mailbox
	// onStall attributes flow-control credit stalls to this node's trace;
	// installed on every outbound message (one shared closure, so the send
	// hot path does not allocate one per message).
	onStall func(time.Duration)
	// scan is this node's shared-scan membership (nil outside a batch):
	// readChunk routes demand-registered reads through it so overlapping
	// concurrent queries fetch each chunk once.
	scan *ScanMember

	// share[t] is what the plan makes this node allocate, read, send and
	// wait for in tile t (plan.ShareOf: this node's share only).
	share []plan.Share

	// attempts counts degraded-mode execution attempts (0 on non-degraded
	// runs, >= 1 on degraded ones); excluded is the final exclusion set the
	// node completed with. Both surface on the NodeTrace.
	attempts int
	excluded []rpc.NodeID
}

// RunNodeTraced executes one node's share of the configured query and
// returns its per-phase trace (NodeTrace.Totals carries the flat counters);
// the daemons return it to the front-end. All nodes of the fabric must run
// the same Config; the call completes when this node has emitted every
// output chunk it is responsible for.
func RunNodeTraced(ctx context.Context, cfg Config, ep rpc.Endpoint, st ChunkStorage) (metrics.NodeTrace, error) {
	n, wall, err := runNode(ctx, cfg, ep, st)
	if n == nil {
		return metrics.NodeTrace{}, err
	}
	tr := n.met.Trace(int(ep.Self()), len(n.cfg.Plan.Tiles), wall)
	tr.Workers = n.cfg.workers()
	tr.Attempts = n.attempts
	if len(n.excluded) > 0 {
		tr.Degraded = true
		tr.Excluded = make([]int, len(n.excluded))
		for i, id := range n.excluded {
			tr.Excluded[i] = int(id)
		}
	}
	return tr, err
}

// runNode is the driver behind RunNodeTraced. A nil node in the return means
// the configuration never started executing.
func runNode(ctx context.Context, cfg Config, ep rpc.Endpoint, st ChunkStorage) (*node, time.Duration, error) {
	if err := cfg.Validate(); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	n := &node{
		cfg:  &cfg,
		self: ep.Self(),
		ep:   ep,
		st:   st,
		met:  &metrics.Node{},
		mbox: newMailbox(),
	}
	if cfg.Shared != nil {
		n.scan = cfg.Shared(n.self)
	}
	n.onStall = func(d time.Duration) {
		n.met.CreditStalls.Add(1)
		n.met.CreditStallNanos.Add(d.Nanoseconds())
	}
	n.prepare()
	defer n.recordTotals()

	rctx, cancel := context.WithCancel(ctx)
	mboxDone := make(chan struct{})
	go func() {
		defer close(mboxDone)
		n.mbox.run(rctx, ep)
	}()
	defer func() {
		// Teardown drain: stop the receiver, then retire everything this node
		// received but never consumed — mailbox buffers first, then whatever
		// is still queued in the transport (Recv hands out buffered messages
		// even on a dead context). Each release returns the sender's
		// flow-control credit, so a peer blocked on this node's window makes
		// progress even when this node aborts mid-query, and recycles pooled
		// payloads so the bufpool balance stays exact through failures.
		cancel()
		<-mboxDone
		n.mbox.drain()
		for {
			m, err := ep.Recv(rctx)
			if err != nil {
				break
			}
			m.Release()
		}
	}()

	if cfg.Degraded {
		err := n.runDegraded(ctx)
		return n, time.Since(start), err
	}

	for t := range cfg.Plan.Tiles {
		if err := ctx.Err(); err != nil {
			n.abortPeers(int32(t), err)
			return n, time.Since(start), err
		}
		if err := n.runTile(ctx, int32(t)); err != nil {
			// Tell the mesh before returning: peers blocked on this node's
			// messages must fail within their deadline, not hang.
			n.abortPeers(int32(t), err)
			return n, time.Since(start), fmt.Errorf("engine: node %d tile %d: %w", n.self, t, err)
		}
	}
	return n, time.Since(start), nil
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

// prepare derives this node's share of every tile from the plan; degraded
// retries call it again on the re-planned workload.
func (n *node) prepare() {
	n.share = plan.ShareOf(n.cfg.Plan, n.cfg.Workload, int32(n.self))
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

// phaseInit allocates and initializes the accumulator chunks this node
// holds for the tile (locals it homes plus ghosts), retrieving and
// forwarding existing output chunks when the app requires them. Owner sends
// run on their own goroutine, overlapped with the replica receives: on a
// flow-controlled fabric a send can block on credit, and a mesh where every
// owner sent before anyone received would deadlock the moment the windows
// are smaller than the tile's init traffic.
func (n *node) phaseInit(ctx context.Context, t int32) (map[int32]Accumulator, error) {
	w, sh := n.cfg.Workload, &n.share[t]
	needInit := n.cfg.App.InitRequiresOutput()
	existing := make(map[int32]*chunk.Chunk)

	// initMsgs holds received init messages alive while the decoded chunks
	// alias their payloads; they are released the moment the App.Init loop
	// has copied what it needs (and on every error path out of the phase).
	var initMsgs []rpc.Message
	defer func() {
		for i := range initMsgs {
			initMsgs[i].Release()
		}
	}()

	if needInit {
		// Owner duties: read each owned output chunk in the tile from local
		// disk and forward it to every other holder of a replica.
		ownerExisting := make(map[int32]*chunk.Chunk)
		sendErr := make(chan error, 1)
		go func() {
			sendErr <- func() error {
				for k, o := range sh.Owned {
					var payload []byte
					if n.st.HasChunk(n.cfg.OutputDataset, w.Outputs[o]) {
						data, hit, err := n.readChunk(ctx, n.cfg.OutputDataset, w.Outputs[o])
						if err != nil {
							return fmt.Errorf("read existing output %d: %w", o, err)
						}
						n.met.AddRead(metrics.Initialization, int64(len(data)))
						if hit {
							n.met.CacheHits.Add(1)
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
			}()
		}()

		// Replica duties: receive existing chunks for allocations whose
		// owner is remote, concurrently with the owner sends above.
		var recvErr error
		for k := 0; k < sh.ExpectInits; k++ {
			msg, err := n.mbox.take(ctx, t, msgOutputInit)
			if err != nil {
				recvErr = err
				break
			}
			n.noteRecv(metrics.Initialization, msg)
			initMsgs = append(initMsgs, msg)
			if len(msg.Payload) > 0 {
				c, err := n.decodeWhole(msg.Payload)
				if err != nil {
					recvErr = fmt.Errorf("decode output-init %d: %w", msg.Seq, err)
					break
				}
				existing[msg.Seq] = c
			}
		}
		if err := <-sendErr; err != nil {
			return nil, err
		}
		if recvErr != nil {
			return nil, recvErr
		}
		// The sender goroutine has exited; merging its reads is race-free.
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

// readChunk reads a local chunk through the storage, reporting cache hits
// when the storage can (CachedReader). Inside a shared-scan batch the read
// is routed through the node's membership so overlapping concurrent queries
// fetch each chunk once; ctx bounds the wait on a batch peer's in-flight
// read (one query's abort never stalls another's).
func (n *node) readChunk(ctx context.Context, dataset string, m chunk.Meta) (data []byte, hit bool, err error) {
	if len(m.Holders) > 0 && m.Disk != m.Holders[0] {
		// The meta was remapped off its primary copy by plan.Degrade: this
		// read is being served by a surviving replica holder.
		n.met.ReplicaFallbackReads.Add(1)
	}
	load := func() ([]byte, bool, error) {
		start := time.Now()
		var d []byte
		var hit bool
		var err error
		if cr, ok := n.st.(CachedReader); ok {
			d, hit, err = cr.ReadChunkCached(dataset, m)
		} else {
			d, err = n.st.ReadChunk(dataset, m)
		}
		if err == nil && !hit {
			// Time only the reads that actually hit storage: this ratio is
			// the node's observed disk bandwidth (costmodel.Calibration).
			n.met.DiskReadNanos.Add(time.Since(start).Nanoseconds())
			n.met.DiskReadBytes.Add(int64(len(d)))
		}
		return d, hit, err
	}
	if n.scan == nil {
		return load()
	}
	data, hit, shared, err := n.scan.Read(ctx, ReadKey{Dataset: dataset, ID: m.ID}, load)
	if shared {
		n.met.SharedReads.Add(1)
		n.met.DedupedBytes.Add(int64(len(data)))
	}
	return data, hit, err
}

// decompressPooled resolves a possibly-compressed payload to its raw bytes.
// Compressed payloads inflate into a bufpool scratch buffer, returned as
// scratch for the caller to Put after its last read of raw (nil for raw
// payloads, which pass through unchanged). Runs on pool workers, so
// decompression overlaps aggregation exactly like decoding does; callers
// time it into DecodeNanos, and the compressed volume lands in
// CompressedBytes.
func (n *node) decompressPooled(data []byte) (raw, scratch []byte, err error) {
	if !chunk.IsCompressed(data) {
		return data, nil, nil
	}
	n.met.CompressedBytes.Add(int64(len(data)))
	buf := bufpool.Get(chunk.RawLen(data))[:0]
	out, err := chunk.DecompressTo(buf, data)
	if err != nil {
		bufpool.Put(buf)
		return nil, nil, err
	}
	return out, out, nil
}

// decodeWhole decodes a possibly-compressed payload on a cold path (init
// chunks, shipped finals) where the decoded chunk may outlive the call:
// decompression allocates a garbage-collected buffer instead of pooled
// scratch.
func (n *node) decodeWhole(data []byte) (*chunk.Chunk, error) {
	if chunk.IsCompressed(data) {
		n.met.CompressedBytes.Add(int64(len(data)))
	}
	return chunk.DecodeAny(data)
}

// compressForSend applies the configured codec to an outbound payload.
// Payloads that arrived compressed (storage bytes forwarded verbatim) and
// payloads that do not shrink go out as they are.
func (n *node) compressForSend(payload []byte, codec chunk.Codec) []byte {
	if codec == chunk.CodecNone || chunk.IsCompressed(payload) {
		return payload
	}
	env, _ := chunk.Compress(payload, codec, chunk.DefaultMinRatio)
	return env
}

// phaseLocalReduction retrieves this node's local input chunks (with
// read-ahead, overlapping disk and processing), aggregates them into every
// allocated target accumulator of the tile, forwards them to remote homes,
// and folds in the input chunks other nodes forward here.
//
// Retrieval runs one prefetcher per local disk (§2.2: nodes have multiple
// disks attached; chunks on different disks are read in parallel), each
// bounded by the shared read-ahead depth. Both sources — local reads and
// forwarded chunks from the mailbox — feed one worker pool, so a remote
// chunk is decoded and aggregated the moment it arrives instead of waiting
// for local reads to drain, and Config.Workers chunks are processed
// concurrently under per-output locks.
func (n *node) phaseLocalReduction(ctx context.Context, t int32, accs map[int32]Accumulator, locks map[int32]*sync.Mutex) error {
	p, w, sh := n.cfg.Plan, n.cfg.Workload, &n.share[t]

	pl := newPool(ctx, n.cfg.workers(), n.met, func(wk work) error {
		kind := "input"
		if !wk.local {
			kind = "forwarded input"
		}
		// Decompress (when the payload is a storage or wire envelope) and
		// decode on the worker, so both overlap aggregation; the scratch
		// buffer recycles once the aggregation loop below is done with the
		// decoded items that alias it.
		ds := time.Now()
		raw, scratch, err := n.decompressPooled(wk.data)
		if err != nil {
			n.met.DecodeNanos.Add(time.Since(ds).Nanoseconds())
			return fmt.Errorf("decode %s %d: %w", kind, wk.seq, err)
		}
		if scratch != nil {
			defer bufpool.Put(scratch)
		}
		c, err := chunk.Decode(raw)
		n.met.DecodeNanos.Add(time.Since(ds).Nanoseconds())
		if err != nil {
			return fmt.Errorf("decode %s %d: %w", kind, wk.seq, err)
		}
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

	// Forwarder: one goroutine issuing every msgInputChunk send of the
	// phase. Sends moved off the pool workers when flow control arrived —
	// a worker blocked on credit would stop draining inbound chunks, and
	// consuming inbound traffic is exactly what returns credit to the
	// peers; two nodes forwarding to each other would deadlock. The
	// bounded channel propagates backpressure the rest of the way: when
	// the forwarder stalls on credit the channel fills, the prefetchers
	// block on it, and the disk reads (and the shared-scan leader behind
	// them) slow to the receivers' consumption rate.
	type forward struct {
		wk work
		to []plan.Dest
	}
	fwdCh := make(chan forward, DefaultReadAhead)
	var fwdWg sync.WaitGroup
	if sh.Forward != nil {
		fwdWg.Add(1)
		go func() {
			defer fwdWg.Done()
			for f := range fwdCh {
				// Compressed storage bytes forward verbatim (zero cost); raw
				// storage bytes are compressed once here, then fanned out, so
				// flow-control credits meter the compressed volume and every
				// peer window holds proportionally more chunks in flight.
				payload := n.compressForSend(f.wk.data, n.cfg.Codec)
				for _, dst := range f.to {
					if err := n.send(metrics.LocalReduction, rpc.Message{
						Src: n.self, Dst: rpc.NodeID(dst.To), Type: msgInputChunk, Tile: t, Seq: f.wk.seq,
						Payload: payload,
					}); err != nil {
						pl.fail(err)
						// Keep draining so blocked prefetchers unstick.
						for range fwdCh {
						}
						return
					}
				}
			}
		}()
	}

	// Producers: one prefetcher per disk (retrieval order preserved within
	// each disk; queues hold positions in sh.Reads) plus one feeder draining
	// the tile's forwarded inputs.
	var producers sync.WaitGroup
	byDisk := make(map[int32][]int)
	var diskOrder []int32
	for k, i := range sh.Reads {
		d := w.Inputs[i].Disk
		if _, ok := byDisk[d]; !ok {
			diskOrder = append(diskOrder, d)
		}
		byDisk[d] = append(byDisk[d], k)
	}
	sem := make(chan struct{}, DefaultReadAhead)
	for _, d := range diskOrder {
		producers.Add(1)
		go func(queue []int) {
			defer producers.Done()
			for _, k := range queue {
				i := sh.Reads[k]
				// The semaphore caps concurrent disk reads at the read-ahead
				// depth; the bounded pool queue caps the decoded-side backlog
				// (together they play the role of the old prefetch channel).
				select {
				case sem <- struct{}{}:
				case <-pl.ctx.Done():
					pl.fail(pl.ctx.Err())
					return
				}
				data, hit, err := n.readChunk(pl.ctx, n.cfg.InputDataset, w.Inputs[i])
				<-sem
				if err != nil {
					pl.fail(fmt.Errorf("read input %d: %w", i, err))
					return
				}
				n.met.AddRead(metrics.LocalReduction, int64(len(data)))
				if hit {
					n.met.CacheHits.Add(1)
				}
				wk := work{seq: i, data: data, local: true}
				// Hand the chunk to the forwarder before aggregating it so
				// remote homes overlap their processing with ours (the buffer
				// is shared: storage data is immutable here, the zero-copy
				// path §2.4 argues for). The forwarder only ever reads the
				// bytes, so the pool workers can aggregate concurrently.
				if to := sh.Dests(k); len(to) > 0 {
					select {
					case fwdCh <- forward{wk, to}:
					case <-pl.ctx.Done():
						pl.fail(pl.ctx.Err())
						return
					}
				}
				if !pl.submit(wk) {
					return
				}
			}
		}(byDisk[d])
	}
	if sh.ExpectInputs > 0 {
		producers.Add(1)
		go func() {
			defer producers.Done()
			for k := 0; k < sh.ExpectInputs; k++ {
				msg, err := n.mbox.take(pl.ctx, t, msgInputChunk)
				if err != nil {
					pl.fail(err)
					return
				}
				n.noteRecv(metrics.LocalReduction, msg)
				m := msg
				if !pl.submit(work{seq: m.Seq, data: m.Payload, rel: m.Release}) {
					return
				}
			}
		}()
	}
	producers.Wait()
	close(fwdCh)
	fwdWg.Wait()
	return pl.wait()
}

// phaseGlobalCombine sends this node's ghost accumulators to their homes
// and combines the ghosts other nodes send here into the final values.
// Inbound ghosts are decoded and combined on the worker pool — decode
// dominates for large accumulators, and ghosts for different outputs never
// contend (per-output locks serialize only same-output combines).
func (n *node) phaseGlobalCombine(ctx context.Context, t int32, accs map[int32]Accumulator, locks map[int32]*sync.Mutex) error {
	p, w, sh := n.cfg.Plan, n.cfg.Workload, &n.share[t]

	// Ghost deletions mutate accs; they complete before the pool's workers
	// (and the sender goroutine) start reading the map. The encode+send work
	// itself then runs on its own goroutine, overlapped with the inbound
	// combines below: a credit-blocked ghost send must not keep this node
	// from consuming the ghosts its peers are sending it — consuming them is
	// what returns the peers' credit.
	type ghostOut struct {
		o   int32
		acc Accumulator
	}
	ghosts := make([]ghostOut, 0, len(sh.Ghosts))
	for _, o := range sh.Ghosts {
		ghosts = append(ghosts, ghostOut{o: o, acc: accs[o]})
		delete(accs, o) // ghost memory is released after the send
	}
	sendErr := make(chan error, 1)
	go func() {
		sendErr <- func() error {
			for _, g := range ghosts {
				start := time.Now()
				data, err := n.cfg.App.EncodeAccum(g.acc, w.Outputs[g.o])
				if err != nil {
					return fmt.Errorf("encode ghost %d: %w", g.o, err)
				}
				if n.cfg.Codec != chunk.CodecNone {
					// Accumulator payloads are app-defined encodings the
					// chunk-aware transform cannot parse; flate covers them.
					data = n.compressForSend(data, chunk.CodecFlate)
				}
				n.met.AddPhase(metrics.GlobalCombine, time.Since(start))
				if err := n.send(metrics.GlobalCombine, rpc.Message{
					Src: n.self, Dst: rpc.NodeID(p.Home[g.o]), Type: msgGhostAccum, Tile: t, Seq: g.o,
					Payload: data,
				}); err != nil {
					return err
				}
			}
			return nil
		}()
	}()

	var recvErr error
	if sh.ExpectGhosts > 0 {
		pl := newPool(ctx, n.cfg.workers(), n.met, func(wk work) error {
			o := wk.seq
			dst, ok := accs[o]
			if !ok {
				return fmt.Errorf("ghost for output %d arrived but no local accumulator", o)
			}
			ds := time.Now()
			raw, scratch, err := n.decompressPooled(wk.data)
			if err != nil {
				n.met.DecodeNanos.Add(time.Since(ds).Nanoseconds())
				return fmt.Errorf("decode ghost %d: %w", o, err)
			}
			if scratch != nil {
				defer bufpool.Put(scratch)
			}
			src, err := n.cfg.App.DecodeAccum(raw, w.Outputs[o])
			n.met.DecodeNanos.Add(time.Since(ds).Nanoseconds())
			if err != nil {
				return fmt.Errorf("decode ghost %d: %w", o, err)
			}
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
		for k := 0; k < sh.ExpectGhosts; k++ {
			msg, err := n.mbox.take(pl.ctx, t, msgGhostAccum)
			if err != nil {
				pl.fail(err)
				break
			}
			n.noteRecv(metrics.GlobalCombine, msg)
			m := msg
			if !pl.submit(work{seq: m.Seq, data: m.Payload, rel: m.Release}) {
				break
			}
		}
		recvErr = pl.wait()
	}
	if err := <-sendErr; err != nil {
		return err
	}
	return recvErr
}

// phaseOutput finalizes this node's homed accumulators into output chunks,
// ships homed-away chunks to their owners, and emits everything this node
// owns. Shipping runs on its own goroutine so a credit-blocked final-output
// send never keeps this node from receiving (and releasing) the finals its
// peers ship here; all emit calls — local outputs and shipped finals alike
// — stay on the phase goroutine, so a result callback sees one node's
// results serially, as before.
func (n *node) phaseOutput(ctx context.Context, t int32, accs map[int32]Accumulator) error {
	w, sh := n.cfg.Workload, &n.share[t]

	// Split the tile's locals by owner up front; accs is only read (never
	// mutated) until both halves of the phase have finished.
	var localOwned, remoteOwned []int32
	for _, o := range sh.Locals {
		if rpc.NodeID(w.Outputs[o].Node) != n.self {
			remoteOwned = append(remoteOwned, o)
		} else {
			localOwned = append(localOwned, o)
		}
	}

	sendErr := make(chan error, 1)
	go func() {
		sendErr <- func() error {
			for _, o := range remoteOwned {
				start := time.Now()
				out, err := n.cfg.App.Output(accs[o], w.Outputs[o])
				if err != nil {
					return fmt.Errorf("output %d: %w", o, err)
				}
				n.finalizeMeta(out, o)
				n.met.AddPhase(metrics.OutputHandling, time.Since(start))
				// Encode into a pooled buffer: the transport owns and recycles
				// it — once the frame is on the wire for TCP, when the receiver
				// releases it in-process. Under a codec the envelope ships
				// instead and the raw buffer recycles here; the envelope is a
				// fresh unpooled allocation, so Pooled stays off for it.
				payload := chunk.AppendTo(out, bufpool.Get(chunk.EncodedSize(out))[:0])
				pooled := true
				if n.cfg.Codec != chunk.CodecNone {
					if env, used := chunk.Compress(payload, n.cfg.Codec, chunk.DefaultMinRatio); used != chunk.CodecNone {
						bufpool.Put(payload)
						payload, pooled = env, false
					}
				}
				if err := n.send(metrics.OutputHandling, rpc.Message{
					Src: n.self, Dst: rpc.NodeID(w.Outputs[o].Node), Type: msgFinalOutput, Tile: t, Seq: o,
					Payload: payload, Pooled: pooled,
				}); err != nil {
					return err
				}
			}
			return nil
		}()
	}()

	recvErr := func() error {
		for _, o := range localOwned {
			start := time.Now()
			out, err := n.cfg.App.Output(accs[o], w.Outputs[o])
			if err != nil {
				return fmt.Errorf("output %d: %w", o, err)
			}
			n.finalizeMeta(out, o)
			n.met.AddPhase(metrics.OutputHandling, time.Since(start))
			if err := n.emit(out); err != nil {
				return fmt.Errorf("emit output %d: %w", o, err)
			}
		}
		for k := 0; k < sh.ExpectFinals; k++ {
			msg, err := n.mbox.take(ctx, t, msgFinalOutput)
			if err != nil {
				return err
			}
			n.noteRecv(metrics.OutputHandling, msg)
			compressed := chunk.IsCompressed(msg.Payload)
			out, err := n.decodeWhole(msg.Payload)
			if err != nil {
				msg.Release()
				return fmt.Errorf("decode final output %d: %w", msg.Seq, err)
			}
			err = n.emit(out)
			if n.cfg.OnResult != nil && !compressed {
				// The result callback may retain the decoded chunk, whose
				// items alias the payload: return the credit but hand the
				// bytes over to the retainer (and the GC). A compressed
				// payload was fully consumed by decompression — the decoded
				// chunk aliases the inflated copy — so it releases normally.
				msg.ReleaseKeep()
			} else {
				msg.Release()
			}
			if err != nil {
				return fmt.Errorf("emit shipped output %d: %w", msg.Seq, err)
			}
		}
		return nil
	}()

	serr := <-sendErr
	for _, o := range sh.Locals {
		delete(accs, o)
	}
	if recvErr != nil {
		return recvErr
	}
	return serr
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
		if n.cfg.Codec != chunk.CodecNone {
			if env, used := chunk.Compress(data, n.cfg.Codec, chunk.DefaultMinRatio); used != chunk.CodecNone {
				data = env
				out.Meta.StoredBytes = int64(len(env))
			}
		}
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

// send transmits m, attributing the traffic to the phase issuing it and
// stamping the payload's codec into the frame header (payloads are
// self-describing; the stamp is frame metadata for tooling).
func (n *node) send(p metrics.Phase, m rpc.Message) error {
	m.OnStall = n.onStall
	m.Codec = byte(chunk.PayloadCodec(m.Payload))
	bytes := int64(len(m.Payload))
	start := time.Now()
	if err := n.ep.Send(m); err != nil {
		return fmt.Errorf("send %s to %d: %w", msgTypeName(uint8(m.Type)), m.Dst, err)
	}
	n.met.NetSendNanos.Add(time.Since(start).Nanoseconds())
	n.met.AddSent(p, bytes)
	return nil
}

// noteRecv attributes a consumed message to the phase that waited for it.
func (n *node) noteRecv(p metrics.Phase, m rpc.Message) {
	n.met.AddRecv(p, int64(len(m.Payload)))
}
