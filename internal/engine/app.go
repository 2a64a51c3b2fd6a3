// Package engine is ADR's query execution service: it carries out a query
// plan on the parallel back-end, progressing through the four phases of §2.4
// for each tile — Initialization, Local Reduction, Global Combine, Output
// Handling — while overlapping disk reads, interprocessor communication and
// processing.
//
// The engine is transport-agnostic: every back-end node runs RunNodeTraced on
// its Dispatcher's view of the query, whether the nodes are goroutines
// sharing a process (rpc.InprocFabric, under a Mesh) or daemons on a TCP mesh
// (cmd/adr-node). Run drives one query on all nodes of a caller's fabric.
//
// Execution is fully accounted: RunNodeTraced returns a metrics.NodeTrace
// attributing every disk read, send and receive to the phase that incurred
// it, and every run also feeds the process-wide adr_engine_* counters in
// metrics.Default. Dispatcher multiplexes one mesh across concurrent
// queries by query id and owns each query's inbound mailbox.
package engine

import (
	"fmt"

	"adr/internal/chunk"
)

// Accumulator holds the intermediate result for one output chunk during
// query processing (the paper's accumulator chunk). Concrete types are
// application-defined; the engine moves them between processors with the
// App's Encode/Decode functions.
type Accumulator interface{}

// App is the data aggregation service customization: the user-defined
// Initialize, Aggregate (with Map folded in at item granularity), Combine
// and Output functions of Fig 1, plus the accumulator codec the custom RPC
// layer needs to exchange ghost chunks.
type App interface {
	// Init allocates and initializes the accumulator for an output chunk.
	// existing is the current output chunk when InitRequiresOutput() is
	// true and the chunk exists, else nil. ghost reports whether this copy
	// is a replica on a non-home processor — commutative aggregations whose
	// initial value is drawn from existing data (e.g. running sums seeded
	// with the current output) must initialize ghosts to the identity so
	// the global combine does not double-count.
	Init(out chunk.Meta, existing *chunk.Chunk, ghost bool) (Accumulator, error)

	// Aggregate folds one input chunk into the accumulator of one output
	// chunk. The engine guarantees in.Meta's targets include out; the app
	// maps items (Map) and aggregates those landing in out's region. Must
	// be commutative and associative across calls, as §1 requires of ADR
	// aggregation functions. Must not retain in or anything aliasing it:
	// the engine recycles in itself and its Items slice (the next chunk is
	// decoded into them) and the transport buffer item values alias, all
	// once Aggregate returns; copy what the accumulator keeps. The engine
	// serializes Aggregate calls per accumulator but runs calls on
	// different accumulators concurrently (Config.Workers), so apps must
	// not share mutable state across accumulators without their own
	// synchronization.
	Aggregate(acc Accumulator, out chunk.Meta, in *chunk.Chunk) error

	// Combine merges a partial accumulator (a ghost) into dst during the
	// global combine phase. dst is one Init returned; src is whatever
	// DecodeAccum returned, which need not be the type Init returns (an app
	// may decode a ghost into a compact form that only Combine reads).
	Combine(dst, src Accumulator, out chunk.Meta) error

	// Output converts the final accumulator into the output chunk.
	Output(acc Accumulator, out chunk.Meta) (*chunk.Chunk, error)

	// EncodeAccum/DecodeAccum serialize accumulators for ghost transfer:
	// EncodeAccum is handed an accumulator Init returned, and the engine
	// passes what DecodeAccum returns to Combine only, as its src. The
	// accumulator DecodeAccum returns must not alias data — the engine
	// recycles the buffer after the combine. Like Aggregate, Combine and
	// DecodeAccum may run concurrently for different outputs.
	EncodeAccum(acc Accumulator, out chunk.Meta) ([]byte, error)
	DecodeAccum(data []byte, out chunk.Meta) (Accumulator, error)

	// InitRequiresOutput reports whether Init must be handed the existing
	// output chunk (§2.4 phase 1: "If an existing output dataset is
	// required to initialize accumulator elements, an output chunk is
	// retrieved by the processor that has the chunk on its local disk, and
	// the chunk is forwarded to the processors that require it").
	InitRequiresOutput() bool
}

// Message types on the fabric. Values are part of the node protocol.
const (
	// msgInputChunk forwards an encoded input chunk to a remote home
	// (DA/hybrid local reduction). Seq = input position.
	msgInputChunk = 1
	// msgGhostAccum carries an encoded ghost accumulator to its home
	// (FRA/SRA global combine). Seq = output position.
	msgGhostAccum = 2
	// msgOutputInit forwards an existing output chunk from its owner to a
	// processor that must initialize a replica from it. Seq = output
	// position.
	msgOutputInit = 3
	// msgFinalOutput ships a finished output chunk from its home to its
	// owner (hybrid output handling). Seq = output position.
	msgFinalOutput = 4
	// msgAbort broadcasts a query-level abort: the sending node failed and
	// every peer must stop waiting for its messages. Payload = reason
	// string, Seq = 1 + the dead peer the failure traces back to (0 for
	// none). The mailbox honours it regardless of tile or phase.
	msgAbort = 5
)

func msgTypeName(t uint8) string {
	switch t {
	case msgInputChunk:
		return "input-chunk"
	case msgGhostAccum:
		return "ghost-accum"
	case msgOutputInit:
		return "output-init"
	case msgFinalOutput:
		return "final-output"
	case msgAbort:
		return "abort"
	default:
		return fmt.Sprintf("type-%d", t)
	}
}
