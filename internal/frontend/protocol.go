// Package frontend implements the ADR front-end process (Fig 2): the query
// interface service that clients connect to, and the query submission
// service that relays queries to the parallel back-end and streams output
// products back, matching the paper's "socket interface ... used for
// sequential clients".
//
// The wire protocols — client <-> front-end, front-end <-> back-end control
// and parallel client <-> back-end control — share one framing, defined in
// this file and nowhere else. Requests travel as one control line. A result
// stream interleaves two kinds of frame, told apart by their first byte:
//
//	'{'   control line: one JSON Message ("done" | "error" | "estimate")
//	      terminated by '\n', at most maxControlLineBytes long.
//	0xAD  chunk frame: the tag, a little-endian uint32 payload length (at
//	      most rpc.MaxFrameBytes, checked before anything is allocated),
//	      then the payload — the output chunk exactly as chunk.AppendTo
//	      encodes it for disk and for the mesh.
//
// Any other first byte is a protocol error. A node encodes each output chunk
// once (AppendFrame), the front-end relays the frame's bytes without looking
// inside (ReadFrame, then a plain Write), and the client decodes it once
// (decodeFrame) — output buffers cross the system without being re-encoded,
// as §2.4 asks of every buffer. Chunk frames are never compressed: no
// deployment has a result link slower than loopback to pay for it.
package frontend

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"adr/internal/apps"
	"adr/internal/bufpool"
	"adr/internal/chunk"
	"adr/internal/engine"
	"adr/internal/metrics"
	"adr/internal/plan"
	"adr/internal/rpc"
	"adr/internal/space"
)

// QuerySpec is the client's range query: datasets, bounding boxes, strategy
// and the application customization, all by name (user-defined functions
// are registered server-side; clients select them, as ADR clients select
// registered aggregation functions).
type QuerySpec struct {
	Input  string `json:"input"`
	Output string `json:"output"`
	// InputBox/OutputBox are lo/hi pairs per dimension
	// (lox, hix, loy, hiy, ...); empty selects the whole space.
	InputBox  []float64 `json:"input_box,omitempty"`
	OutputBox []float64 `json:"output_box,omitempty"`
	Strategy  string    `json:"strategy"`
	App       AppSpec   `json:"app"`
	// ResultDataset, when set, writes results back to the farm as well as
	// returning them.
	ResultDataset string `json:"result_dataset,omitempty"`
	// Codec is ignored: a chunk travels in the form it is stored in, and
	// what the engine originates travels raw. A back-end still refuses a
	// name that is not a codec ("none" or "columnar").
	//
	// Deprecated: the codec is a property of the stored dataset, chosen at
	// load time (adr-load -compress).
	Codec string `json:"codec,omitempty"`
}

// AppSpec selects a registered aggregation customization.
type AppSpec struct {
	Kind        string `json:"kind"` // "raster" is the built-in family
	Op          string `json:"op"`   // sum | max | min | count | mean
	CellsPerDim int    `json:"cells_per_dim"`
	UseExisting bool   `json:"use_existing,omitempty"`
}

// Build instantiates the server-side App.
func (a AppSpec) Build() (engine.App, error) {
	if a.Kind != "" && a.Kind != "raster" {
		return nil, fmt.Errorf("frontend: unknown app kind %q", a.Kind)
	}
	var op apps.Op
	switch a.Op {
	case "sum":
		op = apps.Sum
	case "max":
		op = apps.Max
	case "min":
		op = apps.Min
	case "count":
		op = apps.Count
	case "mean":
		op = apps.Mean
	default:
		return nil, fmt.Errorf("frontend: unknown op %q", a.Op)
	}
	cells := a.CellsPerDim
	if cells <= 0 {
		cells = 8
	}
	// A raster whose fully populated ghost would not fit in one mesh frame
	// (over 2 047 cells per dimension) is refused here, before any node
	// plans the query.
	if err := apps.CheckCellsPerDim(cells); err != nil {
		return nil, fmt.Errorf("frontend: cells_per_dim: %w", err)
	}
	return &apps.RasterApp{Op: op, CellsPerDim: cells, UseExisting: a.UseExisting}, nil
}

// ParseBox converts a flattened lo/hi list to a Rect.
func ParseBox(b []float64) (space.Rect, error) {
	if len(b) == 0 {
		return space.Rect{}, nil
	}
	if err := space.CheckBox(b); err != nil {
		return space.Rect{}, fmt.Errorf("frontend: %w", err)
	}
	return space.R(b...), nil
}

// Strategy parses the spec's strategy (default FRA).
func (q *QuerySpec) ParseStrategy() (plan.Strategy, error) {
	if q.Strategy == "" {
		return plan.FRA, nil
	}
	return plan.ParseStrategy(q.Strategy)
}

// NodeRequest is the front-end -> back-end control frame: the query spec
// plus the front-end-assigned query id that multiplexes the mesh. All nodes
// of one query must receive the same id; a single front-end process (Fig 2)
// guarantees uniqueness with a counter.
type NodeRequest struct {
	QueryID int32     `json:"query_id"`
	Spec    QuerySpec `json:"spec"`
	// Estimate asks the node to cost the query under every fixed strategy
	// with its calibrated cost model and answer with a single "estimate"
	// frame instead of executing — the first half of AUTO resolution. The
	// resolver stamps the winning strategy into the spec it relays, so all
	// executing nodes still plan identically from the shared catalog.
	Estimate bool `json:"estimate,omitempty"`
	// Exclude lists the back-end nodes the resolver knows dead, learned from
	// survivors' error frames (ErrorInfo.Dead). Every node plans the query
	// without them — their chunks read from surviving replica holders, their
	// outputs re-homed (core.Exec.Prepare) — an Estimate prices the
	// candidates without them, and the resolver does not ask them. Set by
	// the resolver, never by a client.
	Exclude []int `json:"exclude,omitempty"`
}

// Message is one control line of the result stream (back-end -> front-end
// and front-end -> client): the stream's closing "done" or "error", or the
// "estimate" answer to an Estimate request. Output chunks do not travel as
// Messages — they are binary chunk frames (AppendFrame / ReadFrame) — and a
// reader that meets a control line of any other type fails the stream.
type Message struct {
	Type string `json:"type"` // "done" | "error" | "estimate"
	// Chunk is not part of the wire protocol: it survives for code that keeps
	// results as JSON documents (a Message of type "chunk" holding one
	// ChunkJSON), which WriteJSON and ReadJSON still round-trip.
	Chunk *ChunkJSON `json:"chunk,omitempty"`
	// Error, for type "error".
	Error string `json:"error,omitempty"`
	// ErrInfo, for type "error", locates the failure (which node reported
	// it, which node caused it) so clients and operators can tell a dead
	// back-end node from a bad query.
	ErrInfo *ErrorInfo `json:"error_info,omitempty"`
	// Stats, for type "done".
	Stats *DoneStats `json:"stats,omitempty"`
	// Selection, for type "estimate": the node's cost-model answer to an
	// Estimate request (chosen strategy plus every candidate's prediction).
	Selection *metrics.Selection `json:"selection,omitempty"`
}

// ErrorInfo is the structured half of an error frame.
type ErrorInfo struct {
	// Node is the node reporting the failure (-1: the front-end itself).
	Node int `json:"node"`
	// Origin is the node that caused the failure when the error chain
	// identifies one — the dead mesh peer of an rpc.PeerError or the
	// aborting node of an engine.AbortError — else -1.
	Origin int `json:"origin"`
	// Message is the full error text.
	Message string `json:"message"`
	// Retryable marks failures a fresh submission stands a chance against —
	// an admission-queue timeout ("busy") or a back-end node's death — as
	// opposed to bad queries, missing datasets or fatal aborts. Clients
	// honour it with bounded backed-off retries (Client.BusyRetries /
	// ParallelClient.BusyRetries).
	Retryable bool `json:"retryable,omitempty"`
	// Dead names the back-end node whose death the failure traces back to:
	// a mesh peer the reporting node saw die, or that an aborting peer did.
	// The resolver adds it to its dead set and resubmits without it
	// (NodeRequest.Exclude).
	Dead []int `json:"dead,omitempty"`
}

// QueryError is a failed query as seen through the client protocol,
// carrying the reporting and originating node ids from the error frame.
type QueryError struct {
	// Node reported the failure (-1: front-end).
	Node int
	// Origin caused it when known, else -1.
	Origin int
	// Message is the error text.
	Message string
	// Retryable and Dead mirror ErrorInfo's.
	Retryable bool
	Dead      []int
}

// Error names the failing node when one is known.
func (e *QueryError) Error() string {
	switch {
	case e.Origin >= 0 && e.Origin != e.Node:
		return fmt.Sprintf("query failed at node %d (caused by node %d): %s", e.Node, e.Origin, e.Message)
	case e.Node >= 0:
		return fmt.Sprintf("query failed at node %d: %s", e.Node, e.Message)
	default:
		return fmt.Sprintf("query failed: %s", e.Message)
	}
}

// ChunkJSON is an output chunk as clients hold it: what Client.Query and
// ParallelClient.Query return, decoded from the stream's chunk frames.
type ChunkJSON struct {
	ID      int32      `json:"id"`
	Dataset string     `json:"dataset"`
	Lo      []float64  `json:"lo"`
	Hi      []float64  `json:"hi"`
	Items   []ItemJSON `json:"items"`
}

// ItemJSON is one data item; Value is base64 in JSON.
type ItemJSON struct {
	Coords []float64 `json:"coords"`
	Value  []byte    `json:"value"`
}

// DoneStats summarizes one node's (or the whole query's) execution.
type DoneStats struct {
	Node       int   `json:"node"`
	Chunks     int   `json:"chunks"`
	BytesRead  int64 `json:"bytes_read"`
	BytesSent  int64 `json:"bytes_sent"`
	BytesRecv  int64 `json:"bytes_recv"`
	AggOps     int64 `json:"agg_ops"`
	ElapsedMS  int64 `json:"elapsed_ms"`
	TotalNodes int   `json:"total_nodes,omitempty"`
	// Trace, on a back-end node's done frame, is that node's per-phase
	// execution trace.
	Trace *metrics.NodeTrace `json:"trace,omitempty"`
	// Traces, on the front-end's merged done frame, assembles every node's
	// trace — the query's full per-node, per-phase accounting.
	Traces []metrics.NodeTrace `json:"traces,omitempty"`
	// Degraded reports that the query ran planned without the dead nodes
	// Excluded lists (NodeRequest.Exclude): their chunks were read from
	// surviving replica holders and their outputs re-homed onto the other
	// streams.
	Degraded bool  `json:"degraded,omitempty"`
	Excluded []int `json:"excluded,omitempty"`
	// Selection, on the merged done frame of an AUTO query, records the
	// cost-model strategy choice: which node priced the candidates, every
	// estimate, and predicted vs. actual execution time.
	Selection *metrics.Selection `json:"selection,omitempty"`
}

// QueryTrace converts the merged done frame's traces into a QueryTrace.
func (s *DoneStats) QueryTrace(queryID int32) *metrics.QueryTrace {
	return &metrics.QueryTrace{QueryID: queryID, Nodes: s.Traces, Selection: s.Selection}
}

// ToChunkJSON converts a finished chunk to the client representation. The
// bounds and every item's coordinates are carved from one slab and item
// values alias c's, so the conversion costs three allocations per chunk
// whatever its item count.
func ToChunkJSON(c *chunk.Chunk) *ChunkJSON {
	dims := c.Meta.MBR.Dims
	n := 2 * dims
	for i := range c.Items {
		n += c.Items[i].Coord.Dims
	}
	slab := make([]float64, n)
	carve := func(src []float64) []float64 {
		dst := slab[:len(src):len(src)]
		slab = slab[len(src):]
		copy(dst, src)
		return dst
	}
	cj := &ChunkJSON{
		ID: int32(c.Meta.ID), Dataset: c.Meta.Dataset,
		Lo: carve(c.Meta.MBR.Lo[:dims]), Hi: carve(c.Meta.MBR.Hi[:dims]),
	}
	if len(c.Items) > 0 {
		cj.Items = make([]ItemJSON, len(c.Items))
	}
	for i := range c.Items {
		it := &c.Items[i]
		cj.Items[i] = ItemJSON{Coords: carve(it.Coord.Coords[:it.Coord.Dims]), Value: it.Value}
	}
	return cj
}

// FromChunkJSON reverses ToChunkJSON.
func FromChunkJSON(cj *ChunkJSON) (*chunk.Chunk, error) {
	if len(cj.Lo) != len(cj.Hi) || len(cj.Lo) == 0 {
		return nil, fmt.Errorf("frontend: chunk %d has bad bounds", cj.ID)
	}
	bounds := make([]float64, 0, 2*len(cj.Lo))
	for d := range cj.Lo {
		bounds = append(bounds, cj.Lo[d], cj.Hi[d])
	}
	c := &chunk.Chunk{Meta: chunk.Meta{
		ID: chunk.ID(cj.ID), Dataset: cj.Dataset, MBR: space.R(bounds...),
	}}
	for _, it := range cj.Items {
		c.Items = append(c.Items, chunk.Item{Coord: space.Pt(it.Coords...), Value: it.Value})
	}
	c.Meta.Items = int32(len(c.Items))
	return c, nil
}

// maxControlLineBytes caps one control line. With chunks out of JSON the
// largest line is the front-end's merged done frame, which carries every
// node's trace at 1-2 KiB each, so 4 MiB leaves room for a mesh of two
// thousand nodes while bounding what a peer that never sends a newline
// — including an unauthenticated socket on a node's control port — can make
// the reader buffer.
const maxControlLineBytes = 4 << 20

// errLineTooLong is returned (wrapped) by ReadJSON and ReadFrame when a
// control line exceeds maxControlLineBytes.
var errLineTooLong = errors.New("frontend: control line too long")

// errFrame is returned (wrapped) by ReadFrame and decodeFrame for a stream
// that breaks the framing: an unknown leading byte, a chunk frame longer than
// rpc.MaxFrameBytes, a frame that does not hold what its header declares.
var errFrame = errors.New("frontend: malformed frame")

// WriteJSON writes one control line: v as JSON, newline-terminated.
func WriteJSON(w io.Writer, v interface{}) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// ReadJSON reads one control line of at most maxControlLineBytes into v.
func ReadJSON(r *bufio.Reader, v interface{}) error {
	var line []byte
	for {
		frag, err := r.ReadSlice('\n')
		if len(line)+len(frag) > maxControlLineBytes {
			return fmt.Errorf("%w: over %d bytes without a newline", errLineTooLong, maxControlLineBytes)
		}
		line = append(line, frag...)
		if err == nil {
			return json.Unmarshal(line, v)
		}
		if err != bufio.ErrBufferFull {
			return err
		}
	}
}

// Chunk frame header: the tag, then the payload length.
const (
	frameTag       = 0xAD
	frameHeaderLen = 1 + 4
)

// FrameSize returns the exact number of bytes AppendFrame appends for c, so
// callers can bring a right-sized (pooled) buffer.
func FrameSize(c *chunk.Chunk) int {
	return frameHeaderLen + chunk.EncodedSize(c)
}

// AppendFrame appends c's chunk frame — header and wire encoding — to dst
// and returns the extended slice. It is the only producer of chunk frames.
func AppendFrame(dst []byte, c *chunk.Chunk) ([]byte, error) {
	n := chunk.EncodedSize(c)
	if n > rpc.MaxFrameBytes {
		return dst, fmt.Errorf("frontend: output chunk %d encodes to %d bytes, over the %d-byte frame limit", c.Meta.ID, n, rpc.MaxFrameBytes)
	}
	dst = append(dst, frameTag)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	return chunk.AppendTo(c, dst), nil
}

// ReadFrame reads the next frame of a result stream and returns exactly one
// of: a whole chunk frame (header included, ready to be written on verbatim
// or handed to decodeFrame) or a decoded control line. With pooled set the
// chunk frame's buffer comes from bufpool and the caller must bufpool.Put it
// — the relay's case, where the bytes die as soon as they are forwarded;
// otherwise it is freshly allocated and may be retained — the clients' case,
// whose decoded chunks alias it. The declared length is checked against
// rpc.MaxFrameBytes before the buffer is obtained.
func ReadFrame(r *bufio.Reader, pooled bool) (frame []byte, msg *Message, err error) {
	first, err := r.Peek(1)
	if err != nil {
		return nil, nil, err
	}
	switch first[0] {
	case '{':
		msg = new(Message)
		if err := ReadJSON(r, msg); err != nil {
			return nil, nil, err
		}
		return nil, msg, nil
	case frameTag:
		hdr, err := r.Peek(frameHeaderLen)
		if err == io.EOF {
			// Only a stream that ends between frames reads as EOF.
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, nil, err
		}
		n := binary.LittleEndian.Uint32(hdr[1:])
		if n > rpc.MaxFrameBytes {
			return nil, nil, fmt.Errorf("%w: chunk frame of %d bytes, limit %d", errFrame, n, rpc.MaxFrameBytes)
		}
		size := frameHeaderLen + int(n)
		if pooled {
			frame = bufpool.Get(size)
		} else {
			frame = make([]byte, size)
		}
		if _, err := io.ReadFull(r, frame); err != nil {
			if pooled {
				bufpool.Put(frame)
			}
			return nil, nil, err
		}
		return frame, nil, nil
	default:
		return nil, nil, fmt.Errorf("%w: leading byte %#02x is neither a control line nor a chunk frame", errFrame, first[0])
	}
}

// decodeFrame decodes a chunk frame read by ReadFrame into the client
// representation. Item values alias frame.
func decodeFrame(frame []byte) (*ChunkJSON, error) {
	if len(frame) < frameHeaderLen || frame[0] != frameTag ||
		int(binary.LittleEndian.Uint32(frame[1:])) != len(frame)-frameHeaderLen {
		return nil, fmt.Errorf("%w: header does not match %d frame bytes", errFrame, len(frame))
	}
	c, err := chunk.DecodeAny(frame[frameHeaderLen:])
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errFrame, err)
	}
	return ToChunkJSON(c), nil
}
