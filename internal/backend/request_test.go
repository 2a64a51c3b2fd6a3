package backend

import (
	"bufio"
	"bytes"
	"testing"

	"adr/internal/apps"
	"adr/internal/chunk"
	"adr/internal/frontend"
	"adr/internal/rpc"
)

// FuzzNodeRequest feeds whatever frontend.ReadJSON makes of a control line
// to parseRequest, the one parse the estimate and the execution path share.
// It must never panic, and a request it accepts names only nodes of the mesh
// in its exclusion set, a raster whose ghost fits in one mesh frame, and no
// codec name that is not one.
func FuzzNodeRequest(f *testing.F) {
	const procs = 3
	for _, line := range []string{
		`{"query_id":1,"spec":{"input":"a","output":"b","strategy":"DA","app":{"op":"sum","cells_per_dim":16}}}`,
		`{"spec":{"input":"a","output":"b","strategy":"AUTO","app":{"op":"count"}},"estimate":true,"exclude":[1]}`,
		`{"spec":{"input":"a","output":"b","input_box":[0,10,0,10],"app":{"op":"mean"},"codec":"columnar"},"exclude":[0,2]}`,
		// Refused: an excluded node outside the mesh, either side.
		`{"spec":{"input":"a","output":"b","app":{"op":"sum"}},"exclude":[3]}`,
		`{"spec":{"input":"a","output":"b","app":{"op":"sum"}},"estimate":true,"exclude":[-1]}`,
		// Refused: a raster whose c*c overflows, and one a frame too big.
		`{"spec":{"input":"a","output":"b","app":{"op":"sum","cells_per_dim":3037000500}}}`,
		`{"spec":{"input":"a","output":"b","app":{"op":"sum","cells_per_dim":2048}},"estimate":true}`,
		// Refused: a name that is no codec, a reversed box, no op.
		`{"spec":{"input":"a","output":"b","app":{"op":"sum"},"codec":"zip"}}`,
		`{"spec":{"input":"a","output":"b","output_box":[1,0],"app":{"op":"sum"}}}`,
		`{"spec":{"input":"a","output":"b"}}`,
	} {
		f.Add([]byte(line + "\n"))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req frontend.NodeRequest
		if frontend.ReadJSON(bufio.NewReader(bytes.NewReader(data)), &req) != nil {
			return
		}
		q, exclude, err := parseRequest(&req, procs)
		if err != nil {
			return
		}
		for _, id := range exclude {
			if id < 0 || id >= procs {
				t.Fatalf("accepted excluded node %d outside the %d-node mesh", id, procs)
			}
		}
		if _, err := chunk.ParseCodec(req.Spec.Codec); err != nil {
			t.Fatalf("accepted codec %q: %v", req.Spec.Codec, err)
		}
		r, ok := q.App.(*apps.RasterApp)
		if !ok {
			t.Fatalf("accepted request built %T", q.App)
		}
		if c := r.CellsPerDim; apps.MaxAccumBytes(c) > rpc.MaxFrameBytes {
			t.Fatalf("accepted %d cells per dimension: its worst-case ghost exceeds one mesh frame", c)
		}
	})
}
