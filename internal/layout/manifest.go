package layout

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"adr/internal/chunk"
	"adr/internal/index"
	"adr/internal/space"
)

// Manifest is the serialized dataset catalog for a farm directory: what
// adr-load writes next to the per-disk stores and what every back-end node
// daemon reads at startup so that all nodes share one view of the catalog
// (chunk metadata is replicated to every node; payloads stay on disks).
type Manifest struct {
	Nodes        int               `json:"nodes"`
	DisksPerNode int               `json:"disks_per_node"`
	Datasets     []DatasetManifest `json:"datasets"`
}

// DatasetManifest is one dataset's catalog entry.
type DatasetManifest struct {
	Name  string    `json:"name"`
	Space spaceJSON `json:"space"`
	// Codec is the compression codec the dataset was loaded with; omitted
	// for raw layouts. Per-chunk stored_bytes is authoritative (the adaptive
	// sampler stores incompressible chunks raw even under a codec).
	Codec  string      `json:"codec,omitempty"`
	Chunks []chunkJSON `json:"chunks"`
}

type spaceJSON struct {
	Name string    `json:"name"`
	Dims int       `json:"dims"`
	Lo   []float64 `json:"lo"`
	Hi   []float64 `json:"hi"`
}

type chunkJSON struct {
	ID    int32     `json:"id"`
	Lo    []float64 `json:"lo"`
	Hi    []float64 `json:"hi"`
	Bytes int64     `json:"bytes"`
	// StoredBytes is the on-disk (compressed) payload size; omitted when the
	// chunk is stored raw.
	StoredBytes int64 `json:"stored_bytes,omitempty"`
	Items       int32 `json:"items"`
	Disk        int32 `json:"disk"`
	Node        int32 `json:"node"`
	// Holders lists every disk holding a copy when the dataset was loaded
	// with -replicas >= 2 (primary first); omitted for unreplicated chunks.
	Holders []int32 `json:"holders,omitempty"`
}

func rectToJSON(r space.Rect) ([]float64, []float64) {
	lo := make([]float64, r.Dims)
	hi := make([]float64, r.Dims)
	copy(lo, r.Lo[:r.Dims])
	copy(hi, r.Hi[:r.Dims])
	return lo, hi
}

func rectFromJSON(lo, hi []float64) (space.Rect, error) {
	if len(lo) != len(hi) || len(lo) == 0 || len(lo) > space.MaxDims {
		return space.Rect{}, fmt.Errorf("layout: bad rect arity %d/%d", len(lo), len(hi))
	}
	bounds := make([]float64, 0, 2*len(lo))
	for d := range lo {
		if lo[d] > hi[d] {
			return space.Rect{}, fmt.Errorf("layout: rect lo %g > hi %g", lo[d], hi[d])
		}
		bounds = append(bounds, lo[d], hi[d])
	}
	return space.R(bounds...), nil
}

// manifestPath returns the manifest location within a farm directory.
func manifestPath(dataDir string) string {
	return filepath.Join(dataDir, "manifest.json")
}

// SaveManifest writes the catalog of datasets for a farm.
func SaveManifest(dataDir string, nodes, disksPerNode int, datasets []*Dataset) error {
	m := Manifest{Nodes: nodes, DisksPerNode: disksPerNode}
	for _, ds := range datasets {
		lo, hi := rectToJSON(ds.Space.Bounds)
		dm := DatasetManifest{
			Name: ds.Name,
			Space: spaceJSON{
				Name: ds.Space.Name,
				Dims: ds.Space.Dims(),
				Lo:   lo,
				Hi:   hi,
			},
		}
		if ds.Codec != chunk.CodecNone {
			dm.Codec = ds.Codec.String()
		}
		for _, c := range ds.Chunks {
			clo, chi := rectToJSON(c.MBR)
			dm.Chunks = append(dm.Chunks, chunkJSON{
				ID: int32(c.ID), Lo: clo, Hi: chi,
				Bytes: c.Bytes, StoredBytes: c.StoredBytes,
				Items: c.Items, Disk: c.Disk, Node: c.Node,
				Holders: c.Holders,
			})
		}
		m.Datasets = append(m.Datasets, dm)
	}
	data, err := json.MarshalIndent(&m, "", " ")
	if err != nil {
		return err
	}
	tmp := manifestPath(dataDir) + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, manifestPath(dataDir))
}

// LoadManifest reads a farm's catalog and reconstructs the datasets
// (rebuilding the R-tree indices from chunk MBRs, §2.2 step 4).
func LoadManifest(dataDir string) (*Manifest, []*Dataset, error) {
	data, err := os.ReadFile(manifestPath(dataDir))
	if err != nil {
		return nil, nil, fmt.Errorf("layout: read manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, nil, fmt.Errorf("layout: parse manifest: %w", err)
	}
	if m.Nodes < 1 || m.DisksPerNode < 1 {
		return nil, nil, fmt.Errorf("layout: manifest has %d nodes / %d disks per node", m.Nodes, m.DisksPerNode)
	}
	var datasets []*Dataset
	for _, dm := range m.Datasets {
		bounds, err := rectFromJSON(dm.Space.Lo, dm.Space.Hi)
		if err != nil {
			return nil, nil, fmt.Errorf("layout: dataset %s: %w", dm.Name, err)
		}
		codec, err := chunk.ParseCodec(dm.Codec)
		if err != nil {
			return nil, nil, fmt.Errorf("layout: dataset %s: %w", dm.Name, err)
		}
		ds := &Dataset{
			Name:  dm.Name,
			Space: space.AttrSpace{Name: dm.Space.Name, Bounds: bounds},
			Codec: codec,
		}
		entries := make([]index.Entry, 0, len(dm.Chunks))
		for _, cj := range dm.Chunks {
			mbr, err := rectFromJSON(cj.Lo, cj.Hi)
			if err != nil {
				return nil, nil, fmt.Errorf("layout: dataset %s chunk %d: %w", dm.Name, cj.ID, err)
			}
			maxDisk := int32(m.Nodes*m.DisksPerNode - 1)
			if cj.Disk < 0 || cj.Disk > maxDisk || cj.Node != cj.Disk/int32(m.DisksPerNode) {
				return nil, nil, fmt.Errorf("layout: dataset %s chunk %d has inconsistent placement", dm.Name, cj.ID)
			}
			if len(cj.Holders) > 0 && cj.Holders[0] != cj.Disk {
				return nil, nil, fmt.Errorf("layout: dataset %s chunk %d holders do not start at primary disk", dm.Name, cj.ID)
			}
			for _, h := range cj.Holders {
				if h < 0 || h > maxDisk {
					return nil, nil, fmt.Errorf("layout: dataset %s chunk %d holder disk %d out of range", dm.Name, cj.ID, h)
				}
			}
			if cj.StoredBytes < 0 || cj.StoredBytes > cj.Bytes {
				return nil, nil, fmt.Errorf("layout: dataset %s chunk %d stored_bytes %d out of range", dm.Name, cj.ID, cj.StoredBytes)
			}
			meta := chunk.Meta{
				ID: chunk.ID(cj.ID), Dataset: dm.Name, MBR: mbr,
				Bytes: cj.Bytes, StoredBytes: cj.StoredBytes,
				Items: cj.Items, Disk: cj.Disk, Node: cj.Node,
				Holders: cj.Holders,
			}
			ds.Chunks = append(ds.Chunks, meta)
			entries = append(entries, index.Entry{MBR: mbr, ID: meta.ID})
		}
		ds.Index = index.BulkLoad(entries, 0)
		datasets = append(datasets, ds)
	}
	return &m, datasets, nil
}

// OpenFarm opens the per-disk FileStores of a farm directory laid out by
// adr-load (dataDir/disk000, disk001, ...).
func OpenFarm(dataDir string, nodes, disksPerNode int) (*Farm, error) {
	return NewFarm(nodes, disksPerNode, func(disk int) (Store, error) {
		return NewFileStore(filepath.Join(dataDir, fmt.Sprintf("disk%03d", disk)))
	})
}
