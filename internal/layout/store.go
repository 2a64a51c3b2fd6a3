// Package layout implements ADR's dataset service substrate: chunk stores on
// the disk farm, the four-step dataset loading pipeline of §2.2 (partition →
// placement → move → index), and the dataset catalog the planner and the
// execution engine consult.
package layout

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"adr/internal/chunk"
	"adr/internal/metrics"
)

// Process-wide disk counters: every FileStore read/write lands here, giving
// /metrics the per-process I/O volume and a read-latency histogram.
var (
	diskReads      = metrics.Default.Counter("adr_disk_reads_total")
	diskReadBytes  = metrics.Default.Counter("adr_disk_read_bytes_total")
	diskWrites     = metrics.Default.Counter("adr_disk_writes_total")
	diskWriteBytes = metrics.Default.Counter("adr_disk_write_bytes_total")
	diskReadSec    = metrics.Default.Histogram("adr_disk_read_seconds", nil)
)

// Store holds the encoded payloads of chunks on one disk. Chunks are
// immutable once put for a given (dataset, id) pair, except that query
// output handling may overwrite an output chunk in place (§2.4: "If the
// query updates an already existing dataset, the updated output chunks are
// written back to their original locations").
type Store interface {
	// Put stores (or overwrites) a chunk's encoded payload.
	Put(dataset string, id chunk.ID, data []byte) error
	// Get retrieves a chunk's encoded payload.
	Get(dataset string, id chunk.ID) ([]byte, error)
	// Has reports whether the chunk is present.
	Has(dataset string, id chunk.ID) bool
	// Close releases resources.
	Close() error
}

type storeKey struct {
	dataset string
	id      chunk.ID
}

// memStore is an in-memory Store, used by the in-process engine and tests.
type memStore struct {
	mu   sync.RWMutex
	data map[storeKey][]byte
}

// newMemStore returns an empty in-memory store.
func newMemStore() *memStore {
	return &memStore{data: make(map[storeKey][]byte)}
}

// Put stores a copy of data.
func (s *memStore) Put(dataset string, id chunk.ID, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data[storeKey{dataset, id}] = append([]byte(nil), data...)
	return nil
}

// Get retrieves the stored payload (not a copy; callers must not mutate).
func (s *memStore) Get(dataset string, id chunk.ID) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.data[storeKey{dataset, id}]
	if !ok {
		return nil, fmt.Errorf("layout: chunk %s/%d not in store", dataset, id)
	}
	return d, nil
}

// Has reports presence.
func (s *memStore) Has(dataset string, id chunk.ID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.data[storeKey{dataset, id}]
	return ok
}

// Close is a no-op.
func (s *memStore) Close() error { return nil }

// Len returns the number of stored chunks.
func (s *memStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

// FileStore keeps chunks in append-only segment files, one per dataset, with
// an in-memory offset index rebuilt by scanning on open. Record layout:
// [u32 payload length][u32 chunk id][payload]. Overwrites append a new
// record; the newest record for an id wins, and Compact drops the rest.
type FileStore struct {
	dir string

	mu    sync.Mutex
	files map[string]*segment
}

// segment is one dataset's append-only file. mu guards f's lifetime against
// s.mu-free readers: Get acquires mu.RLock (while still holding s.mu, so
// lock order is always s.mu → seg.mu) and keeps it across ReadAt, while
// Compact and Close take mu.Lock before closing f. Without it a reader
// could hit a closed fd mid-flight when Compact swaps the file under s.mu.
type segment struct {
	mu    sync.RWMutex
	f     *os.File
	index map[chunk.ID]segmentLoc
	size  int64
}

type segmentLoc struct {
	off    int64
	length int32
}

// NewFileStore opens (creating if needed) a file store rooted at dir.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("layout: create store dir: %w", err)
	}
	return &FileStore{dir: dir, files: make(map[string]*segment)}, nil
}

// sanitize maps a dataset name to a safe file name.
func sanitize(dataset string) string {
	r := strings.NewReplacer("/", "_", "\\", "_", ":", "_", "..", "_")
	return r.Replace(dataset) + ".dat"
}

func (s *FileStore) segmentFor(dataset string) (*segment, error) {
	if seg, ok := s.files[dataset]; ok {
		return seg, nil
	}
	path := filepath.Join(s.dir, sanitize(dataset))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("layout: open segment: %w", err)
	}
	seg := &segment{f: f, index: make(map[chunk.ID]segmentLoc)}
	// Rebuild the index by scanning records.
	var hdr [8]byte
	off := int64(0)
	for {
		if _, err := f.ReadAt(hdr[:], off); err != nil {
			if err == io.EOF {
				break
			}
			// A torn trailing record (crash mid-append) ends the scan.
			break
		}
		length := int32(binary.LittleEndian.Uint32(hdr[0:]))
		id := chunk.ID(int32(binary.LittleEndian.Uint32(hdr[4:])))
		if length < 0 {
			break
		}
		end := off + 8 + int64(length)
		fi, err := f.Stat()
		if err != nil || end > fi.Size() {
			break // torn record
		}
		seg.index[id] = segmentLoc{off: off + 8, length: length}
		off = end
	}
	seg.size = off
	if err := f.Truncate(off); err != nil {
		f.Close()
		return nil, fmt.Errorf("layout: truncate torn tail: %w", err)
	}
	s.files[dataset] = seg
	return seg, nil
}

// Put appends a record for the chunk.
func (s *FileStore) Put(dataset string, id chunk.ID, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	seg, err := s.segmentFor(dataset)
	if err != nil {
		return err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(data)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(id))
	if _, err := seg.f.WriteAt(hdr[:], seg.size); err != nil {
		return fmt.Errorf("layout: put %s/%d: %w", dataset, id, err)
	}
	if _, err := seg.f.WriteAt(data, seg.size+8); err != nil {
		return fmt.Errorf("layout: put %s/%d: %w", dataset, id, err)
	}
	seg.index[id] = segmentLoc{off: seg.size + 8, length: int32(len(data))}
	seg.size += 8 + int64(len(data))
	diskWrites.Inc()
	diskWriteBytes.Add(int64(len(data)))
	return nil
}

// Get reads a chunk's payload.
func (s *FileStore) Get(dataset string, id chunk.ID) ([]byte, error) {
	s.mu.Lock()
	seg, err := s.segmentFor(dataset)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	loc, ok := seg.index[id]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("layout: chunk %s/%d not in store", dataset, id)
	}
	// Pin the fd before dropping s.mu: Compact/Close must wait for this
	// read before closing the file it resolves to.
	seg.mu.RLock()
	s.mu.Unlock()
	defer seg.mu.RUnlock()
	start := time.Now()
	buf := make([]byte, loc.length)
	if _, err := seg.f.ReadAt(buf, loc.off); err != nil {
		return nil, fmt.Errorf("layout: get %s/%d: %w", dataset, id, err)
	}
	diskReadSec.Observe(time.Since(start).Seconds())
	diskReads.Inc()
	diskReadBytes.Add(int64(len(buf)))
	return buf, nil
}

// Has reports presence.
func (s *FileStore) Has(dataset string, id chunk.ID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	seg, err := s.segmentFor(dataset)
	if err != nil {
		return false
	}
	_, ok := seg.index[id]
	return ok
}

// Compact rewrites a dataset's segment keeping only the newest record per
// chunk id, reclaiming space from overwrites.
func (s *FileStore) Compact(dataset string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	seg, err := s.segmentFor(dataset)
	if err != nil {
		return err
	}
	ids := make([]chunk.ID, 0, len(seg.index))
	for id := range seg.index {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	tmpPath := filepath.Join(s.dir, sanitize(dataset)+".tmp")
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return fmt.Errorf("layout: compact: %w", err)
	}
	newIndex := make(map[chunk.ID]segmentLoc, len(ids))
	var off int64
	var hdr [8]byte
	for _, id := range ids {
		loc := seg.index[id]
		buf := make([]byte, loc.length)
		if _, err := seg.f.ReadAt(buf, loc.off); err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return fmt.Errorf("layout: compact read %d: %w", id, err)
		}
		binary.LittleEndian.PutUint32(hdr[0:], uint32(len(buf)))
		binary.LittleEndian.PutUint32(hdr[4:], uint32(id))
		if _, err := tmp.Write(hdr[:]); err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return err
		}
		if _, err := tmp.Write(buf); err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return err
		}
		newIndex[id] = segmentLoc{off: off + 8, length: loc.length}
		off += 8 + int64(len(buf))
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	path := filepath.Join(s.dir, sanitize(dataset))
	if err := os.Rename(tmpPath, path); err != nil {
		return fmt.Errorf("layout: compact rename: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	// Wait for in-flight readers of the old file before closing it; new
	// readers resolve to the replacement segment.
	seg.mu.Lock()
	seg.f.Close()
	seg.mu.Unlock()
	s.files[dataset] = &segment{f: f, index: newIndex, size: off}
	return nil
}

// Close closes all segment files.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, seg := range s.files {
		seg.mu.Lock()
		err := seg.f.Close()
		seg.mu.Unlock()
		if err != nil && first == nil {
			first = err
		}
	}
	s.files = make(map[string]*segment)
	return first
}
