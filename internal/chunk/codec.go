package chunk

import (
	"encoding/binary"
	"fmt"
	"math"

	"adr/internal/space"
)

// Binary wire/disk format for chunks. The same encoding is used for the
// on-disk chunk store and for interprocessor transfer over the RPC layer, so
// a chunk read from disk can be forwarded to a remote processor without
// re-encoding (the zero-copy behaviour §2.4 motivates: processing operations
// access the buffer holding data arriving from disk).
//
// Layout (little endian):
//
//	magic     uint32  'ADRC'
//	version   uint8   1
//	dims      uint8   attribute space dimensionality
//	id        int32
//	disk      int32
//	node      int32
//	items     int32
//	dsLen     uint16, dataset name bytes
//	mbr       2*dims float64 (lo..., hi...)
//	per item: dims float64 coords, uint32 value length, value bytes
const (
	magic   = 0x41445243 // "ADRC"
	version = 1
)

// errCorrupt is wrapped by decode errors caused by malformed input.
var errCorrupt = fmt.Errorf("chunk: corrupt encoding")

// EncodedSize returns the exact number of bytes Encode/AppendTo produce for
// c, so callers can obtain a right-sized buffer (e.g. from bufpool) before
// encoding.
func EncodedSize(c *Chunk) int {
	dims := c.Meta.MBR.Dims
	size := 4 + 1 + 1 + 4 + 4 + 4 + 4 + 2 + len(c.Meta.Dataset) + 16*dims
	for _, it := range c.Items {
		size += 8*dims + 4 + len(it.Value)
	}
	return size
}

// Encode serializes the chunk. The returned buffer's length becomes the
// chunk's payload size.
func Encode(c *Chunk) []byte {
	return AppendTo(c, make([]byte, 0, EncodedSize(c)))
}

// AppendTo appends the chunk's encoding to dst and returns the extended
// slice, exactly as Encode but without forcing a fresh allocation — the
// engine's emit and forward paths pass recycled buffers here so encoding
// stops churning the allocator. Appending exactly EncodedSize(c) bytes, it
// never reallocates when dst has that much spare capacity.
func AppendTo(c *Chunk, dst []byte) []byte {
	dims := c.Meta.MBR.Dims
	buf := dst
	buf = binary.LittleEndian.AppendUint32(buf, magic)
	buf = append(buf, version, byte(dims))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Meta.ID))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Meta.Disk))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Meta.Node))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.Items)))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(c.Meta.Dataset)))
	buf = append(buf, c.Meta.Dataset...)
	for d := 0; d < dims; d++ {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Meta.MBR.Lo[d]))
	}
	for d := 0; d < dims; d++ {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Meta.MBR.Hi[d]))
	}
	for _, it := range c.Items {
		for d := 0; d < dims; d++ {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(it.Coord.Coords[d]))
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(it.Value)))
		buf = append(buf, it.Value...)
	}
	return buf
}

type reader struct {
	buf []byte
	off int
}

func (r *reader) need(n int) error {
	if r.off+n > len(r.buf) {
		return fmt.Errorf("%w: need %d bytes at offset %d, have %d", errCorrupt, n, r.off, len(r.buf))
	}
	return nil
}

func (r *reader) u8() (byte, error) {
	if err := r.need(1); err != nil {
		return 0, err
	}
	v := r.buf[r.off]
	r.off++
	return v, nil
}

func (r *reader) u16() (uint16, error) {
	if err := r.need(2); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if err := r.need(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) f64() (float64, error) {
	if err := r.need(8); err != nil {
		return 0, err
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v, nil
}

func (r *reader) bytes(n int) ([]byte, error) {
	if err := r.need(n); err != nil {
		return nil, err
	}
	v := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return v, nil
}

// Decode parses a chunk encoded by Encode. Item values alias the input
// buffer; callers that mutate payloads must copy first.
func Decode(buf []byte) (*Chunk, error) {
	c := new(Chunk)
	if err := DecodeInto(c, buf); err != nil {
		return nil, err
	}
	return c, nil
}

// DecodeInto parses a chunk encoded by Encode into c, reusing c's Items
// backing array when it is large enough (and c.Meta.Dataset's string when
// the name is unchanged), so a caller that decodes chunk after chunk into
// one recycled Chunk allocates nothing. It makes exactly Decode's checks,
// and on success c equals what Decode returns field for field: every Meta
// field is reset, and every item is rewritten whole, including the
// coordinate slots beyond the chunk's dimensionality. Item values alias buf,
// as with Decode. On error c's contents are unspecified.
func DecodeInto(c *Chunk, buf []byte) error {
	r := &reader{buf: buf}
	m, err := r.u32()
	if err != nil {
		return err
	}
	if m != magic {
		return fmt.Errorf("%w: bad magic %#x", errCorrupt, m)
	}
	ver, err := r.u8()
	if err != nil {
		return err
	}
	if ver != version {
		return fmt.Errorf("%w: unsupported version %d", errCorrupt, ver)
	}
	dims8, err := r.u8()
	if err != nil {
		return err
	}
	dims := int(dims8)
	if dims == 0 || dims > space.MaxDims {
		return fmt.Errorf("%w: dims %d out of range", errCorrupt, dims)
	}
	var hdr [4]uint32 // id, disk, node, items
	for k := range hdr {
		if hdr[k], err = r.u32(); err != nil {
			return err
		}
	}
	dsLen, err := r.u16()
	if err != nil {
		return err
	}
	ds, err := r.bytes(int(dsLen))
	if err != nil {
		return err
	}
	name := c.Meta.Dataset
	if string(ds) != name {
		name = string(ds)
	}
	c.Meta = Meta{
		ID:      ID(int32(hdr[0])),
		Dataset: name,
		MBR:     space.Rect{Dims: dims},
		Disk:    int32(hdr[1]),
		Node:    int32(hdr[2]),
	}
	for d := 0; d < dims; d++ {
		if c.Meta.MBR.Lo[d], err = r.f64(); err != nil {
			return err
		}
	}
	for d := 0; d < dims; d++ {
		if c.Meta.MBR.Hi[d], err = r.f64(); err != nil {
			return err
		}
	}
	// Every item takes at least its coordinates and its value length, so a
	// count the rest of the buffer cannot hold is corrupt before anything
	// is sized by it.
	nitems, itemHdr := hdr[3], 8*dims+4
	if uint64(nitems)*uint64(itemHdr) > uint64(len(buf)-r.off) {
		return fmt.Errorf("%w: item count %d exceeds buffer", errCorrupt, nitems)
	}
	if cap(c.Items) >= int(nitems) {
		c.Items = c.Items[:nitems]
	} else {
		c.Items = make([]Item, nitems)
	}
	for i := range c.Items {
		if err := r.need(itemHdr); err != nil {
			return err
		}
		it := &c.Items[i]
		it.Coord = space.Point{Dims: dims}
		b := buf[r.off : r.off+itemHdr]
		for d := 0; d < dims; d++ {
			it.Coord.Coords[d] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*d:]))
		}
		r.off += itemHdr
		vlen := binary.LittleEndian.Uint32(b[8*dims:])
		if it.Value, err = r.bytes(int(vlen)); err != nil {
			return err
		}
	}
	c.Meta.Items = int32(nitems)
	c.Meta.Bytes = int64(r.off)
	return nil
}
