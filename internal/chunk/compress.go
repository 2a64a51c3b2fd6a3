package chunk

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"adr/internal/metrics"
)

// Chunk compression. A compressed chunk travels as a self-describing
// envelope that wraps the raw Encode payload:
//
//	magic     uint32  'ADRZ' (distinct from the raw chunk magic)
//	version   uint8   1
//	codec     uint8   Codec that produced the body
//	rawSize   uint32  exact length of the decompressed Encode payload
//	body      codec-specific bytes
//
// Because the envelope is recognisable from its first four bytes, the same
// payload works on every byte-bound path — disk segments, the chunk cache
// and RPC frames — and a reader that was not configured for compression can
// still decompress what a compressing peer sends it (Decompress is cheap to
// probe and a no-op on raw payloads). Decompression always reproduces the
// raw encoding bit-for-bit, so query results are byte-identical with or
// without compression.
//
// CodecColumnar exploits the chunk layout itself: coordinates of items in
// one chunk are spatially close (the MBR bounds them), so the XOR of
// consecutive coordinates' IEEE-754 bit patterns zeroes the high bits and
// uvarint-encodes short; item value bytes are concatenated and deflated as
// one block so the Lempel-Ziv window sees cross-item redundancy. CodecFlate
// simply deflates the whole raw payload and is the fallback for layouts the
// columnar transform does not model.
const (
	compMagic   = 0x4144525a // "ADRZ"
	compVersion = 1

	// envHeaderLen is the fixed envelope prefix before the codec body.
	envHeaderLen = 4 + 1 + 1 + 4

	// maxRawLen caps the decompressed size a well-formed envelope may claim,
	// bounding what a corrupt or adversarial frame can make Decompress
	// allocate. It comfortably exceeds any chunk the planner would schedule.
	maxRawLen = 1 << 30
)

// Codec selects a chunk compression algorithm. The zero value stores chunks
// raw.
type Codec byte

const (
	// CodecNone stores the raw Encode payload.
	CodecNone Codec = 0
	// CodecFlate deflates the whole raw payload (compress/flate).
	CodecFlate Codec = 1
	// CodecColumnar applies the chunk-aware columnar transform: per-dimension
	// coordinate float-XOR deltas and value lengths as uvarints, value bytes
	// deflated as one block.
	CodecColumnar Codec = 2
)

// String returns the flag spelling of the codec.
func (c Codec) String() string {
	switch c {
	case CodecNone:
		return "none"
	case CodecFlate:
		return "flate"
	case CodecColumnar:
		return "columnar"
	}
	return fmt.Sprintf("codec(%d)", byte(c))
}

// ParseCodec maps a -compress flag value to a Codec. The empty string and
// "none" select CodecNone.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "", "none":
		return CodecNone, nil
	case "flate":
		return CodecFlate, nil
	case "columnar":
		return CodecColumnar, nil
	}
	return CodecNone, fmt.Errorf("chunk: unknown codec %q (want none, flate or columnar)", s)
}

// DefaultMinRatio is the adaptive skip threshold: a chunk whose envelope
// does not shrink below this fraction of the raw payload is stored raw, so
// incompressible data never pays decompression on the read path.
const DefaultMinRatio = 0.9

// Compression observability: total raw bytes offered to Compress, total
// envelope bytes it produced, chunks stored raw because they missed the
// ratio threshold, and the achieved ratio distribution.
var (
	compRawBytes  = metrics.Default.Counter("adr_chunk_raw_bytes_total")
	compOutBytes  = metrics.Default.Counter("adr_chunk_compressed_bytes_total")
	compSkips     = metrics.Default.Counter("adr_chunk_compress_skips_total")
	compRatioHist = metrics.Default.Histogram("adr_chunk_compress_ratio",
		[]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1})
)

// Compress wraps a raw Encode payload in a compressed envelope using codec.
// It returns the payload to store or send plus the codec actually used:
// (raw, CodecNone) — raw itself, not a copy — when codec is CodecNone, when
// the transform fails on an irregular payload, or when the envelope does not
// shrink below minRatio of the raw size (minRatio <= 0 selects
// DefaultMinRatio). The skip path is what keeps already-dense chunks from
// paying decompression for nothing.
func Compress(raw []byte, codec Codec, minRatio float64) ([]byte, Codec) {
	if codec == CodecNone {
		return raw, CodecNone
	}
	if minRatio <= 0 {
		minRatio = DefaultMinRatio
	}
	var body []byte
	var err error
	switch codec {
	case CodecFlate:
		body, err = flateCompress(raw)
	case CodecColumnar:
		body, err = columnarCompress(raw)
	default:
		err = fmt.Errorf("chunk: unknown codec %d", codec)
	}
	if err != nil {
		compSkips.Inc()
		return raw, CodecNone
	}
	if float64(envHeaderLen+len(body)) >= minRatio*float64(len(raw)) {
		compSkips.Inc()
		return raw, CodecNone
	}
	env := make([]byte, 0, envHeaderLen+len(body))
	env = binary.LittleEndian.AppendUint32(env, compMagic)
	env = append(env, compVersion, byte(codec))
	env = binary.LittleEndian.AppendUint32(env, uint32(len(raw)))
	env = append(env, body...)
	compRawBytes.Add(int64(len(raw)))
	compOutBytes.Add(int64(len(env)))
	compRatioHist.Observe(float64(len(env)) / float64(len(raw)))
	return env, codec
}

// IsCompressed reports whether buf starts with a compressed-chunk envelope.
func IsCompressed(buf []byte) bool {
	return len(buf) >= envHeaderLen && binary.LittleEndian.Uint32(buf) == compMagic
}

// RawLen returns the length of the raw Encode payload a buffer decompresses
// to: len(buf) for a raw payload, the envelope's recorded size otherwise.
// Callers size scratch buffers (bufpool.Get) with it before DecompressTo.
func RawLen(buf []byte) int {
	if !IsCompressed(buf) {
		return len(buf)
	}
	return int(binary.LittleEndian.Uint32(buf[6:]))
}

// Decompress returns the raw Encode payload for buf: buf itself when it is
// not enveloped, a freshly allocated decompression otherwise. Hot paths use
// DecompressTo with recycled scratch instead.
func Decompress(buf []byte) ([]byte, error) {
	if !IsCompressed(buf) {
		return buf, nil
	}
	// Validate the claimed size before sizing the buffer by it, so a corrupt
	// envelope cannot force a giant allocation just to be rejected.
	n := RawLen(buf)
	if n > maxRawLen {
		return nil, fmt.Errorf("%w: envelope claims %d raw bytes", errCorrupt, n)
	}
	return DecompressTo(make([]byte, 0, n), buf)
}

// DecompressTo appends buf's raw Encode payload to dst and returns the
// extended slice; dst typically comes from bufpool sized by RawLen. A raw
// (non-enveloped) buf is appended verbatim. Malformed envelopes return
// errors wrapping errCorrupt.
func DecompressTo(dst, buf []byte) ([]byte, error) {
	if !IsCompressed(buf) {
		return append(dst, buf...), nil
	}
	if buf[4] != compVersion {
		return dst, fmt.Errorf("%w: unsupported envelope version %d", errCorrupt, buf[4])
	}
	codec := Codec(buf[5])
	rawLen := int(binary.LittleEndian.Uint32(buf[6:]))
	if rawLen > maxRawLen {
		return dst, fmt.Errorf("%w: envelope claims %d raw bytes", errCorrupt, rawLen)
	}
	body := buf[envHeaderLen:]
	switch codec {
	case CodecFlate:
		return flateDecompress(dst, body, rawLen)
	case CodecColumnar:
		return columnarDecompress(dst, body, rawLen)
	}
	return dst, fmt.Errorf("%w: unknown envelope codec %d", errCorrupt, codec)
}

// DecodeAny decodes a chunk from either a raw encoding or a compressed
// envelope, allocating scratch as needed. Item values may alias the scratch
// rather than buf. The engine's hot paths decompress into pooled buffers and
// call Decode directly; DecodeAny serves control paths and tests.
func DecodeAny(buf []byte) (*Chunk, error) {
	raw, err := Decompress(buf)
	if err != nil {
		return nil, err
	}
	return Decode(raw)
}

// flateCompress deflates the whole raw payload.
func flateCompress(raw []byte) ([]byte, error) {
	var out bytes.Buffer
	fw, err := flate.NewWriter(&out, flate.DefaultCompression)
	if err != nil {
		return nil, err
	}
	if _, err := fw.Write(raw); err != nil {
		return nil, err
	}
	if err := fw.Close(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// flateDecompress inflates body, which must yield exactly rawLen bytes.
func flateDecompress(dst, body []byte, rawLen int) ([]byte, error) {
	f := inflaters.Get().(*inflater)
	defer inflaters.Put(f)
	raw, err := f.inflate(body, rawLen)
	if errors.Is(err, errStreamTooLong) {
		return dst, fmt.Errorf("%w: flate body longer than raw size", errCorrupt)
	}
	if err != nil {
		return dst, fmt.Errorf("%w: flate body: %v", errCorrupt, err)
	}
	if len(raw) != rawLen {
		return dst, fmt.Errorf("%w: flate body inflates to %d of %d raw bytes", errCorrupt, len(raw), rawLen)
	}
	return append(dst, raw...), nil
}

// inflater is one pooled decompression context: a flate reader reset onto
// each body (building a fresh one costs tens of kilobytes per chunk) and the
// scratch a whole inflated stream lands in.
type inflater struct {
	body bytes.Reader
	fr   io.ReadCloser // a flate.Resetter once made
	buf  []byte
	prev []uint64 // columnar XOR-delta chain heads, one per dimension
}

var inflaters = sync.Pool{New: func() any { return new(inflater) }}

// errStreamTooLong reports a deflate stream that inflates past its limit.
var errStreamTooLong = errors.New("stream longer than its limit")

// inflate inflates the whole deflate stream body into the inflater's
// scratch, valid until the inflater is next used or returned to the pool. A
// stream of more than limit bytes fails with errStreamTooLong; a malformed
// or truncated one (flate's io.ErrUnexpectedEOF included) with flate's
// error. Only a clean end of stream succeeds.
func (f *inflater) inflate(body []byte, limit int) ([]byte, error) {
	f.body.Reset(body)
	if f.fr == nil {
		f.fr = flate.NewReader(&f.body)
	} else if err := f.fr.(flate.Resetter).Reset(&f.body, nil); err != nil {
		return nil, err
	}
	buf := f.buf[:0]
	defer func() {
		f.buf = buf[:0]
		f.body.Reset(nil) // a pooled inflater keeps no caller's bytes alive
	}()
	for {
		if len(buf) == cap(buf) {
			// Double from 4 KiB, up to the one byte past limit that proves
			// a stream too long.
			buf = slices.Grow(buf, min(limit+1-len(buf), max(len(buf), 4<<10)))
		}
		n, err := f.fr.Read(buf[len(buf):min(cap(buf), limit+1)])
		buf = buf[:len(buf)+n]
		switch {
		case len(buf) > limit:
			return nil, errStreamTooLong
		case err == io.EOF:
			return buf, nil
		case err != nil:
			return nil, err
		}
	}
}

// rawHeader is the light parse of a raw Encode payload's fixed prefix that
// the columnar transform needs: it stops before the item records.
type rawHeader struct {
	dims   int
	nitems int
	length int // header bytes: everything before the first item record
	mbrOff int // offset of MBR Lo[0] within the payload
}

// parseRawHeader validates the fixed prefix of a raw chunk encoding.
func parseRawHeader(raw []byte) (rawHeader, error) {
	var h rawHeader
	if len(raw) < 24 {
		return h, fmt.Errorf("%w: %d bytes is shorter than a chunk header", errCorrupt, len(raw))
	}
	if binary.LittleEndian.Uint32(raw) != magic || raw[4] != version {
		return h, fmt.Errorf("%w: not a raw chunk encoding", errCorrupt)
	}
	h.dims = int(raw[5])
	if h.dims == 0 {
		return h, fmt.Errorf("%w: dims 0 out of range", errCorrupt)
	}
	h.nitems = int(binary.LittleEndian.Uint32(raw[18:]))
	dsLen := int(binary.LittleEndian.Uint16(raw[22:]))
	h.mbrOff = 24 + dsLen
	h.length = h.mbrOff + 16*h.dims
	if h.length > len(raw) {
		return h, fmt.Errorf("%w: header %d bytes exceeds payload %d", errCorrupt, h.length, len(raw))
	}
	return h, nil
}

// columnarCompress applies the chunk-aware transform to a raw encoding.
// Body layout:
//
//	header    raw[:headerLen] unchanged (self-describing: dims, items, MBR)
//	deflate of the transformed item data, in stream order:
//	  vlens   nitems uvarints, item value lengths
//	  coords  dims columns; column d is nitems fixed 8-byte LE words of
//	          bits(coord) XOR bits(previous coord), seeded bits(MBR.Lo[d])
//	  values  all item value bytes concatenated
//
// The XOR-delta columns turn spatial locality into zero bytes — nearby
// coordinates share sign/exponent/high-mantissa bits (leading zeros) and
// grid-quantized coordinates share empty low mantissa bits (trailing
// zeros) — and the single deflate stream then squeezes those zero runs
// together with cross-item value redundancy that per-item encodings can
// never see.
func columnarCompress(raw []byte) ([]byte, error) {
	h, err := parseRawHeader(raw)
	if err != nil {
		return nil, err
	}
	// Walk the item records once, collecting their offsets.
	offs := make([]int, h.nitems)
	fixed := 8*h.dims + 4
	off := h.length
	for i := 0; i < h.nitems; i++ {
		if off+fixed > len(raw) {
			return nil, fmt.Errorf("%w: item %d truncated", errCorrupt, i)
		}
		offs[i] = off
		vlen := int(binary.LittleEndian.Uint32(raw[off+8*h.dims:]))
		off += fixed + vlen
		if off > len(raw) {
			return nil, fmt.Errorf("%w: item %d value truncated", errCorrupt, i)
		}
	}
	if off != len(raw) {
		return nil, fmt.Errorf("%w: %d trailing bytes after items", errCorrupt, len(raw)-off)
	}

	var out bytes.Buffer
	out.Grow(len(raw) / 2)
	out.Write(raw[:h.length])
	fw, err := flate.NewWriter(&out, flate.DefaultCompression)
	if err != nil {
		return nil, err
	}
	var scratch [2 * binary.MaxVarintLen64]byte
	for _, o := range offs {
		n := binary.PutUvarint(scratch[:], uint64(binary.LittleEndian.Uint32(raw[o+8*h.dims:])))
		if _, err := fw.Write(scratch[:n]); err != nil {
			return nil, err
		}
	}
	for d := 0; d < h.dims; d++ {
		prev := binary.LittleEndian.Uint64(raw[h.mbrOff+8*d:])
		for _, o := range offs {
			bits := binary.LittleEndian.Uint64(raw[o+8*d:])
			binary.LittleEndian.PutUint64(scratch[:8], bits^prev)
			prev = bits
			if _, err := fw.Write(scratch[:8]); err != nil {
				return nil, err
			}
		}
	}
	for _, o := range offs {
		vlen := int(binary.LittleEndian.Uint32(raw[o+8*h.dims:]))
		if _, err := fw.Write(raw[o+fixed : o+fixed+vlen]); err != nil {
			return nil, err
		}
	}
	if err := fw.Close(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// columnarDecompress reverses columnarCompress, reconstructing the raw
// encoding bit-for-bit onto dst. The transformed stream is inflated whole
// first; the transform is then undone from memory in one pass over the items.
func columnarDecompress(dst, body []byte, rawLen int) ([]byte, error) {
	h, err := parseRawHeader(body)
	if err != nil {
		return dst, err
	}
	// Each item record occupies at least its fixed part, bounding how many
	// items a claimed raw size can hold — checked before sizing anything by
	// nitems so a corrupt count cannot force a huge allocation.
	fixed := 8*h.dims + 4
	if h.length > rawLen || h.nitems > (rawLen-h.length)/fixed {
		return dst, fmt.Errorf("%w: item count %d exceeds raw size %d", errCorrupt, h.nitems, rawLen)
	}
	f := inflaters.Get().(*inflater)
	defer inflaters.Put(f)
	// The stream is the item records with each 4-byte value length traded
	// for a uvarint of at most 5 bytes: a longer stream is corrupt.
	s, err := f.inflate(body[h.length:], rawLen-h.length+h.nitems)
	if errors.Is(err, errStreamTooLong) {
		return dst, fmt.Errorf("%w: transformed body longer than items need", errCorrupt)
	}
	if err != nil {
		return dst, fmt.Errorf("%w: transformed body: %v", errCorrupt, err)
	}

	// Value lengths first: they fix every item record's size.
	pos, off := 0, h.length
	for i := 0; i < h.nitems; i++ {
		vlen, n := binary.Uvarint(s[pos:])
		if n <= 0 || vlen > math.MaxUint32 {
			return dst, fmt.Errorf("%w: bad value length for item %d", errCorrupt, i)
		}
		pos += n
		if off += fixed + int(vlen); off > rawLen {
			return dst, fmt.Errorf("%w: items overflow raw size at item %d", errCorrupt, i)
		}
	}
	if off != rawLen {
		return dst, fmt.Errorf("%w: items cover %d of %d raw bytes", errCorrupt, off, rawLen)
	}
	// What follows is exactly the coordinate columns and the value bytes.
	if rest, want := len(s)-pos, rawLen-h.length-4*h.nitems; rest != want {
		return dst, fmt.Errorf("%w: transformed body has %d bytes after the value lengths, items need %d", errCorrupt, rest, want)
	}
	coords, values := s[pos:], s[pos+8*h.dims*h.nitems:]

	// Item records in order: coordinates from the XOR-delta columns (chains
	// seeded from the MBR low corner), the value length, the value bytes.
	prev := f.prev[:0]
	for d := 0; d < h.dims; d++ {
		prev = append(prev, binary.LittleEndian.Uint64(body[h.mbrOff+8*d:]))
	}
	f.prev = prev
	dst = slices.Grow(dst, rawLen)
	dst = append(dst, body[:h.length]...)
	pos = 0
	for i := 0; i < h.nitems; i++ {
		vlen, n := binary.Uvarint(s[pos:])
		pos += n
		for d := range prev {
			prev[d] ^= binary.LittleEndian.Uint64(coords[8*(d*h.nitems+i):])
			dst = binary.LittleEndian.AppendUint64(dst, prev[d])
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(vlen))
		dst = append(dst, values[:vlen]...)
		values = values[vlen:]
	}
	return dst, nil
}
