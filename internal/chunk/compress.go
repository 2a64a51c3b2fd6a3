package chunk

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"adr/internal/space"
)

// Chunk compression. A compressed chunk travels as a self-describing
// envelope that wraps the raw Encode payload:
//
//	magic     uint32  'ADRZ' (distinct from the raw chunk magic)
//	version   uint8   2
//	codec     uint8   Codec that produced the body
//	rawSize   uint32  exact length of the decompressed Encode payload
//	body      codec-specific bytes
//
// Because the envelope is recognisable from its first four bytes, the same
// payload works on every byte-bound path — disk segments, the chunk cache
// and RPC frames — and a reader need not know how a dataset was loaded
// (Decompress is cheap to probe and a no-op on raw payloads). Decompression
// always reproduces the raw encoding bit-for-bit, so query results are
// byte-identical with or without compression.
//
// CodecColumnar exploits the chunk layout itself: coordinates of items in
// one chunk are spatially close (the MBR bounds them), so the XOR of
// consecutive coordinates' IEEE-754 bit patterns has zero high bytes, and
// small fixed-point values have zero high bytes once zigzagged. Every such
// word is stored without its leading and trailing zero bytes, so decoding
// is a byte load and a shift per word, with nothing inflated. Version 1
// envelopes (DEFLATE-based) are refused by name.
const (
	compMagic   = 0x4144525a // "ADRZ"
	compVersion = 2

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
	// CodecColumnar applies the chunk-aware columnar transform: value
	// lengths as uvarints, per-dimension coordinate XOR deltas and the
	// values as zero-byte-suppressed words.
	CodecColumnar Codec = 2
)

// String returns the flag spelling of the codec.
func (c Codec) String() string {
	switch c {
	case CodecNone:
		return "none"
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
	case "columnar":
		return CodecColumnar, nil
	}
	return CodecNone, fmt.Errorf("chunk: unknown codec %q (want none or columnar)", s)
}

// DefaultMinRatio is the adaptive skip threshold: a chunk whose envelope
// does not shrink below this fraction of the raw payload is stored raw, so
// incompressible data never pays decompression on the read path.
const DefaultMinRatio = 0.9

// Compress wraps a raw Encode payload in a compressed envelope using codec.
// It returns the payload to store or send plus the codec actually used:
// (raw, CodecNone) — raw itself, not a copy — when codec is CodecNone, when
// the transform fails on an irregular payload, or when the envelope does not
// shrink below minRatio of the raw size (minRatio <= 0 selects
// DefaultMinRatio). The skip path is what keeps already-dense chunks from
// paying decompression for nothing.
func Compress(raw []byte, codec Codec, minRatio float64) ([]byte, Codec) {
	if codec != CodecColumnar {
		return raw, CodecNone
	}
	if minRatio <= 0 {
		minRatio = DefaultMinRatio
	}
	env := binary.LittleEndian.AppendUint32(make([]byte, 0, envHeaderLen+len(raw)), compMagic)
	env = append(env, compVersion, byte(codec))
	env = binary.LittleEndian.AppendUint32(env, uint32(len(raw)))
	env, err := columnarCompress(env, raw)
	if err != nil || float64(len(env)) >= minRatio*float64(len(raw)) {
		return raw, CodecNone
	}
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
	return DecompressTo(nil, buf)
}

// DecompressTo appends buf's raw Encode payload to dst and returns the
// extended slice; dst typically comes from bufpool sized by RawLen, and
// then nothing is allocated. A raw (non-enveloped) buf is appended
// verbatim. Malformed envelopes return dst unextended and an error wrapping
// errCorrupt.
func DecompressTo(dst, buf []byte) ([]byte, error) {
	if !IsCompressed(buf) {
		return append(dst, buf...), nil
	}
	if v := buf[4]; v != compVersion {
		if v == 1 {
			return dst, fmt.Errorf("%w: envelope version 1 (DEFLATE-based) is no longer read; reload the dataset with adr-load", errCorrupt)
		}
		return dst, fmt.Errorf("%w: unsupported envelope version %d", errCorrupt, v)
	}
	if codec := Codec(buf[5]); codec != CodecColumnar {
		return dst, fmt.Errorf("%w: unknown envelope codec %d", errCorrupt, codec)
	}
	// Every body byte yields at most 8 raw bytes (a word's control byte
	// stands for 8), so a claimed size past that, or past maxRawLen, is
	// refused before anything is sized by it.
	rawLen, body := int(binary.LittleEndian.Uint32(buf[6:])), buf[envHeaderLen:]
	if rawLen > maxRawLen || rawLen > 8*len(body) {
		return dst, fmt.Errorf("%w: envelope claims %d raw bytes from a %d-byte body", errCorrupt, rawLen, len(body))
	}
	return columnarDecompress(dst, body, rawLen)
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

// rawHeader is the light parse of a raw Encode payload's fixed prefix that
// the columnar transform needs: it stops before the item records.
type rawHeader struct {
	dims   int
	nitems int
	length int // header bytes: everything before the first item record
	mbrOff int // offset of MBR Lo[0] within the payload
}

// parseRawHeader validates the fixed prefix of a raw chunk encoding, with
// Decode's checks on it.
func parseRawHeader(raw []byte) (rawHeader, error) {
	var h rawHeader
	if len(raw) < 24 {
		return h, fmt.Errorf("%w: %d bytes is shorter than a chunk header", errCorrupt, len(raw))
	}
	if binary.LittleEndian.Uint32(raw) != magic || raw[4] != version {
		return h, fmt.Errorf("%w: not a raw chunk encoding", errCorrupt)
	}
	h.dims = int(raw[5])
	if h.dims == 0 || h.dims > space.MaxDims {
		return h, fmt.Errorf("%w: dims %d out of range", errCorrupt, h.dims)
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

// A word is a uint64 stored without its zero high and low bytes: one
// control byte, leading zero bytes << 4 | trailing zero bytes, then the
// 8 − lz − tz bytes between them, low first. Zero is the control byte
// 8 << 4 alone. Exactly one control byte describes each word, which is what
// lets the decoder refuse every other spelling.
func wordCtl(w uint64) byte {
	if w == 0 {
		return 8 << 4
	}
	return byte(bits.LeadingZeros64(w)/8<<4 | bits.TrailingZeros64(w)/8)
}

func appendWord(dst []byte, w uint64) []byte {
	ctl := wordCtl(w)
	dst = append(dst, ctl)
	w >>= 8 * (ctl & 15)
	for n := 8 - ctl>>4 - ctl&15; n > 0; n-- {
		dst = append(dst, byte(w))
		w >>= 8
	}
	return dst
}

// readWord decodes the word whose control byte is body[pos] and returns it
// with the position after it. A control byte with lz + tz > 8, a word that
// runs past body and a non-canonical spelling are corrupt.
func readWord(body []byte, pos int) (uint64, int, error) {
	if pos >= len(body) {
		return 0, pos, fmt.Errorf("%w: word at %d past the body", errCorrupt, pos)
	}
	ctl := body[pos]
	lz, tz := int(ctl>>4), int(ctl&15)
	n := 8 - lz - tz
	if n < 0 {
		return 0, pos, fmt.Errorf("%w: word control %#x has %d+%d zero bytes", errCorrupt, ctl, lz, tz)
	}
	var w uint64
	if pos+9 <= len(body) {
		// One load; the mask drops the bytes past the word.
		w = binary.LittleEndian.Uint64(body[pos+1:]) & (^uint64(0) >> (64 - 8*n))
	} else {
		if pos+1+n > len(body) {
			return 0, pos, fmt.Errorf("%w: word at %d runs past the body", errCorrupt, pos)
		}
		for k := n; k > 0; k-- {
			w = w<<8 | uint64(body[pos+k])
		}
	}
	w <<= 8 * tz
	if wordCtl(w) != ctl {
		return 0, pos, fmt.Errorf("%w: non-canonical word control %#x at %d", errCorrupt, ctl, pos)
	}
	return w, pos + 1 + n, nil
}

// zigzag maps small negative and positive integers alike to small words.
func zigzag(v uint64) uint64   { return v<<1 ^ uint64(int64(v)>>63) }
func unzigzag(z uint64) uint64 { return z>>1 ^ -(z & 1) }

// columnarCompress appends the columnar body of a raw encoding to dst:
//
//	header    raw[:headerLen] unchanged (self-describing: dims, items, MBR)
//	vlens     nitems uvarints, item value lengths
//	coords    dims columns; column d is nitems words of bits(coord) XOR
//	          bits(previous coord), the chain seeded from bits(MBR.Lo[d])
//	values    per item, an 8-byte value as the word of its zigzagged
//	          little-endian int64, any other length verbatim
//
// The XOR-delta columns turn spatial locality into zero bytes — nearby
// coordinates share sign, exponent and high mantissa bits (leading zeros)
// and grid-quantized coordinates share empty low mantissa bits (trailing
// zeros) — and the word form drops them.
func columnarCompress(dst, raw []byte) ([]byte, error) {
	h, err := parseRawHeader(raw)
	if err != nil {
		return nil, err
	}
	// Walk the item records once, collecting their offsets.
	offs := make([]int, h.nitems)
	fixed := 8*h.dims + 4
	off := h.length
	for i := range offs {
		if off+fixed > len(raw) {
			return nil, fmt.Errorf("%w: item %d truncated", errCorrupt, i)
		}
		offs[i] = off
		off += fixed + int(binary.LittleEndian.Uint32(raw[off+8*h.dims:]))
		if off > len(raw) {
			return nil, fmt.Errorf("%w: item %d value truncated", errCorrupt, i)
		}
	}
	if off != len(raw) {
		return nil, fmt.Errorf("%w: %d trailing bytes after items", errCorrupt, len(raw)-off)
	}

	dst = append(dst, raw[:h.length]...)
	for _, o := range offs {
		dst = binary.AppendUvarint(dst, uint64(binary.LittleEndian.Uint32(raw[o+8*h.dims:])))
	}
	for d := 0; d < h.dims; d++ {
		prev := binary.LittleEndian.Uint64(raw[h.mbrOff+8*d:])
		for _, o := range offs {
			b := binary.LittleEndian.Uint64(raw[o+8*d:])
			dst = appendWord(dst, b^prev)
			prev = b
		}
	}
	for _, o := range offs {
		v := raw[o+fixed : o+fixed+int(binary.LittleEndian.Uint32(raw[o+8*h.dims:]))]
		if len(v) == 8 {
			dst = appendWord(dst, zigzag(binary.LittleEndian.Uint64(v)))
		} else {
			dst = append(dst, v...)
		}
	}
	return dst, nil
}

// columnarDecompress reverses columnarCompress, writing the raw encoding
// bit-for-bit onto dst. The value lengths come first and fix every item
// record's offset, so each column's words are written straight to their
// places in the output; no scratch is needed. On error dst is returned
// unextended.
func columnarDecompress(dst, body []byte, rawLen int) ([]byte, error) {
	h, err := parseRawHeader(body)
	if err != nil {
		return dst, err
	}
	// Each item record occupies at least its fixed part, bounding how many
	// items a claimed raw size can hold.
	fixed := 8*h.dims + 4
	if h.length > rawLen || h.nitems > (rawLen-h.length)/fixed {
		return dst, fmt.Errorf("%w: item count %d exceeds raw size %d", errCorrupt, h.nitems, rawLen)
	}
	base := len(dst)
	dst = slices.Grow(dst, rawLen)[:base+rawLen]
	out := dst[base:]
	copy(out, body[:h.length])
	fail := func(err error) ([]byte, error) { return dst[:base], err }

	// Value lengths: each lands in its item record, and together they must
	// tile rawLen exactly.
	pos, off := h.length, h.length
	for i := 0; i < h.nitems; i++ {
		vlen, n := binary.Uvarint(body[pos:])
		if n <= 0 || vlen > math.MaxUint32 || (n > 1 && body[pos+n-1] == 0) {
			return fail(fmt.Errorf("%w: bad value length for item %d", errCorrupt, i))
		}
		pos += n
		if off+fixed > rawLen || int(vlen) > rawLen-off-fixed {
			return fail(fmt.Errorf("%w: items overflow raw size at item %d", errCorrupt, i))
		}
		binary.LittleEndian.PutUint32(out[off+8*h.dims:], uint32(vlen))
		off += fixed + int(vlen)
	}
	if off != rawLen {
		return fail(fmt.Errorf("%w: items cover %d of %d raw bytes", errCorrupt, off, rawLen))
	}
	// Coordinate columns, each chain seeded from the MBR low corner.
	var w uint64
	for d := 0; d < h.dims; d++ {
		prev := binary.LittleEndian.Uint64(body[h.mbrOff+8*d:])
		for i, off := 0, h.length; i < h.nitems; i++ {
			if w, pos, err = readWord(body, pos); err != nil {
				return fail(err)
			}
			prev ^= w
			binary.LittleEndian.PutUint64(out[off+8*d:], prev)
			off += fixed + int(binary.LittleEndian.Uint32(out[off+8*h.dims:]))
		}
	}
	// Values.
	for i, off := 0, h.length; i < h.nitems; i++ {
		vlen := int(binary.LittleEndian.Uint32(out[off+8*h.dims:]))
		v := out[off+fixed : off+fixed+vlen]
		if vlen == 8 {
			if w, pos, err = readWord(body, pos); err != nil {
				return fail(err)
			}
			binary.LittleEndian.PutUint64(v, unzigzag(w))
		} else {
			if vlen > len(body)-pos {
				return fail(fmt.Errorf("%w: value of item %d runs past the body", errCorrupt, i))
			}
			pos += copy(v, body[pos:pos+vlen])
		}
		off += fixed + vlen
	}
	if pos != len(body) {
		return fail(fmt.Errorf("%w: %d trailing bytes after the values", errCorrupt, len(body)-pos))
	}
	return dst, nil
}
