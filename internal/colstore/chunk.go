package colstore

import (
	"encoding/binary"
	"fmt"
)

// A chunk is a batch as bytes: uvarint column count, then per column a
// uvarint length and the column's block in its best encoding. A vft wire
// message and a WAL load record's per-node body are both exactly this.

// AppendChunk appends the chunk encoding of b to dst. Each block is encoded
// in place and its length inserted before it once known, as ChunkParts does.
func AppendChunk(dst []byte, b *Batch) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(b.Cols)))
	for _, col := range b.Cols {
		start := len(dst)
		blk, _, err := appendColumn(dst, col, false)
		if err != nil {
			return nil, err
		}
		dst = insertUvarint(blk, start, uint64(len(blk)-start))
	}
	return dst, nil
}

// ChunkParts returns byte slices that concatenate to exactly the chunk
// AppendChunk writes for b, without copying the values a block can be
// written from in place: a PLAIN INTEGER or FLOAT block's payload on a
// little-endian host is a part of its own, the vector's memory. Everything
// else — the column count, block lengths and headers, every other encoding —
// is appended to buf, whose grown form is returned for the caller's next
// call, on errors too. The parts alias b and buf: they are valid while
// neither is written. ChunkParts itself writes buf only past its length, so
// the parts of an earlier call on the same buf stay valid.
func ChunkParts(buf []byte, b *Batch) (parts [][]byte, grown []byte, err error) {
	from := len(buf)
	buf = binary.AppendUvarint(buf, uint64(len(b.Cols)))
	var cuts []int      // per part of values: where buf's bytes before it end
	var values [][]byte // those parts
	for _, col := range b.Cols {
		start := len(buf)
		blk, vals, err := appendColumn(buf, col, true)
		if err != nil {
			return nil, buf, err
		}
		buf = insertUvarint(blk, start, uint64(len(blk)-start+len(vals)))
		if len(vals) > 0 {
			cuts, values = append(cuts, len(buf)), append(values, vals)
		}
	}
	for i, cut := range cuts {
		parts = append(parts, buf[from:cut:cut], values[i])
		from = cut
	}
	if from < len(buf) {
		parts = append(parts, buf[from:])
	}
	return parts, buf, nil
}

// appendColumn is a chunk's per-column step: col's block, in its best
// encoding, appended to buf. With byRef, a block whose payload is the
// vector's own memory (plainWords) stops after its header, and the payload
// is returned as values instead of copied.
func appendColumn(buf []byte, col *Vector, byRef bool) (out, values []byte, err error) {
	enc := BestEncoding(col)
	if byRef && enc == EncPlain {
		if values = plainWords(col); values != nil {
			return appendBlockHeader(buf, col, enc), values, nil
		}
	}
	out, err = AppendBlock(buf, col, enc)
	return out, nil, err
}

// insertUvarint inserts x, as a uvarint, at buf[at], shifting what follows.
func insertUvarint(buf []byte, at int, x uint64) []byte {
	var enc [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(enc[:], x)
	buf = append(buf, enc[:n]...)
	copy(buf[at+n:], buf[at:])
	copy(buf[at:], enc[:n])
	return buf
}

// CutChunk splits the chunk at the head of msg from the bytes after it
// without decoding it: only the column count and the block lengths are read.
// What the cut does not check — the schema, the blocks themselves — is
// DecodeChunkInto's, which the returned chunk is exactly the input of.
func CutChunk(msg []byte) (chunk, rest []byte, err error) {
	ncols, off := binary.Uvarint(msg)
	if off <= 0 {
		return nil, nil, fmt.Errorf("colstore: corrupt chunk header")
	}
	for i := uint64(0); i < ncols; i++ {
		l, n := binary.Uvarint(msg[off:])
		if n <= 0 || uint64(len(msg)-off-n) < l {
			return nil, nil, fmt.Errorf("colstore: truncated chunk column %d", i)
		}
		off += n + int(l)
	}
	return msg[:off:off], msg[off:], nil
}

// DecodeChunkInto decodes the chunk at the head of msg into dst, appending
// to dst's columns (callers reusing a batch Reset it first), and
// returns the bytes after it. dst's schema is the expected schema; a chunk
// that disagrees — column count, block types, row counts, or any corruption
// the block decoder detects — returns an error, never a panic, and never
// reads past msg.
func DecodeChunkInto(dst *Batch, msg []byte) (rest []byte, err error) {
	r := ChunkReader{cur: msg}
	if err := r.Decode(dst); err != nil {
		return nil, err
	}
	return r.cur, nil
}

// A ChunkReader decodes a run of chunks given in parts whose bytes, back to
// back, are the run (an export's message, its stored blocks parts of their
// own). No uvarint or block may span two parts.
type ChunkReader struct {
	parts [][]byte
	cur   []byte // the part being read, from the next byte on
}

// NewChunkReader reads the run whose bytes are parts, back to back.
func NewChunkReader(parts [][]byte) ChunkReader { return ChunkReader{parts: parts} }

// More reports whether bytes are left to decode.
func (r *ChunkReader) More() bool {
	r.skip()
	return len(r.cur) > 0
}

func (r *ChunkReader) skip() {
	for len(r.cur) == 0 && len(r.parts) > 0 {
		r.cur, r.parts = r.parts[0], r.parts[1:]
	}
}

func (r *ChunkReader) uvarint() (uint64, bool) {
	r.skip()
	x, n := binary.Uvarint(r.cur)
	if n <= 0 {
		return 0, false
	}
	r.cur = r.cur[n:]
	return x, true
}

// Decode decodes the next chunk into dst, as DecodeChunkInto does.
func (r *ChunkReader) Decode(dst *Batch) error {
	schema := dst.Schema
	ncols, ok := r.uvarint()
	if !ok {
		return fmt.Errorf("colstore: corrupt chunk header")
	}
	if ncols != uint64(len(schema)) {
		return fmt.Errorf("colstore: chunk has %d columns, schema has %d", ncols, len(schema))
	}
	for i := range schema {
		l, ok := r.uvarint()
		if r.skip(); !ok || uint64(len(r.cur)) < l {
			return fmt.Errorf("colstore: truncated chunk column %d", i)
		}
		blk := r.cur[:l]
		if len(blk) > 0 && Type(blk[0]) != schema[i].Type {
			return fmt.Errorf("colstore: chunk column %d is %v, want %v", i, Type(blk[0]), schema[i].Type)
		}
		if err := DecodeBlockInto(dst.Cols[i], blk); err != nil {
			return err
		}
		r.cur = r.cur[l:]
	}
	return dst.Validate()
}
