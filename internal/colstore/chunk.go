package colstore

import (
	"encoding/binary"
	"fmt"
)

// A chunk is a batch as bytes: uvarint column count, then per column a
// uvarint length and the column's block in its best encoding. A vft wire
// message and a WAL load record's per-node body are both exactly this.

// AppendChunk appends the chunk encoding of b to dst. Blocks are length-
// prefixed, so each is encoded into scratch first and then copied behind its
// length; the (possibly grown) scratch is returned for the caller's next
// chunk, on errors too, so a pooled buffer finds its way back.
func AppendChunk(dst, scratch []byte, b *Batch) (chunk, grown []byte, err error) {
	dst = binary.AppendUvarint(dst, uint64(len(b.Cols)))
	for _, col := range b.Cols {
		blk, _, err := appendColumn(scratch[:0], col, false)
		if err != nil {
			return nil, scratch, err
		}
		scratch = blk
		dst = binary.AppendUvarint(dst, uint64(len(blk)))
		dst = append(dst, blk...)
	}
	return dst, scratch, nil
}

// ChunkParts returns byte slices that concatenate to exactly the chunk
// AppendChunk writes for b, without copying the values a block can be
// written from in place: a PLAIN INTEGER or FLOAT block's payload on a
// little-endian host is a part of its own, the vector's memory. Everything
// else — the column count, block lengths and headers, every other encoding —
// is appended to buf, whose grown form is returned for the caller's next
// call, on errors too. The parts alias b and buf: they are valid while
// neither is written.
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

// AppendStoredChunk appends to dst the chunk whose columns are the given
// blocks, already encoded (a sealed block row, as ScanCursor.NextStored hands
// it out): what AppendChunk writes, without the encoding. The blocks are only
// read.
func AppendStoredChunk(dst []byte, blocks [][]byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(blocks)))
	for _, blk := range blocks {
		dst = binary.AppendUvarint(dst, uint64(len(blk)))
		dst = append(dst, blk...)
	}
	return dst
}

// DecodeChunkInto decodes the chunk at the head of msg into dst, appending
// to dst's columns (callers reusing a pooled batch Reset it first), and
// returns the bytes after it. dst's schema is the expected schema; a chunk
// that disagrees — column count, block types, row counts, or any corruption
// the block decoder detects — returns an error, never a panic, and never
// reads past msg.
func DecodeChunkInto(dst *Batch, msg []byte) (rest []byte, err error) {
	schema := dst.Schema
	ncols, n := binary.Uvarint(msg)
	if n <= 0 {
		return nil, fmt.Errorf("colstore: corrupt chunk header")
	}
	if ncols != uint64(len(schema)) {
		return nil, fmt.Errorf("colstore: chunk has %d columns, schema has %d", ncols, len(schema))
	}
	msg = msg[n:]
	for i := range schema {
		l, n := binary.Uvarint(msg)
		if n <= 0 || uint64(len(msg)-n) < l {
			return nil, fmt.Errorf("colstore: truncated chunk column %d", i)
		}
		msg = msg[n:]
		blk := msg[:l]
		if len(blk) > 0 && Type(blk[0]) != schema[i].Type {
			return nil, fmt.Errorf("colstore: chunk column %d is %v, want %v", i, Type(blk[0]), schema[i].Type)
		}
		if err := DecodeBlockInto(dst.Cols[i], blk); err != nil {
			return nil, err
		}
		msg = msg[l:]
	}
	return msg, dst.Validate()
}
