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
		blk, err := AppendBlock(scratch[:0], col, BestEncoding(col))
		if err != nil {
			return nil, scratch, err
		}
		scratch = blk
		dst = binary.AppendUvarint(dst, uint64(len(blk)))
		dst = append(dst, blk...)
	}
	return dst, scratch, nil
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
