package colstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"sync/atomic"

	"verticadr/internal/atomicfile"
)

// Segment file format (all integers little-endian unless varint):
//
//	magic "VSEGF1\n\x00"                                   (8 bytes)
//	sealed block payloads, concatenated column-major
//	footer:
//	  uvarint ncols
//	  per column: uvarint len(name), name, type byte, uvarint nblocks,
//	    per block: uvarint offset, uvarint length, uvarint rows,
//	               crc32 (4 bytes), stats byte, min float64, max float64
//	  uvarint total rows
//	footer length (8 bytes), footer crc32 (4 bytes), magic "VSEGEND1" (8 bytes)

var (
	segMagic    = []byte("VSEGF1\n\x00")
	segEndMagic = []byte("VSEGEND1")
)

// Persist seals the segment and writes it to path crash-atomically: the
// bytes go to a temp file in the same directory, which is fsynced before an
// atomic rename over path, and the parent directory is fsynced after — so a
// crash at any instant leaves either the complete old file or the complete
// new one, never a torn or unlinked segment.
func (s *Segment) Persist(path string) error {
	if err := s.Seal(); err != nil {
		return err
	}
	var body bytes.Buffer
	body.Write(segMagic)
	type blockMeta struct {
		off, length, rows int
		crc               uint32
		hasStats          bool
		min, max          float64
	}
	metas := make([][]blockMeta, len(s.schema))
	for ci := range s.schema {
		for _, ref := range s.sealed[ci] {
			m := blockMeta{
				off:      body.Len(),
				length:   len(ref.data),
				rows:     ref.rows,
				crc:      crc32.ChecksumIEEE(ref.data),
				hasStats: ref.hasStats,
				min:      ref.min,
				max:      ref.max,
			}
			body.Write(ref.data)
			metas[ci] = append(metas[ci], m)
		}
	}
	var footer bytes.Buffer
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(w *bytes.Buffer, v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		w.Write(scratch[:n])
	}
	putUvarint(&footer, uint64(len(s.schema)))
	for ci, col := range s.schema {
		putUvarint(&footer, uint64(len(col.Name)))
		footer.WriteString(col.Name)
		footer.WriteByte(byte(col.Type))
		putUvarint(&footer, uint64(len(metas[ci])))
		for _, m := range metas[ci] {
			putUvarint(&footer, uint64(m.off))
			putUvarint(&footer, uint64(m.length))
			putUvarint(&footer, uint64(m.rows))
			var crcb [4]byte
			binary.LittleEndian.PutUint32(crcb[:], m.crc)
			footer.Write(crcb[:])
			if m.hasStats {
				footer.WriteByte(1)
			} else {
				footer.WriteByte(0)
			}
			var f8 [8]byte
			binary.LittleEndian.PutUint64(f8[:], math.Float64bits(m.min))
			footer.Write(f8[:])
			binary.LittleEndian.PutUint64(f8[:], math.Float64bits(m.max))
			footer.Write(f8[:])
		}
	}
	putUvarint(&footer, uint64(s.rows))

	body.Write(footer.Bytes())
	var tail [8 + 4]byte
	binary.LittleEndian.PutUint64(tail[:8], uint64(footer.Len()))
	binary.LittleEndian.PutUint32(tail[8:], crc32.ChecksumIEEE(footer.Bytes()))
	body.Write(tail[:])
	body.Write(segEndMagic)

	if err := atomicfile.WriteFile(path, body.Bytes(), 0o644); err != nil {
		return fmt.Errorf("colstore: persist: %w", err)
	}
	return nil
}

// OpenSegment reads a segment file written by Persist, verifying checksums.
func OpenSegment(path string) (*Segment, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("colstore: open segment: %w", err)
	}
	minSize := len(segMagic) + 8 + 4 + len(segEndMagic)
	if len(data) < minSize {
		return nil, fmt.Errorf("colstore: segment file %q too short", path)
	}
	if !bytes.Equal(data[:len(segMagic)], segMagic) {
		return nil, fmt.Errorf("colstore: %q is not a segment file (bad magic)", path)
	}
	if !bytes.Equal(data[len(data)-len(segEndMagic):], segEndMagic) {
		return nil, fmt.Errorf("colstore: %q truncated (bad end magic)", path)
	}
	tailOff := len(data) - len(segEndMagic) - 12
	footerLen := int(binary.LittleEndian.Uint64(data[tailOff : tailOff+8]))
	footerCRC := binary.LittleEndian.Uint32(data[tailOff+8 : tailOff+12])
	footerOff := tailOff - footerLen
	if footerOff < len(segMagic) {
		return nil, fmt.Errorf("colstore: %q corrupt footer length", path)
	}
	footer := data[footerOff:tailOff]
	if crc32.ChecksumIEEE(footer) != footerCRC {
		return nil, fmt.Errorf("colstore: %q footer checksum mismatch", path)
	}

	r := bytes.NewReader(footer)
	readUvarint := func() (uint64, error) { return binary.ReadUvarint(r) }
	ncols, err := readUvarint()
	if err != nil {
		return nil, fmt.Errorf("colstore: corrupt footer: %w", err)
	}
	schema := make(Schema, 0, ncols)
	sealed := make([][]blockRef, 0, ncols)
	for c := uint64(0); c < ncols; c++ {
		nameLen, err := readUvarint()
		if err != nil {
			return nil, err
		}
		name := make([]byte, nameLen)
		if _, err := r.Read(name); err != nil {
			return nil, err
		}
		tb, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		schema = append(schema, ColumnSchema{Name: string(name), Type: Type(tb)})
		nblocks, err := readUvarint()
		if err != nil {
			return nil, err
		}
		refs := make([]blockRef, 0, nblocks)
		for b := uint64(0); b < nblocks; b++ {
			off, err := readUvarint()
			if err != nil {
				return nil, err
			}
			length, err := readUvarint()
			if err != nil {
				return nil, err
			}
			rows, err := readUvarint()
			if err != nil {
				return nil, err
			}
			var crcb [4]byte
			if _, err := r.Read(crcb[:]); err != nil {
				return nil, err
			}
			statB, err := r.ReadByte()
			if err != nil {
				return nil, err
			}
			var f8 [8]byte
			if _, err := r.Read(f8[:]); err != nil {
				return nil, err
			}
			minV := math.Float64frombits(binary.LittleEndian.Uint64(f8[:]))
			if _, err := r.Read(f8[:]); err != nil {
				return nil, err
			}
			maxV := math.Float64frombits(binary.LittleEndian.Uint64(f8[:]))
			if int(off)+int(length) > footerOff {
				return nil, fmt.Errorf("colstore: block extent out of range in %q", path)
			}
			blk := data[int(off) : int(off)+int(length)]
			if crc32.ChecksumIEEE(blk) != binary.LittleEndian.Uint32(crcb[:]) {
				return nil, fmt.Errorf("colstore: block checksum mismatch in %q (col %d block %d)", path, c, b)
			}
			refs = append(refs, blockRef{
				data:     append(alignedBlockBuf(int(rows), len(blk)), blk...),
				rows:     int(rows),
				hasStats: statB == 1,
				min:      minV,
				max:      maxV,
			})
		}
		sealed = append(sealed, refs)
	}
	totalRows, err := readUvarint()
	if err != nil {
		return nil, err
	}
	seg := &Segment{
		schema:    schema,
		blockRows: DefaultBlockRows,
		sealed:    sealed,
		tail:      NewBatch(schema),
		claim:     new(atomic.Int64),
		rows:      int(totalRows),
	}
	return seg, nil
}
