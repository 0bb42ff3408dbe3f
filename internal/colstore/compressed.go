package colstore

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"verticadr/internal/verr"
)

// Compressed execution ("The Vertica Analytic Database: C-Store 7 Years
// Later"): scans evaluate predicates directly on the encoded block form and
// decode only the rows that survive.
//
//   - RLE blocks compare once per run, not once per row, and emit the whole
//     run's row range on a match — O(runs) comparisons.
//   - Dictionary blocks resolve the comparison once per dictionary entry,
//     then match rows on the varint codes without materializing a single
//     string. An equality probe for a value absent from the dictionary
//     selects nothing after |dict| comparisons.
//   - Surviving rows late-materialize through DecodeBlockSel: non-predicate
//     columns decode only the selected rows instead of decode-all + gather.
//
// The compressed path must be bit-identical to decode-then-filter, including
// which inputs it rejects: every validation the eager decoder performs is
// performed here too, with the same error for the same corruption, even when
// the corruption lies outside the selected rows. The difftest and fuzz
// harnesses pin that equivalence.

// splitBlockHeader parses the [type][encoding][uvarint rows] block header.
// ok=false means the header is unusable for compressed evaluation; callers
// fall back to the eager decoder, which reports the canonical error.
func splitBlockHeader(data []byte) (typ Type, enc Encoding, n int, payload []byte, ok bool) {
	if len(data) < 3 {
		return 0, 0, 0, nil, false
	}
	typ = Type(data[0])
	switch typ {
	case TypeInt64, TypeFloat64, TypeString, TypeBool:
	default:
		return 0, 0, 0, nil, false
	}
	enc = Encoding(data[1])
	rest := data[2:]
	count, m := binary.Uvarint(rest)
	if m <= 0 || count > MaxBlockRows {
		return 0, 0, 0, nil, false
	}
	return typ, enc, int(count), rest[m:], true
}

// MatchBlockCompressed evaluates pred directly on an encoded block, returning
// the matching row indexes (appended into scratch[:0], ascending). handled is
// false when the block's encoding has no compressed evaluation (PLAIN, DELTA,
// or a malformed header) — the caller then decodes eagerly and filters with
// Pred.selectRows; both routes accept and reject exactly the same blocks.
func MatchBlockCompressed(data []byte, pred *Pred, scratch []int) (idx []int, handled bool, err error) {
	typ, enc, n, rest, ok := splitBlockHeader(data)
	if !ok {
		return nil, false, nil
	}
	switch enc {
	case EncRLE:
		idx, err = matchRLERuns(typ, rest, n, pred, scratch)
		return idx, true, err
	case EncDict:
		if typ != TypeString {
			return nil, false, nil
		}
		idx, err = matchDictCodes(rest, n, pred, scratch)
		return idx, true, err
	}
	return nil, false, nil
}

// matchRLERuns walks (runlen, value) pairs, comparing each distinct value
// once. Validation mirrors decodeRLE exactly: same checks, same errors. The
// boxed comparison reproduces selectRows' semantics — int/float widening,
// NaN incomparable (compares equal to everything), and the same
// cannot-compare error on mixed types, raised only when the block has rows.
func matchRLERuns(typ Type, rest []byte, n int, pred *Pred, scratch []int) ([]int, error) {
	idx := scratch[:0]
	total := 0
	for total < n {
		run, m := binary.Uvarint(rest)
		if m <= 0 {
			return nil, fmt.Errorf("colstore: truncated RLE block")
		}
		if run == 0 || run > uint64(n-total) {
			return nil, fmt.Errorf("colstore: RLE run %d exceeds remaining %d rows", run, n-total)
		}
		rest = rest[m:]
		var val any
		switch typ {
		case TypeInt64, TypeFloat64:
			if len(rest) < 8 {
				return nil, fmt.Errorf("colstore: truncated RLE value")
			}
			u := binary.LittleEndian.Uint64(rest)
			rest = rest[8:]
			if typ == TypeInt64 {
				val = int64(u)
			} else {
				val = math.Float64frombits(u)
			}
		case TypeString:
			l, m := binary.Uvarint(rest)
			if m <= 0 || uint64(len(rest)-m) < l {
				return nil, fmt.Errorf("colstore: truncated RLE string")
			}
			rest = rest[m:]
			val = string(rest[:l])
			rest = rest[l:]
		case TypeBool:
			if len(rest) < 1 {
				return nil, fmt.Errorf("colstore: truncated RLE bool")
			}
			val = rest[0] != 0
			rest = rest[1:]
		}
		c, err := CompareValues(val, pred.Val)
		if err != nil {
			return nil, err
		}
		if pred.Op.Match(c) {
			for r := total; r < total+int(run); r++ {
				idx = append(idx, r)
			}
		}
		total += int(run)
	}
	if total != n {
		return nil, fmt.Errorf("colstore: RLE block decoded %d rows, want %d", total, n)
	}
	return idx, nil
}

// matchDictCodes resolves the predicate once against each dictionary entry,
// then matches rows on the varint codes alone — no string is materialized
// for the row data. The code walk runs even when no entry matched (or the
// block is empty): the decode-first path validates every code, so this path
// must reject the same corrupt blocks. Entry comparisons are skipped when
// n == 0 because the eager route never evaluates a predicate over zero rows.
func matchDictCodes(rest []byte, n int, pred *Pred, scratch []int) ([]int, error) {
	idx := scratch[:0]
	dn, m := binary.Uvarint(rest)
	if m <= 0 {
		return nil, fmt.Errorf("colstore: truncated dict header")
	}
	rest = rest[m:]
	if dn > uint64(len(rest)) {
		return nil, fmt.Errorf("colstore: dict claims %d entries in %d bytes", dn, len(rest))
	}
	matched := make([]bool, dn)
	for i := uint64(0); i < dn; i++ {
		l, m := binary.Uvarint(rest)
		if m <= 0 || uint64(len(rest)-m) < l {
			return nil, fmt.Errorf("colstore: truncated dict entry")
		}
		rest = rest[m:]
		entry := rest[:l]
		rest = rest[l:]
		if n == 0 {
			continue
		}
		c, err := CompareValues(string(entry), pred.Val)
		if err != nil {
			return nil, err
		}
		if pred.Op.Match(c) {
			matched[i] = true
		}
	}
	for i := 0; i < n; i++ {
		c, m := binary.Uvarint(rest)
		if m <= 0 {
			return nil, fmt.Errorf("colstore: truncated dict codes")
		}
		rest = rest[m:]
		if c >= dn {
			return nil, fmt.Errorf("colstore: dict code %d out of range %d", c, int(dn))
		}
		if matched[c] {
			idx = append(idx, i)
		}
	}
	return idx, nil
}

// DecodeBlockSel decodes only the rows selected by sel (ascending block-row
// indexes, duplicates allowed) and appends them to v — the late-
// materialization form of DecodeBlockInto. It validates the entire block
// exactly as the full decoder does, so corrupt input is rejected with the
// same error even when the corruption lies past the last selected row; only
// the materialization (value appends, string allocation) is skipped.
func DecodeBlockSel(v *Vector, data []byte, sel []int) error {
	if len(data) < 3 {
		return fmt.Errorf("colstore: block too short (%d bytes)", len(data))
	}
	typ := Type(data[0])
	switch typ {
	case TypeInt64, TypeFloat64, TypeString, TypeBool:
	default:
		return fmt.Errorf("colstore: unknown type byte %d", data[0])
	}
	if typ != v.Type {
		return fmt.Errorf("colstore: decode %v block into %v vector", typ, v.Type)
	}
	enc := Encoding(data[1])
	rest := data[2:]
	count, m := binary.Uvarint(rest)
	if m <= 0 {
		return fmt.Errorf("colstore: corrupt block header")
	}
	if count > MaxBlockRows {
		return fmt.Errorf("colstore: block claims %d rows (max %d)", count, MaxBlockRows)
	}
	rest = rest[m:]
	n := int(count)
	if len(sel) > 0 && (sel[0] < 0 || sel[len(sel)-1] >= n) {
		return fmt.Errorf("colstore: selection index %d out of range %d rows", sel[len(sel)-1], n)
	}
	switch enc {
	case EncPlain:
		return decodePlainSel(v, rest, n, sel)
	case EncRLE:
		return decodeRLESel(v, rest, n, sel)
	case EncDelta:
		// Delta is a prefix sum: every varint decodes, only selected rows
		// land — none for a nil sel, which decodeDelta reads as every row.
		if sel == nil {
			sel = []int{}
		}
		return decodeDelta(v, rest, n, sel)
	case EncDict:
		return decodeDictSel(v, rest, n, sel)
	default:
		return fmt.Errorf("colstore: unknown encoding byte %d", data[1])
	}
}

func decodePlainSel(v *Vector, rest []byte, n int, sel []int) error {
	switch v.Type {
	case TypeInt64, TypeFloat64:
		if len(rest) < 8*n {
			return fmt.Errorf("colstore: truncated plain block")
		}
		// Fixed-width payload: selected rows decode by random access.
		for _, i := range sel {
			u := binary.LittleEndian.Uint64(rest[i*8:])
			if v.Type == TypeInt64 {
				v.Ints = append(v.Ints, int64(u))
			} else {
				v.Floats = append(v.Floats, math.Float64frombits(u))
			}
		}
	case TypeString:
		si := 0
		for i := 0; i < n; i++ {
			l, m := binary.Uvarint(rest)
			if m <= 0 || uint64(len(rest)-m) < l {
				return fmt.Errorf("colstore: truncated string block")
			}
			rest = rest[m:]
			for si < len(sel) && sel[si] == i {
				v.Strs = append(v.Strs, string(rest[:l]))
				si++
			}
			rest = rest[l:]
		}
	case TypeBool:
		if len(rest) < n {
			return fmt.Errorf("colstore: truncated bool block")
		}
		for _, i := range sel {
			v.Bools = append(v.Bools, rest[i] != 0)
		}
	default:
		return fmt.Errorf("colstore: decode invalid type %v", v.Type)
	}
	return nil
}

func decodeRLESel(v *Vector, rest []byte, n int, sel []int) error {
	total := 0
	si := 0
	for total < n {
		run, m := binary.Uvarint(rest)
		if m <= 0 {
			return fmt.Errorf("colstore: truncated RLE block")
		}
		if run == 0 || run > uint64(n-total) {
			return fmt.Errorf("colstore: RLE run %d exceeds remaining %d rows", run, n-total)
		}
		rest = rest[m:]
		end := total + int(run)
		switch v.Type {
		case TypeInt64, TypeFloat64:
			if len(rest) < 8 {
				return fmt.Errorf("colstore: truncated RLE value")
			}
			u := binary.LittleEndian.Uint64(rest)
			rest = rest[8:]
			for si < len(sel) && sel[si] < end {
				if v.Type == TypeInt64 {
					v.Ints = append(v.Ints, int64(u))
				} else {
					v.Floats = append(v.Floats, math.Float64frombits(u))
				}
				si++
			}
		case TypeString:
			l, m := binary.Uvarint(rest)
			if m <= 0 || uint64(len(rest)-m) < l {
				return fmt.Errorf("colstore: truncated RLE string")
			}
			rest = rest[m:]
			raw := rest[:l]
			rest = rest[l:]
			// Materialize the run's string once, and only if a row wants it.
			if si < len(sel) && sel[si] < end {
				s := string(raw)
				for si < len(sel) && sel[si] < end {
					v.Strs = append(v.Strs, s)
					si++
				}
			}
		case TypeBool:
			if len(rest) < 1 {
				return fmt.Errorf("colstore: truncated RLE bool")
			}
			b := rest[0] != 0
			rest = rest[1:]
			for si < len(sel) && sel[si] < end {
				v.Bools = append(v.Bools, b)
				si++
			}
		default:
			return fmt.Errorf("colstore: decode invalid type %v", v.Type)
		}
		total = end
	}
	if total != n {
		return fmt.Errorf("colstore: RLE block decoded %d rows, want %d", total, n)
	}
	return nil
}

func decodeDictSel(v *Vector, rest []byte, n int, sel []int) error {
	if v.Type != TypeString {
		return fmt.Errorf("colstore: DICT block with type %v", v.Type)
	}
	dict, rest, err := readDict(nil, rest)
	if err != nil {
		return err
	}
	si := 0
	for i := 0; i < n; i++ {
		c, m := binary.Uvarint(rest)
		if m <= 0 {
			return fmt.Errorf("colstore: truncated dict codes")
		}
		rest = rest[m:]
		if c >= uint64(len(dict)) {
			return fmt.Errorf("colstore: dict code %d out of range %d", c, len(dict))
		}
		for si < len(sel) && sel[si] == i {
			v.Strs = append(v.Strs, dict[c])
			si++
		}
	}
	return nil
}

// BlockCol is one column of a Block: one typed value per entry in Vals, or —
// for a dictionary-encoded block — one code per entry in Codes, indexing the
// block's dictionary in Vals.
type BlockCol struct {
	Vals  *Vector
	Codes []uint32
}

// Block is what NextBlock delivers: the projected columns of one sealed
// block (or of the unsealed tail) as typed entries. Entry i stands for
// Runs[i] consecutive rows in which every column is constant; a nil Runs
// means one row per entry.
type Block struct {
	Rows int
	Runs []int32
	Cols []BlockCol
}

// Len returns the number of entries.
func (b *Block) Len() int {
	if b.Runs != nil {
		return len(b.Runs)
	}
	return b.Rows
}

// colRuns is one RLE or dictionary column of a block decoded to its native
// runs: lens[i] rows hold vals[i] (RLE) or dictionary entry codes[i].
type colRuns struct {
	vals  *Vector
	view  Vector   // a PLAIN block in place (viewOrDecode), apart from vals
	codes []uint32 // nil unless the block is dictionary encoded
	lens  []int32
	sel   []int    // as a cut column: the source run each entry comes from
	buf   []uint32 // backs codes from block to block
}

// blockReader decodes sealed blocks into one Block, reusing every buffer
// from block to block.
type blockReader struct {
	schema Schema
	blk    Block
	cols   []colRuns // per-column decode
	out    []colRuns // run mode, several columns: each cut at the merged run boundaries
	runs   []int32   // the merged run lengths
	pos    []int     // intersect: each column's current run
	left   []int32   // intersect: rows left in it
}

func newBlockReader(schema Schema) *blockReader {
	r := &blockReader{
		schema: schema,
		cols:   make([]colRuns, len(schema)),
		out:    make([]colRuns, len(schema)),
		pos:    make([]int, len(schema)),
		left:   make([]int32, len(schema)),
	}
	r.blk.Cols = make([]BlockCol, len(schema))
	for i, c := range schema {
		r.cols[i].vals = NewVector(c.Type, 0)
		r.cols[i].view.Type = c.Type
		r.out[i].vals = NewVector(c.Type, 0)
	}
	return r
}

// decodeRLERuns appends an RLE payload's values to v and their run lengths
// to lens, with decodeRLE's validation and errors.
func decodeRLERuns(v *Vector, lens []int32, rest []byte, n int) ([]int32, error) {
	total := 0
	for total < n {
		run, m := binary.Uvarint(rest)
		if m <= 0 {
			return nil, fmt.Errorf("colstore: truncated RLE block")
		}
		if run == 0 || run > uint64(n-total) {
			return nil, fmt.Errorf("colstore: RLE run %d exceeds remaining %d rows", run, n-total)
		}
		var err error
		if rest, err = decodeOneRepeated(v, rest[m:], 1); err != nil {
			return nil, err
		}
		lens = append(lens, int32(run))
		total += int(run)
	}
	return lens, nil
}

// decodeDictCodes appends a dictionary payload's entries to dict and its n
// row codes to codes, with decodeDict's validation and errors.
func decodeDictCodes(dict *Vector, codes []uint32, rest []byte, n int) ([]uint32, error) {
	var err error
	if dict.Strs, rest, err = readDict(dict.Strs, rest); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		c, m := binary.Uvarint(rest)
		if m <= 0 {
			return nil, fmt.Errorf("colstore: truncated dict codes")
		}
		rest = rest[m:]
		if c >= uint64(len(dict.Strs)) {
			return nil, fmt.Errorf("colstore: dict code %d out of range %d", c, len(dict.Strs))
		}
		codes = append(codes, uint32(c))
	}
	return codes, nil
}

// read decodes block bi of the plan's columns. When every column is RLE or
// dictionary encoded the block stays in runs (compressed = true): the runs
// are the intersection of the columns' own, with equal neighbouring
// dictionary codes coalesced, so an entry is constant in every column. One
// column of any other encoding makes every entry a row: dictionary columns
// still arrive as codes, PLAIN INTEGER and FLOAT columns as views of the
// block in place, the rest through the eager decoder. Validation and
// error strings are the eager decoder's on both routes. st counts the block
// as scanned, and as compressed when it stays in runs.
func (r *blockReader) read(s *Segment, plan *scanPlan, bi int, st *ScanStats) (*Block, error) {
	st.BlocksScanned++
	rows, compressed := -1, true
	for i, ci := range plan.colIdx {
		data := s.sealed[ci][bi].data
		st.BytesRead += len(data)
		_, enc, n, _, ok := splitBlockHeader(data)
		if !ok {
			// Unusable header: the eager decoder reports the canonical error.
			_, err := DecodeBlock(data)
			if err == nil {
				err = fmt.Errorf("colstore: corrupt block header")
			}
			return nil, err
		}
		if rows >= 0 && n != rows {
			return nil, fmt.Errorf("colstore: block %d column %s holds %d rows, want %d", bi, r.schema[i].Name, n, rows)
		}
		rows = n
		if enc != EncRLE && enc != EncDict {
			compressed = false
		}
	}
	for i, ci := range plan.colIdx {
		data := s.sealed[ci][bi].data
		typ, enc, n, rest, _ := splitBlockHeader(data)
		c := &r.cols[i]
		c.vals.Reset()
		c.codes, c.lens = nil, c.lens[:0]
		vals := c.vals
		var err error
		switch {
		case typ != c.vals.Type:
			return nil, fmt.Errorf("colstore: decode %v block into %v vector", typ, c.vals.Type)
		case enc == EncDict:
			if typ != TypeString {
				return nil, fmt.Errorf("colstore: DICT block with type %v", typ)
			}
			c.buf, err = decodeDictCodes(c.vals, c.buf[:0], rest, n)
			c.codes = c.buf
		case enc == EncRLE && compressed:
			c.lens, err = decodeRLERuns(c.vals, c.lens, rest, n)
		default:
			vals, err = viewOrDecode(c.vals, &c.view, data)
		}
		if err != nil {
			return nil, err
		}
		if compressed && enc == EncDict {
			c.coalesce()
		}
		r.blk.Cols[i] = BlockCol{Vals: vals, Codes: c.codes}
	}
	r.blk.Rows, r.blk.Runs = rows, nil
	st.RowsOut += rows
	switch {
	case !compressed:
	case len(r.cols) == 1:
		st.BlocksCompressed++
		r.blk.Runs = r.cols[0].lens
	default:
		st.BlocksCompressed++
		r.intersect(rows)
	}
	return &r.blk, nil
}

// coalesce folds per-row dictionary codes into runs of equal codes.
func (c *colRuns) coalesce() {
	k := 0
	for i, code := range c.codes {
		if i > 0 && code == c.codes[k-1] {
			c.lens[k-1]++
			continue
		}
		c.codes[k] = code
		c.lens = append(c.lens, 1)
		k++
	}
	c.codes = c.codes[:k]
}

// intersect cuts every column at the union of all columns' run boundaries
// and publishes the cut columns as the block.
func (r *blockReader) intersect(rows int) {
	for i := range r.cols {
		r.pos[i], r.left[i] = 0, 0
		if rows > 0 {
			r.left[i] = r.cols[i].lens[0]
		}
		r.out[i].sel = r.out[i].sel[:0]
	}
	runs := r.runs[:0]
	for done := 0; done < rows; {
		run := r.left[0]
		for _, l := range r.left[1:] {
			run = min(run, l)
		}
		runs = append(runs, run)
		done += int(run)
		for i := range r.cols {
			r.out[i].sel = append(r.out[i].sel, r.pos[i])
			if r.left[i] -= run; r.left[i] == 0 && done < rows {
				r.pos[i]++
				r.left[i] = r.cols[i].lens[r.pos[i]]
			}
		}
	}
	r.runs, r.blk.Runs = runs, runs
	for i := range r.cols {
		c, o := &r.cols[i], &r.out[i]
		if c.codes != nil {
			o.buf = o.buf[:0]
			for _, p := range o.sel {
				o.buf = append(o.buf, c.codes[p])
			}
			r.blk.Cols[i] = BlockCol{Vals: c.vals, Codes: o.buf}
			continue
		}
		o.vals.Reset()
		_ = o.vals.AppendGather(c.vals, o.sel) // same type by construction
		r.blk.Cols[i] = BlockCol{Vals: o.vals}
	}
}

// NextBlock is Next for a run-aware consumer of a cursor without predicates:
// it returns the range's next sealed block, then the unsealed tail, as typed
// entries (see Block and blockReader.read), or nil at the end of the range.
// Blocks whose projected columns are all RLE or dictionary encoded arrive as
// runs without being expanded, so consumers that multiply by run length
// (aggregates) do O(runs) work; the tail arrives as views, one row per entry.
// The Block and everything it points to is valid until the next call, and
// read-only: like Next's batches, its values may be segment storage.
// Stats: BlocksCompressed counts the blocks delivered as runs.
func (c *ScanCursor) NextBlock(ctx context.Context) (*Block, error) {
	if err := verr.Canceled(ctx.Err()); err != nil {
		return nil, err
	}
	if c.bufs == nil {
		c.bufs = &decodeBufs{blocks: newBlockReader(c.plan.outSchema)}
	}
	if c.bi < c.hi {
		c.bi++
		return c.bufs.blocks.read(c.s, c.plan, c.bi-1, &c.st)
	}
	if !c.tail {
		return nil, nil
	}
	c.tail = false
	b, err := c.scanTail()
	if b == nil {
		return nil, err
	}
	blk := &Block{Rows: b.Len(), Cols: make([]BlockCol, len(b.Cols))}
	for i, v := range b.Cols {
		blk.Cols[i].Vals = v
	}
	return blk, nil
}
