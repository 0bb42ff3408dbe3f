package colstore

import (
	"context"
	"fmt"

	"verticadr/internal/verr"
)

// Compressed execution ("The Vertica Analytic Database: C-Store 7 Years
// Later"): scans evaluate predicates on a block's native decode — the runs of
// an RLE block, the entries and codes of a dictionary block — and decode only
// the rows that survive.
//
// Each layout has one reader (encoding.go): blockHeader parses every block
// header; decodePlain, decodeRLE, decodeDelta and decodeDict append a block's
// rows, every row or a selection's; decodeRLERuns and decodeDictCodes give
// the native form that the match below and NextBlock read, through the same
// run step and entry walk. Every route therefore accepts and rejects exactly
// the same blocks, with the same error, wherever the corruption lies.
//
//   - An RLE block runs the typed Pred.selectRows once over its run values,
//     then emits every row of each matching run: O(runs) comparisons.
//   - A dictionary block runs it once over its entries, then emits the rows
//     whose code names a matching entry, no row's string made. An equality
//     probe for a value absent from the dictionary selects nothing after
//     |dict| comparisons.
//   - Surviving rows late-materialize through DecodeBlockSel: non-predicate
//     columns decode only the selected rows instead of decode-all + gather.

// runMatch holds the compressed match's decode of a block, reused block over
// block by a cursor: the run values or dictionary entries, the run lengths or
// row codes, and the runs or entries that match.
type runMatch struct {
	vals  Vector
	lens  []int32
	codes []uint32
	hits  []int
	hit   []bool
}

// match evaluates pred directly on an encoded block read as a want column
// (anyType: of its own type), returning the matching row indexes (appended
// into scratch[:0], ascending) with the runs and codes in m's buffers. It
// reports handled=false only for PLAIN and DELTA blocks, which the caller
// decodes eagerly and filters with Pred.selectRows; any other block, a
// corrupt one included, is handled and fails with the eager decoder's
// error. An empty block compares nothing, so it raises no comparison
// error, as the eager route raises none.
func (m *runMatch) match(data []byte, want Type, pred *Pred, scratch []int) ([]int, bool, error) {
	typ, enc, n, rest, err := blockHeader(data, want)
	if err != nil {
		return nil, true, err
	}
	m.vals.Type = typ
	m.vals.Reset()
	switch enc {
	case EncPlain, EncDelta:
		return nil, false, nil
	case EncRLE:
		m.lens, err = decodeRLERuns(&m.vals, m.lens[:0], rest, n)
	case EncDict:
		m.codes, err = decodeDictCodes(&m.vals, m.codes[:0], rest, n)
	default:
		err = fmt.Errorf("colstore: unknown encoding byte %d", data[1])
	}
	if err != nil {
		return nil, true, err
	}
	idx := scratch[:0]
	if n == 0 {
		return idx, true, nil
	}
	if m.hits, err = pred.selectRows(&m.vals, nil, m.hits); err != nil {
		return nil, true, err
	}
	k := m.vals.Len()
	hit := grown(m.hit[:0], k)[:k]
	clear(hit)
	for _, j := range m.hits {
		hit[j] = true
	}
	m.hit = hit
	if enc == EncDict {
		for i, c := range m.codes {
			if hit[c] {
				idx = append(idx, i)
			}
		}
		return idx, true, nil
	}
	row := 0
	for r, l := range m.lens {
		if hit[r] {
			for i := row; i < row+int(l); i++ {
				idx = append(idx, i)
			}
		}
		row += int(l)
	}
	return idx, true, nil
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
	vals    *Vector
	view    Vector   // a PLAIN block in place (viewOrDecode), apart from vals
	codes   []uint32 // nil unless the block is dictionary encoded
	lens    []int32
	sel     []int    // as a cut column: the source run each entry comes from
	buf     []uint32 // backs codes from block to block
	enc     Encoding // the block's, and its payload, from read's header pass
	payload []byte
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

// read decodes block bi of the plan's columns. When every column is RLE or
// dictionary encoded the block stays in runs (compressed = true): the runs
// are the intersection of the columns' own, with equal neighbouring
// dictionary codes coalesced, so an entry is constant in every column. One
// column of any other encoding makes every entry a row: dictionary columns
// still arrive as codes, PLAIN INTEGER and FLOAT columns as views of the
// block in place, the rest through the eager decoder. Every route reads the
// header through blockHeader and the payload through its encoding's one
// reader, so validation and errors are the eager decoder's. st counts the
// block as scanned, and as compressed when it stays in runs.
func (r *blockReader) read(s *Segment, plan *scanPlan, bi int, st *ScanStats) (*Block, error) {
	st.BlocksScanned++
	rows, compressed := -1, true
	for i, ci := range plan.colIdx {
		data := s.sealed[ci][bi].data
		st.BytesRead += len(data)
		c := &r.cols[i]
		var n int
		var err error
		if _, c.enc, n, c.payload, err = blockHeader(data, r.schema[i].Type); err != nil {
			return nil, err
		}
		if rows >= 0 && n != rows {
			return nil, fmt.Errorf("colstore: block %d column %s holds %d rows, want %d", bi, r.schema[i].Name, n, rows)
		}
		rows = n
		if c.enc != EncRLE && c.enc != EncDict {
			compressed = false
		}
	}
	for i, ci := range plan.colIdx {
		c := &r.cols[i]
		c.vals.Reset()
		c.codes, c.lens = nil, c.lens[:0]
		vals := c.vals
		var err error
		switch {
		case c.enc == EncDict:
			c.buf, err = decodeDictCodes(c.vals, c.buf[:0], c.payload, rows)
			c.codes = c.buf
		case c.enc == EncRLE && compressed:
			c.lens, err = decodeRLERuns(c.vals, c.lens, c.payload, rows)
		default:
			vals, err = viewOrDecode(c.vals, &c.view, s.sealed[ci][bi].data)
		}
		if err != nil {
			return nil, err
		}
		if compressed && c.enc == EncDict {
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
