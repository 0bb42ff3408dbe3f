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
// Pred.matchRowsInto; both routes accept and reject exactly the same blocks.
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
// boxed comparison reproduces matchRowsInto's semantics — int/float widening,
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
		if opMatch(pred.Op, c) {
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
		if opMatch(pred.Op, c) {
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
		return decodeDeltaSel(v, rest, n, sel)
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

func decodeDeltaSel(v *Vector, rest []byte, n int, sel []int) error {
	if v.Type != TypeInt64 {
		return fmt.Errorf("colstore: DELTA block with type %v", v.Type)
	}
	// Delta is a prefix sum: every varint decodes, only selected rows append.
	prev := int64(0)
	si := 0
	for i := 0; i < n; i++ {
		d, m := binary.Varint(rest)
		if m <= 0 {
			return fmt.Errorf("colstore: truncated delta block")
		}
		rest = rest[m:]
		prev += d
		for si < len(sel) && sel[si] == i {
			v.Ints = append(v.Ints, prev)
			si++
		}
	}
	return nil
}

func decodeDictSel(v *Vector, rest []byte, n int, sel []int) error {
	if v.Type != TypeString {
		return fmt.Errorf("colstore: DICT block with type %v", v.Type)
	}
	dn, m := binary.Uvarint(rest)
	if m <= 0 {
		return fmt.Errorf("colstore: truncated dict header")
	}
	rest = rest[m:]
	if dn > uint64(len(rest)) {
		return fmt.Errorf("colstore: dict claims %d entries in %d bytes", dn, len(rest))
	}
	dict := make([]string, 0, dn)
	for i := uint64(0); i < dn; i++ {
		l, m := binary.Uvarint(rest)
		if m <= 0 || uint64(len(rest)-m) < l {
			return fmt.Errorf("colstore: truncated dict entry")
		}
		rest = rest[m:]
		dict = append(dict, string(rest[:l]))
		rest = rest[l:]
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

// runCursor streams one column's block as (value, run-length) pairs. RLE
// blocks stream their native runs straight off the encoded bytes; DICT blocks
// coalesce consecutive equal codes into runs sharing one dictionary string;
// PLAIN and DELTA blocks fall back to a full decode delivering unit runs.
type runCursor struct {
	mode    uint8 // one of curRLE, curDict, curVec
	typ     Type
	rest    []byte // remaining encoded payload (RLE runs or DICT codes)
	rows    int    // header row count
	emitted int    // rows handed out so far
	runLeft int    // rows remaining in the loaded run
	val     any    // the loaded run's value

	dict []string // DICT: decoded dictionary
	read int      // DICT: codes consumed from rest

	vec *Vector // curVec: eagerly decoded column
}

const (
	curRLE uint8 = iota
	curDict
	curVec
)

// newRunCursor opens a cursor over one encoded block. compressed reports
// whether the block streams off its encoded form (RLE/DICT) rather than
// through an eager decode.
func newRunCursor(data []byte) (*runCursor, bool, error) {
	typ, enc, n, rest, ok := splitBlockHeader(data)
	if ok {
		switch {
		case enc == EncRLE:
			return &runCursor{mode: curRLE, typ: typ, rest: rest, rows: n}, true, nil
		case enc == EncDict && typ == TypeString:
			c := &runCursor{mode: curDict, typ: typ, rows: n}
			dn, m := binary.Uvarint(rest)
			if m <= 0 {
				return nil, false, fmt.Errorf("colstore: truncated dict header")
			}
			rest = rest[m:]
			if dn > uint64(len(rest)) {
				return nil, false, fmt.Errorf("colstore: dict claims %d entries in %d bytes", dn, len(rest))
			}
			for i := uint64(0); i < dn; i++ {
				l, m := binary.Uvarint(rest)
				if m <= 0 || uint64(len(rest)-m) < l {
					return nil, false, fmt.Errorf("colstore: truncated dict entry")
				}
				rest = rest[m:]
				c.dict = append(c.dict, string(rest[:l]))
				rest = rest[l:]
			}
			c.rest = rest
			return c, true, nil
		}
	}
	v, err := DecodeBlock(data)
	if err != nil {
		return nil, false, err
	}
	return &runCursor{mode: curVec, typ: v.Type, rows: v.Len(), vec: v}, false, nil
}

// load ensures the cursor has a current run (runLeft > 0), reading the next
// one when drained. Validation mirrors the eager decoders.
func (c *runCursor) load() error {
	if c.runLeft > 0 {
		return nil
	}
	switch c.mode {
	case curVec:
		c.val = c.vec.Value(c.emitted)
		c.runLeft = 1
	case curRLE:
		run, m := binary.Uvarint(c.rest)
		if m <= 0 {
			return fmt.Errorf("colstore: truncated RLE block")
		}
		if run == 0 || run > uint64(c.rows-c.emitted) {
			return fmt.Errorf("colstore: RLE run %d exceeds remaining %d rows", run, c.rows-c.emitted)
		}
		c.rest = c.rest[m:]
		switch c.typ {
		case TypeInt64, TypeFloat64:
			if len(c.rest) < 8 {
				return fmt.Errorf("colstore: truncated RLE value")
			}
			u := binary.LittleEndian.Uint64(c.rest)
			c.rest = c.rest[8:]
			if c.typ == TypeInt64 {
				c.val = int64(u)
			} else {
				c.val = math.Float64frombits(u)
			}
		case TypeString:
			l, m := binary.Uvarint(c.rest)
			if m <= 0 || uint64(len(c.rest)-m) < l {
				return fmt.Errorf("colstore: truncated RLE string")
			}
			c.rest = c.rest[m:]
			c.val = string(c.rest[:l])
			c.rest = c.rest[l:]
		case TypeBool:
			if len(c.rest) < 1 {
				return fmt.Errorf("colstore: truncated RLE bool")
			}
			c.val = c.rest[0] != 0
			c.rest = c.rest[1:]
		}
		c.runLeft = int(run)
	case curDict:
		code, m := binary.Uvarint(c.rest)
		if m <= 0 {
			return fmt.Errorf("colstore: truncated dict codes")
		}
		if code >= uint64(len(c.dict)) {
			return fmt.Errorf("colstore: dict code %d out of range %d", code, len(c.dict))
		}
		c.rest = c.rest[m:]
		c.read++
		c.runLeft = 1
		c.val = c.dict[code]
		// Coalesce consecutive equal codes into one run of the same string.
		for c.read < c.rows {
			next, m := binary.Uvarint(c.rest)
			if m <= 0 || next != code {
				break
			}
			c.rest = c.rest[m:]
			c.read++
			c.runLeft++
		}
	}
	return nil
}

// advance consumes n rows of the current run.
func (c *runCursor) advance(n int) {
	c.runLeft -= n
	c.emitted += n
}

// ScanRuns streams the named columns (nil = all) through fn as runs: vals[i]
// holds cols[i]'s value, constant for the next n rows. RLE and dictionary
// blocks deliver their runs without decoding to vectors, so run-aware
// consumers (aggregates that multiply by run length) do O(runs) work; other
// encodings and the unsealed tail deliver unit runs. Run boundaries are the
// intersection of the per-column runs, so a delivered run is constant in
// every projected column. vals is reused across calls — fn must not retain
// it. Stats: BlocksCompressed counts blocks where every projected column
// streamed off its encoded form.
func (s *Segment) ScanRuns(ctx context.Context, cols []string, st *ScanStats, fn func(vals []any, n int) error) error {
	var local ScanStats
	if st == nil {
		st = &local
	}
	defer recordScanTelemetry(st)
	plan, err := s.planScan(cols, nil)
	if err != nil {
		return err
	}
	nc := len(plan.colIdx)
	vals := make([]any, nc)
	cursors := make([]*runCursor, nc)
	for bi := 0; bi < plan.nblocks; bi++ {
		if err := verr.Canceled(ctx.Err()); err != nil {
			return err
		}
		st.BlocksScanned++
		rows := 0
		allCompressed := true
		for i, ci := range plan.colIdx {
			ref := s.sealed[ci][bi]
			st.BytesRead += len(ref.data)
			cur, compressed, err := newRunCursor(ref.data)
			if err != nil {
				return err
			}
			cursors[i] = cur
			if !compressed {
				allCompressed = false
			}
			rows = cur.rows
		}
		if allCompressed && nc > 0 {
			st.BlocksCompressed++
		}
		pos := 0
		for pos < rows {
			run := rows - pos
			for i, cur := range cursors {
				if err := cur.load(); err != nil {
					return err
				}
				if cur.runLeft < run {
					run = cur.runLeft
				}
				vals[i] = cur.val
			}
			st.RowsOut += run
			if err := fn(vals, run); err != nil {
				return err
			}
			for _, cur := range cursors {
				cur.advance(run)
			}
			pos += run
		}
	}
	if err := verr.Canceled(ctx.Err()); err != nil {
		return err
	}
	// Unsealed tail: deliver unit runs straight from the in-memory batch.
	if s.tail.Len() > 0 {
		st.TailRows += s.tail.Len()
		for r := 0; r < s.tail.Len(); r++ {
			for i, ci := range plan.colIdx {
				vals[i] = s.tail.Cols[ci].Value(r)
			}
			st.RowsOut++
			if err := fn(vals, 1); err != nil {
				return err
			}
		}
	}
	return nil
}
