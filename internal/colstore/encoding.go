package colstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"unsafe"
)

// Encoding enumerates the physical block encodings. Vertica's storage applies
// per-column compression; we implement the classic columnar family: plain,
// run-length, delta (integers), and dictionary (strings).
type Encoding uint8

const (
	// EncPlain stores values verbatim.
	EncPlain Encoding = iota
	// EncRLE stores (value, run-length) pairs.
	EncRLE
	// EncDelta stores zig-zag varint deltas (integer columns only).
	EncDelta
	// EncDict stores a dictionary plus varint codes (string columns only).
	EncDict
)

// String names the encoding.
func (e Encoding) String() string {
	switch e {
	case EncPlain:
		return "PLAIN"
	case EncRLE:
		return "RLE"
	case EncDelta:
		return "DELTA"
	case EncDict:
		return "DICT"
	default:
		return fmt.Sprintf("ENC(%d)", uint8(e))
	}
}

// Block header layout: [type byte][encoding byte][uvarint row count][payload].

// EncodeBlock serializes a vector with the chosen encoding into a buffer of
// its own, a PLAIN numeric payload 8-byte aligned (alignedBlockBuf): the form
// a sealed block takes.
func EncodeBlock(v *Vector, enc Encoding) ([]byte, error) {
	return AppendBlock(alignedBlockBuf(v.Len(), 16+v.Len()*8), v, enc)
}

// AppendBlock appends the block encoding of v to buf and returns the extended
// slice. With a buf of sufficient capacity the encode allocates nothing; this
// is the form the pooled transfer path uses.
func AppendBlock(buf []byte, v *Vector, enc Encoding) ([]byte, error) {
	buf = appendBlockHeader(buf, v, enc)
	var err error
	switch enc {
	case EncPlain:
		buf, err = encodePlain(buf, v)
	case EncRLE:
		buf, err = encodeRLE(buf, v)
	case EncDelta:
		buf, err = encodeDelta(buf, v)
	case EncDict:
		buf, err = encodeDict(buf, v)
	default:
		err = fmt.Errorf("colstore: unknown encoding %v", enc)
	}
	if err != nil {
		return nil, err
	}
	return buf, nil
}

func appendBlockHeader(buf []byte, v *Vector, enc Encoding) []byte {
	buf = append(buf, byte(v.Type), byte(enc))
	return binary.AppendUvarint(buf, uint64(v.Len()))
}

// BestEncoding picks an encoding for the vector by inspecting its contents:
// long runs favor RLE, small distinct string sets favor DICT, sorted-ish
// integers favor DELTA; otherwise PLAIN.
func BestEncoding(v *Vector) Encoding {
	n := v.Len()
	if n == 0 {
		return EncPlain
	}
	runs := countRuns(v)
	if runs*4 <= n { // average run length >= 4
		return EncRLE
	}
	switch v.Type {
	case TypeString:
		distinct := map[string]struct{}{}
		for _, s := range v.Strs {
			distinct[s] = struct{}{}
			if len(distinct) > n/4+1 {
				return EncPlain
			}
		}
		return EncDict
	case TypeInt64:
		// Delta wins when consecutive deltas are small.
		var smallDeltas int
		for i := 1; i < n; i++ {
			d := v.Ints[i] - v.Ints[i-1]
			if d >= -(1<<20) && d < 1<<20 {
				smallDeltas++
			}
		}
		if smallDeltas*10 >= (n-1)*9 { // ≥90% small deltas
			return EncDelta
		}
	}
	return EncPlain
}

// countRuns counts the maximal runs of equal adjacent values; it runs over
// every column at every seal and every re-encoded chunk, hence one typed loop
// per type.
func countRuns(v *Vector) int {
	if v.Len() == 0 {
		return 0
	}
	runs := 1
	switch v.Type {
	case TypeInt64:
		for i, x := range v.Ints[1:] {
			if x != v.Ints[i] {
				runs++
			}
		}
	case TypeFloat64:
		// By bits, like valueEq: NaN payloads and -0.0 each end a run.
		for i, x := range v.Floats[1:] {
			if math.Float64bits(x) != math.Float64bits(v.Floats[i]) {
				runs++
			}
		}
	case TypeString:
		for i, x := range v.Strs[1:] {
			if x != v.Strs[i] {
				runs++
			}
		}
	case TypeBool:
		for i, x := range v.Bools[1:] {
			if x != v.Bools[i] {
				runs++
			}
		}
	}
	return runs
}

func valueEq(v *Vector, i, j int) bool {
	switch v.Type {
	case TypeInt64:
		return v.Ints[i] == v.Ints[j]
	case TypeFloat64:
		// Treat NaN as equal to NaN so RLE round-trips bit-wise.
		return math.Float64bits(v.Floats[i]) == math.Float64bits(v.Floats[j])
	case TypeString:
		return v.Strs[i] == v.Strs[j]
	case TypeBool:
		return v.Bools[i] == v.Bools[j]
	}
	return false
}

// hostLittleEndian reports whether an int64 or float64 in memory already is
// its PLAIN encoding, so a PLAIN numeric payload moves with one copy, or is
// read in place (plainView).
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// wordBytes views a numeric slice as its bytes: typed memory read or written
// as bytes, which needs no alignment and no length a checked pointer
// conversion could reject. The other way — payload bytes read as words — is
// plainView's, and only over an aligned payload.
func wordBytes[T int64 | float64](s []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), 8*len(s))
}

// alignedBlockBuf returns an empty buffer of capacity size in which a block of
// rows rows, appended from the start, has its payload — the bytes after the
// type, encoding and row-count header — 8-byte aligned, so that plainView can
// read a PLAIN numeric payload in place. Sealed blocks are made in such
// buffers (EncodeBlock, OpenSegment); their bytes are the same as in any
// other.
func alignedBlockBuf(rows, size int) []byte {
	var uv [binary.MaxVarintLen64]byte
	header := 2 + binary.PutUvarint(uv[:], uint64(rows))
	buf := make([]byte, size+7)
	pad := -(int(uintptr(unsafe.Pointer(unsafe.SliceData(buf)))) + header) & 7
	return buf[pad : pad : pad+size]
}

// plainView points v at data's payload in place, and reports whether it did,
// when data is a PLAIN block of v's type — INTEGER or FLOAT — whose payload is
// 8-byte aligned and holds the rows its header claims, on a host where that
// payload already is the values' memory. Any other block is left to
// DecodeBlockInto. The view is the block's storage: its cap equals its len,
// so an append to it copies, and it must never be written. v must not be a
// decode buffer, which a Reset and an append would then write through.
func plainView(v *Vector, data []byte) bool {
	_, enc, n, rest, err := blockHeader(data, v.Type)
	if err != nil || !hostLittleEndian || enc != EncPlain || n == 0 || len(rest) < 8*n {
		return false
	}
	p := unsafe.Pointer(unsafe.SliceData(rest))
	if uintptr(p)%8 != 0 {
		return false
	}
	switch v.Type {
	case TypeInt64:
		v.Ints = unsafe.Slice((*int64)(p), n)
	case TypeFloat64:
		v.Floats = unsafe.Slice((*float64)(p), n)
	default:
		return false
	}
	return true
}

// viewOrDecode reads a whole block: as view, pointed at the block in place
// (plainView), or else decoded into own, the caller's decode buffer. It
// returns the vector that holds the block.
func viewOrDecode(own, view *Vector, data []byte) (*Vector, error) {
	if plainView(view, data) {
		return view, nil
	}
	own.Reset()
	return own, DecodeBlockInto(own, data)
}

// plainWords is a PLAIN INTEGER or FLOAT payload as the vector's own memory,
// on a host where that memory already is the payload; nil otherwise.
func plainWords(v *Vector) []byte {
	if !hostLittleEndian {
		return nil
	}
	switch v.Type {
	case TypeInt64:
		return wordBytes(v.Ints)
	case TypeFloat64:
		return wordBytes(v.Floats)
	}
	return nil
}

// Box stores vs[i] in dst[i*stride], boxed without an allocation: each
// interface's data word points at vs[i] itself, where a conversion to any
// would point at a fresh copy. The interfaces alias vs, so vs must never be
// written again — Go treats what an interface holds as immutable. The layout
// written here (a type word, then a data word pointing at the value) is the
// runtime's own; the boxing-safety test in internal/server fails if it ever
// changes.
func Box[T float64 | string](dst []any, stride int, vs []T) {
	var zero any = *new(T)
	typ := (*eface)(unsafe.Pointer(&zero)).typ
	for i := range vs {
		*(*eface)(unsafe.Pointer(&dst[i*stride])) = eface{typ: typ, data: unsafe.Pointer(&vs[i])}
	}
}

// eface is the runtime's layout of an empty interface.
type eface struct {
	typ, data unsafe.Pointer
}

func encodePlain(buf []byte, v *Vector) ([]byte, error) {
	if words := plainWords(v); words != nil {
		return append(buf, words...), nil
	}
	switch v.Type {
	case TypeInt64:
		for _, x := range v.Ints {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
		}
	case TypeFloat64:
		for _, x := range v.Floats {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
		}
	case TypeString:
		for _, s := range v.Strs {
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		}
	case TypeBool:
		for _, b := range v.Bools {
			if b {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
	default:
		return nil, fmt.Errorf("colstore: plain-encode invalid type %v", v.Type)
	}
	return buf, nil
}

func encodeRLE(buf []byte, v *Vector) ([]byte, error) {
	n := v.Len()
	i := 0
	for i < n {
		j := i + 1
		for j < n && valueEq(v, j, i) {
			j++
		}
		buf = binary.AppendUvarint(buf, uint64(j-i))
		var err error
		buf, err = appendOne(buf, v, i)
		if err != nil {
			return nil, err
		}
		i = j
	}
	return buf, nil
}

func appendOne(buf []byte, v *Vector, i int) ([]byte, error) {
	switch v.Type {
	case TypeInt64:
		return binary.LittleEndian.AppendUint64(buf, uint64(v.Ints[i])), nil
	case TypeFloat64:
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Floats[i])), nil
	case TypeString:
		buf = binary.AppendUvarint(buf, uint64(len(v.Strs[i])))
		return append(buf, v.Strs[i]...), nil
	case TypeBool:
		if v.Bools[i] {
			return append(buf, 1), nil
		}
		return append(buf, 0), nil
	}
	return nil, fmt.Errorf("colstore: encode invalid type %v", v.Type)
}

func encodeDelta(buf []byte, v *Vector) ([]byte, error) {
	if v.Type != TypeInt64 {
		return nil, fmt.Errorf("colstore: DELTA encoding requires INTEGER, got %v", v.Type)
	}
	prev := int64(0)
	for _, x := range v.Ints {
		buf = binary.AppendVarint(buf, x-prev)
		prev = x
	}
	return buf, nil
}

func encodeDict(buf []byte, v *Vector) ([]byte, error) {
	if v.Type != TypeString {
		return nil, fmt.Errorf("colstore: DICT encoding requires VARCHAR, got %v", v.Type)
	}
	dict := map[string]uint64{}
	var order []string
	codes := make([]uint64, 0, v.Len())
	for _, s := range v.Strs {
		c, ok := dict[s]
		if !ok {
			c = uint64(len(order))
			dict[s] = c
			order = append(order, s)
		}
		codes = append(codes, c)
	}
	buf = binary.AppendUvarint(buf, uint64(len(order)))
	for _, s := range order {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	for _, c := range codes {
		buf = binary.AppendUvarint(buf, c)
	}
	return buf, nil
}

// MaxBlockRows bounds the row count a block header may claim. Real blocks
// hold at most the segment's blockRows (default 4096); the bound exists so a
// corrupt or hostile header cannot make the decoder reserve unbounded memory
// (blocks arrive over the transfer wire, not only from our own encoder).
const MaxBlockRows = 1 << 24

// anyType is blockHeader's want for a reader that takes a block of whatever
// type its header names. No type byte is anyType.
const anyType = Type(0xff)

// blockHeader parses a block's [type][encoding][uvarint rows] header and
// returns the payload after it. want is the type of the vector the block is
// read into, or anyType. Every reader reports a bad header through here, so
// all of them fail alike, in one order: too short, unknown type byte, type
// mismatch, corrupt header, too many rows. An unknown encoding byte is the
// caller's to report.
func blockHeader(data []byte, want Type) (typ Type, enc Encoding, n int, payload []byte, err error) {
	if len(data) < 3 {
		return 0, 0, 0, nil, fmt.Errorf("colstore: block too short (%d bytes)", len(data))
	}
	typ, enc = Type(data[0]), Encoding(data[1])
	switch typ {
	case TypeInt64, TypeFloat64, TypeString, TypeBool:
	default:
		return 0, 0, 0, nil, fmt.Errorf("colstore: unknown type byte %d", data[0])
	}
	if want != anyType && typ != want {
		return 0, 0, 0, nil, fmt.Errorf("colstore: decode %v block into %v vector", typ, want)
	}
	count, m := binary.Uvarint(data[2:])
	if m <= 0 {
		return 0, 0, 0, nil, fmt.Errorf("colstore: corrupt block header")
	}
	if count > MaxBlockRows {
		return 0, 0, 0, nil, fmt.Errorf("colstore: block claims %d rows (max %d)", count, MaxBlockRows)
	}
	return typ, enc, int(count), data[2+m:], nil
}

// DecodeBlockInto decodes a block produced by EncodeBlock, appending the rows
// to v (which the caller typically Resets first). The block's type byte must
// match v.Type. This is the reuse form of DecodeBlock: with a vector of
// sufficient capacity the decode allocates nothing beyond string payloads.
// The same corruption guarantees apply — errors, never panics.
func DecodeBlockInto(v *Vector, data []byte) error { return decodeBlock(v, data, nil) }

// DecodeBlockSel decodes only the rows selected by sel (ascending block-row
// indexes, duplicates allowed) and appends them to v — the late-
// materialization form of DecodeBlockInto; a nil sel selects no row. It
// validates the entire block exactly as the full decoder does, so corrupt
// input is rejected with the same error even when the corruption lies past
// the last selected row; only the materialization (value appends, string
// allocation) is skipped.
func DecodeBlockSel(v *Vector, data []byte, sel []int) error {
	if sel == nil {
		sel = []int{}
	}
	return decodeBlock(v, data, sel)
}

// decodeBlock appends to v the rows of a block: every row when sel is nil,
// else the rows sel lists. Each encoding's payload has one decoder, which
// reads the whole payload whatever sel selects.
func decodeBlock(v *Vector, data []byte, sel []int) error {
	_, enc, n, rest, err := blockHeader(data, v.Type)
	if err != nil {
		return err
	}
	k := n
	if sel != nil {
		k = len(sel)
		if k > 0 && (sel[0] < 0 || sel[k-1] >= n) {
			bad := sel[k-1]
			if sel[0] < 0 {
				bad = sel[0]
			}
			return fmt.Errorf("colstore: selection index %d out of range %d rows", bad, n)
		}
	}
	// Reserve what the header promises, clamped: appends grow as needed, and
	// a header may not commit the decoder to a huge allocation before its
	// payload is validated.
	v.reserve(min(k, DefaultBlockRows))
	switch enc {
	case EncPlain:
		return decodePlain(v, rest, n, sel)
	case EncRLE:
		return decodeRLE(v, rest, n, sel)
	case EncDelta:
		return decodeDelta(v, rest, n, sel)
	case EncDict:
		return decodeDict(v, rest, n, sel)
	}
	return fmt.Errorf("colstore: unknown encoding byte %d", data[1])
}

// decodePlain appends to v the values of a PLAIN payload of n rows: all of
// them when sel is nil, else those of the rows sel lists. A fixed-width
// payload is checked for its length once, then read whole or at the
// selected rows alone; a VARCHAR payload is walked to its end.
func decodePlain(v *Vector, rest []byte, n int, sel []int) error {
	switch v.Type {
	case TypeInt64:
		if len(rest) < 8*n {
			return fmt.Errorf("colstore: truncated plain block")
		}
		v.Ints = appendWords(v.Ints, rest, n, sel)
	case TypeFloat64:
		if len(rest) < 8*n {
			return fmt.Errorf("colstore: truncated plain block")
		}
		v.Floats = appendWords(v.Floats, rest, n, sel)
	case TypeString:
		si := 0
		for i := 0; i < n; i++ {
			l, m := binary.Uvarint(rest)
			if m <= 0 || uint64(len(rest)-m) < l {
				return fmt.Errorf("colstore: truncated string block")
			}
			rest = rest[m:]
			if sel == nil {
				v.Strs = append(v.Strs, string(rest[:l]))
			}
			for ; si < len(sel) && sel[si] == i; si++ {
				v.Strs = append(v.Strs, string(rest[:l]))
			}
			rest = rest[l:]
		}
	case TypeBool:
		if len(rest) < n {
			return fmt.Errorf("colstore: truncated bool block")
		}
		if sel == nil {
			for _, b := range rest[:n] {
				v.Bools = append(v.Bools, b != 0)
			}
		}
		for _, i := range sel {
			v.Bools = append(v.Bools, rest[i] != 0)
		}
	}
	return nil
}

// appendWords appends to dst the n values of a PLAIN INTEGER or FLOAT
// payload, as one copy on a host whose memory already is that payload, or
// else the values of the rows sel lists, each read where it lies.
func appendWords[T int64 | float64](dst []T, rest []byte, n int, sel []int) []T {
	if sel != nil {
		for _, i := range sel {
			dst = append(dst, fromBits[T](binary.LittleEndian.Uint64(rest[8*i:])))
		}
		return dst
	}
	base := len(dst)
	dst = grown(dst, n)[:base+n]
	if hostLittleEndian {
		copy(wordBytes(dst[base:]), rest)
		return dst
	}
	for i := range dst[base:] {
		dst[base+i] = fromBits[T](binary.LittleEndian.Uint64(rest[8*i:]))
	}
	return dst
}

// fromBits is the INTEGER or FLOAT whose 64 bits are u.
func fromBits[T int64 | float64](u uint64) T { return *(*T)(unsafe.Pointer(&u)) }

// rleRun reads the run at the head of an RLE payload of a typ column with
// left rows still to come: its length, its value's encoded bytes (8 for a
// number, a string's own, one for a bool) and the payload after it. It is the
// one reader of the RLE layout; every run walk goes through it.
func rleRun(typ Type, rest []byte, left int) (run int, val, after []byte, err error) {
	r, m := binary.Uvarint(rest)
	if m <= 0 {
		return 0, nil, nil, fmt.Errorf("colstore: truncated RLE block")
	}
	if r == 0 || r > uint64(left) {
		return 0, nil, nil, fmt.Errorf("colstore: RLE run %d exceeds remaining %d rows", r, left)
	}
	rest = rest[m:]
	switch typ {
	case TypeInt64, TypeFloat64:
		if len(rest) < 8 {
			return 0, nil, nil, fmt.Errorf("colstore: truncated RLE value")
		}
		return int(r), rest[:8], rest[8:], nil
	case TypeString:
		l, m := binary.Uvarint(rest)
		if m <= 0 || uint64(len(rest)-m) < l {
			return 0, nil, nil, fmt.Errorf("colstore: truncated RLE string")
		}
		return int(r), rest[m : m+int(l)], rest[m+int(l):], nil
	}
	if len(rest) < 1 { // TypeBool: blockHeader admits no other type
		return 0, nil, nil, fmt.Errorf("colstore: truncated RLE bool")
	}
	return int(r), rest[:1], rest[1:], nil
}

// appendRun appends k copies of an RLE run's value, given as its encoded
// bytes (rleRun), to v.
func appendRun(v *Vector, val []byte, k int) {
	switch v.Type {
	case TypeInt64:
		v.Ints = appendCopies(v.Ints, fromBits[int64](binary.LittleEndian.Uint64(val)), k)
	case TypeFloat64:
		v.Floats = appendCopies(v.Floats, fromBits[float64](binary.LittleEndian.Uint64(val)), k)
	case TypeString:
		v.Strs = appendCopies(v.Strs, string(val), k)
	case TypeBool:
		v.Bools = appendCopies(v.Bools, val[0] != 0, k)
	}
}

func appendCopies[T any](s []T, x T, k int) []T {
	for ; k > 0; k-- {
		s = append(s, x)
	}
	return s
}

// decodeRLE appends to v the values of an RLE payload of n rows: all of them
// when sel is nil, else those of the rows sel lists. A run no row selects is
// stepped over, its string never made.
func decodeRLE(v *Vector, rest []byte, n int, sel []int) error {
	for row, si := 0, 0; row < n; {
		run, val, after, err := rleRun(v.Type, rest, n-row)
		if err != nil {
			return err
		}
		rest, row = after, row+run
		k := run
		if sel != nil {
			for k = 0; si < len(sel) && sel[si] < row; si++ {
				k++
			}
		}
		if k > 0 {
			appendRun(v, val, k)
		}
	}
	return nil
}

// decodeRLERuns is an RLE payload of n rows in its native form: each run's
// value appended to v once and its length to lens. Its callers read sealed
// blocks, which are never written, so a VARCHAR run's value is a view of the
// block's bytes, as plainView's numbers are, not a copy. A run takes two
// bytes at least, which bounds the runs to size the buffers for at once.
func decodeRLERuns(v *Vector, lens []int32, rest []byte, n int) ([]int32, error) {
	lens = slices.Grow(lens, min(n, len(rest)/2))
	if v.Type == TypeString {
		v.Strs = slices.Grow(v.Strs, min(n, len(rest)/2))
	}
	for row := 0; row < n; {
		run, val, after, err := rleRun(v.Type, rest, n-row)
		if err != nil {
			return nil, err
		}
		if v.Type == TypeString {
			v.Strs = append(v.Strs, unsafe.String(unsafe.SliceData(val), len(val)))
		} else {
			appendRun(v, val, 1)
		}
		lens = append(lens, int32(run))
		rest, row = after, row+run
	}
	return lens, nil
}

// decodeDelta appends to v the values of a DELTA payload of n rows: all of
// them when sel is nil, else those of the rows sel lists. The destination is
// sized once, and only after the header is known not to promise more rows
// than the payload has bytes (every value takes at least one).
func decodeDelta(v *Vector, rest []byte, n int, sel []int) error {
	if v.Type != TypeInt64 {
		return fmt.Errorf("colstore: DELTA block with type %v", v.Type)
	}
	k := n
	if sel != nil {
		k = len(sel)
	}
	base := len(v.Ints)
	if n <= len(rest) {
		v.Ints = grown(v.Ints, k)[:base+k]
		if deltaSum(v.Ints[base:], rest, n, sel) {
			return nil
		}
	}
	v.Ints = v.Ints[:base]
	return fmt.Errorf("colstore: truncated delta block")
}

// deltaSum is the DELTA decode loop: the prefix sum of n zig-zag varints,
// each value stored in dst[i] (sel nil) or in dst[j] for every j with
// sel[j] = i. A varint of up to three bytes is read in a straight line (each
// case reached only when the bytes before its last have the continuation
// bit), a wider one byte by byte; together they accept and reject exactly
// what binary.Varint does — a payload cut short, an 11th byte or a 10th byte
// above 1 fail — so the caller reports one error for all three. Every varint
// is read whatever sel selects: a corrupt block fails the same way under any
// selection.
func deltaSum(dst []int64, rest []byte, n int, sel []int) bool {
	prev, p, si := int64(0), 0, 0
	for i := 0; i < n; i++ {
		var u uint64
		switch {
		case p < len(rest) && rest[p] < 0x80:
			u = uint64(rest[p])
			p++
		case p+1 < len(rest) && rest[p+1] < 0x80:
			u = uint64(rest[p]&0x7f) | uint64(rest[p+1])<<7
			p += 2
		case p+2 < len(rest) && rest[p+2] < 0x80:
			u = uint64(rest[p]&0x7f) | uint64(rest[p+1]&0x7f)<<7 | uint64(rest[p+2])<<14
			p += 3
		default:
			for s := uint(0); ; s += 7 {
				if p >= len(rest) || s == 70 {
					return false
				}
				b := rest[p]
				p++
				if b < 0x80 {
					if s == 63 && b > 1 {
						return false
					}
					u |= uint64(b) << s
					break
				}
				u |= uint64(b&0x7f) << s
			}
		}
		prev += int64(u>>1) ^ -int64(u&1)
		if sel == nil {
			dst[i] = prev
			continue
		}
		for si < len(sel) && sel[si] == i {
			dst[si] = prev
			si++
		}
	}
	return true
}

// dictHeader reads a DICT payload's entry count, which cannot exceed the
// bytes after it (every entry takes at least one), and returns those bytes:
// the entries, then the row codes.
func dictHeader(rest []byte) (int, []byte, error) {
	dn, m := binary.Uvarint(rest)
	if m <= 0 {
		return 0, nil, fmt.Errorf("colstore: truncated dict header")
	}
	rest = rest[m:]
	if dn > uint64(len(rest)) {
		return 0, nil, fmt.Errorf("colstore: dict claims %d entries in %d bytes", dn, len(rest))
	}
	return int(dn), rest, nil
}

// decodeDictCodes is a DICT payload of n rows in its native form: its
// entries appended to dict, an empty vector, and each row's code, checked
// against them, to codes. It is the one reader of the layout after the
// entry count. An entry is a view of the payload's bytes, as decodeRLERuns'
// run values are: the match and NextBlock read sealed blocks, which are
// never written, and decodeDict copies what it hands out.
func decodeDictCodes(dict *Vector, codes []uint32, rest []byte, n int) ([]uint32, error) {
	if dict.Type != TypeString {
		return nil, fmt.Errorf("colstore: DICT block with type %v", dict.Type)
	}
	dn, rest, err := dictHeader(rest)
	if err != nil {
		return nil, err
	}
	dict.Strs = slices.Grow(dict.Strs, dn)
	for i := 0; i < dn; i++ {
		l, m := binary.Uvarint(rest)
		if m <= 0 || uint64(len(rest)-m) < l {
			return nil, fmt.Errorf("colstore: truncated dict entry")
		}
		e := rest[m : m+int(l)]
		dict.Strs = append(dict.Strs, unsafe.String(unsafe.SliceData(e), len(e)))
		rest = rest[m+int(l):]
	}
	codes = slices.Grow(codes, min(n, len(rest))) // a code takes a byte at least
	for i := 0; i < n; i++ {
		// A code below 128, as every code of a small dictionary, is its byte.
		c, m := uint64(0), 1
		if len(rest) > 0 && rest[0] < 0x80 {
			c = uint64(rest[0])
		} else if c, m = binary.Uvarint(rest); m <= 0 {
			return nil, fmt.Errorf("colstore: truncated dict codes")
		}
		rest = rest[m:]
		if c >= uint64(dn) {
			return nil, fmt.Errorf("colstore: dict code %d out of range %d", c, dn)
		}
		codes = append(codes, uint32(c))
	}
	return codes, nil
}

// decodeDict appends to v the values of a DICT payload of n rows: all of
// them when sel is nil, else those of the rows sel lists, each its code's
// entry. The payload may be a buffer that is recycled (a transfer message's
// is pooled), so each entry is copied, once. A block of up to
// DefaultBlockRows rows keeps its codes on the stack.
func decodeDict(v *Vector, rest []byte, n int, sel []int) error {
	dict := Vector{Type: v.Type}
	var buf [DefaultBlockRows]uint32
	codes, err := decodeDictCodes(&dict, buf[:0], rest, n)
	if err != nil {
		return err
	}
	strs, entries := v.Strs, dict.Strs
	for i, e := range entries {
		entries[i] = strings.Clone(e)
	}
	if sel == nil {
		for _, c := range codes {
			strs = append(strs, entries[c])
		}
	}
	for _, i := range sel {
		strs = append(strs, entries[codes[i]])
	}
	v.Strs = strs
	return nil
}
