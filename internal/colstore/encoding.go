package colstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
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
	typ, enc, n, rest, ok := splitBlockHeader(data)
	if !ok || !hostLittleEndian || typ != v.Type || enc != EncPlain || n == 0 || len(rest) < 8*n {
		return false
	}
	p := unsafe.Pointer(unsafe.SliceData(rest))
	if uintptr(p)%8 != 0 {
		return false
	}
	switch typ {
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

// DecodeBlock deserializes a block produced by EncodeBlock. Corrupt input —
// truncated payloads, unknown type or encoding bytes, row counts beyond
// MaxBlockRows, run lengths or dictionary codes that disagree with the
// header — returns an error, never a panic.
func DecodeBlock(data []byte) (*Vector, error) {
	if len(data) < 3 {
		return nil, fmt.Errorf("colstore: block too short (%d bytes)", len(data))
	}
	v := &Vector{Type: Type(data[0])} // an unknown type byte fails below
	if err := DecodeBlockInto(v, data); err != nil {
		return nil, err
	}
	return v, nil
}

// DecodeBlockInto decodes a block produced by EncodeBlock, appending the rows
// to v (which the caller typically Resets first). The block's type byte must
// match v.Type. This is the reuse form of DecodeBlock: with a vector of
// sufficient capacity the decode allocates nothing beyond string payloads.
// The same corruption guarantees apply — errors, never panics.
func DecodeBlockInto(v *Vector, data []byte) error {
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
	// Reserve what the header promises, clamped: appends grow as needed, and
	// a header may not commit the decoder to a huge allocation before its
	// payload is validated.
	v.reserve(min(n, DefaultBlockRows))
	var err error
	switch enc {
	case EncPlain:
		_, err = decodePlain(v, rest, n)
	case EncRLE:
		_, err = decodeRLE(v, rest, n)
	case EncDelta:
		_, err = decodeDelta(v, rest, n)
	case EncDict:
		_, err = decodeDict(v, rest, n)
	default:
		err = fmt.Errorf("colstore: unknown encoding byte %d", data[1])
	}
	return err
}

func decodePlain(v *Vector, rest []byte, n int) (*Vector, error) {
	switch v.Type {
	case TypeInt64:
		if len(rest) < 8*n {
			return nil, fmt.Errorf("colstore: truncated plain block")
		}
		v.Ints = grown(v.Ints, n)[:len(v.Ints)+n]
		dst := v.Ints[len(v.Ints)-n:]
		if hostLittleEndian {
			copy(wordBytes(dst), rest)
			break
		}
		for i := range dst {
			dst[i] = int64(binary.LittleEndian.Uint64(rest[i*8:]))
		}
	case TypeFloat64:
		if len(rest) < 8*n {
			return nil, fmt.Errorf("colstore: truncated plain block")
		}
		v.Floats = grown(v.Floats, n)[:len(v.Floats)+n]
		dst := v.Floats[len(v.Floats)-n:]
		if hostLittleEndian {
			copy(wordBytes(dst), rest)
			break
		}
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[i*8:]))
		}
	case TypeString:
		for i := 0; i < n; i++ {
			l, m := binary.Uvarint(rest)
			if m <= 0 || uint64(len(rest)-m) < l {
				return nil, fmt.Errorf("colstore: truncated string block")
			}
			rest = rest[m:]
			v.Strs = append(v.Strs, string(rest[:l]))
			rest = rest[l:]
		}
	case TypeBool:
		if len(rest) < n {
			return nil, fmt.Errorf("colstore: truncated bool block")
		}
		for i := 0; i < n; i++ {
			v.Bools = append(v.Bools, rest[i] != 0)
		}
	default:
		return nil, fmt.Errorf("colstore: decode invalid type %v", v.Type)
	}
	return v, nil
}

func decodeRLE(v *Vector, rest []byte, n int) (*Vector, error) {
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
		var err error
		rest, err = decodeOneRepeated(v, rest, int(run))
		if err != nil {
			return nil, err
		}
		total += int(run)
	}
	if total != n {
		return nil, fmt.Errorf("colstore: RLE block decoded %d rows, want %d", total, n)
	}
	return v, nil
}

func decodeOneRepeated(v *Vector, rest []byte, run int) ([]byte, error) {
	switch v.Type {
	case TypeInt64, TypeFloat64:
		if len(rest) < 8 {
			return nil, fmt.Errorf("colstore: truncated RLE value")
		}
		u := binary.LittleEndian.Uint64(rest)
		rest = rest[8:]
		for i := 0; i < run; i++ {
			if v.Type == TypeInt64 {
				v.Ints = append(v.Ints, int64(u))
			} else {
				v.Floats = append(v.Floats, math.Float64frombits(u))
			}
		}
	case TypeString:
		l, m := binary.Uvarint(rest)
		if m <= 0 || uint64(len(rest)-m) < l {
			return nil, fmt.Errorf("colstore: truncated RLE string")
		}
		rest = rest[m:]
		s := string(rest[:l])
		rest = rest[l:]
		for i := 0; i < run; i++ {
			v.Strs = append(v.Strs, s)
		}
	case TypeBool:
		if len(rest) < 1 {
			return nil, fmt.Errorf("colstore: truncated RLE bool")
		}
		b := rest[0] != 0
		rest = rest[1:]
		for i := 0; i < run; i++ {
			v.Bools = append(v.Bools, b)
		}
	default:
		return nil, fmt.Errorf("colstore: decode invalid type %v", v.Type)
	}
	return rest, nil
}

func decodeDelta(v *Vector, rest []byte, n int) (*Vector, error) {
	if v.Type != TypeInt64 {
		return nil, fmt.Errorf("colstore: DELTA block with type %v", v.Type)
	}
	prev := int64(0)
	for i := 0; i < n; i++ {
		d, m := binary.Varint(rest)
		if m <= 0 {
			return nil, fmt.Errorf("colstore: truncated delta block")
		}
		rest = rest[m:]
		prev += d
		v.Ints = append(v.Ints, prev)
	}
	return v, nil
}

// readDict appends a dictionary payload's entries to dict and returns the
// bytes that follow them (the row codes).
func readDict(dict []string, rest []byte) ([]string, []byte, error) {
	dn, m := binary.Uvarint(rest)
	if m <= 0 {
		return nil, nil, fmt.Errorf("colstore: truncated dict header")
	}
	rest = rest[m:]
	// Every dictionary entry needs at least one header byte, so the entry
	// count cannot exceed the remaining payload.
	if dn > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("colstore: dict claims %d entries in %d bytes", dn, len(rest))
	}
	dict = slices.Grow(dict, int(dn))
	for i := uint64(0); i < dn; i++ {
		l, m := binary.Uvarint(rest)
		if m <= 0 || uint64(len(rest)-m) < l {
			return nil, nil, fmt.Errorf("colstore: truncated dict entry")
		}
		rest = rest[m:]
		dict = append(dict, string(rest[:l]))
		rest = rest[l:]
	}
	return dict, rest, nil
}

func decodeDict(v *Vector, rest []byte, n int) (*Vector, error) {
	if v.Type != TypeString {
		return nil, fmt.Errorf("colstore: DICT block with type %v", v.Type)
	}
	dict, rest, err := readDict(nil, rest)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		c, m := binary.Uvarint(rest)
		if m <= 0 {
			return nil, fmt.Errorf("colstore: truncated dict codes")
		}
		rest = rest[m:]
		if c >= uint64(len(dict)) {
			return nil, fmt.Errorf("colstore: dict code %d out of range %d", c, len(dict))
		}
		v.Strs = append(v.Strs, dict[c])
	}
	return v, nil
}
