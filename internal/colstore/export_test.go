package colstore

// DecodeBlock deserializes a block produced by EncodeBlock. Corrupt input —
// truncated payloads, unknown type or encoding bytes, row counts beyond
// MaxBlockRows, run lengths or dictionary codes that disagree with the
// header — returns an error, never a panic.
func DecodeBlock(data []byte) (*Vector, error) {
	typ, _, _, _, err := blockHeader(data, anyType)
	if err != nil {
		return nil, err
	}
	v := &Vector{Type: typ}
	if err := DecodeBlockInto(v, data); err != nil {
		return nil, err
	}
	return v, nil
}

// MatchBlockCompressed is runMatch.match into fresh buffers, of a block read
// as its own type.
func MatchBlockCompressed(data []byte, pred *Pred, scratch []int) (idx []int, handled bool, err error) {
	return new(runMatch).match(data, anyType, pred, scratch)
}

// CompressedBytes reports the total size of sealed block data (the on-wire /
// on-disk footprint before file framing).
func (s *Segment) CompressedBytes() int {
	total := 0
	for _, col := range s.sealed {
		for _, ref := range col {
			total += len(ref.data)
		}
	}
	return total
}
