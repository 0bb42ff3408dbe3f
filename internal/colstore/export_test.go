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
// as its own type, under the one comparison pred as planScan plans it: an
// interval when it is one over a column of the block's type.
func MatchBlockCompressed(data []byte, pred *Pred, scratch []int) (idx []int, handled bool, err error) {
	c := cond{pred: pred}
	if len(data) > 0 {
		if iv, ok := pred.interval(Type(data[0])); ok {
			c.interval, c.pred = iv, nil
		}
	}
	return new(runMatch).match(data, anyType, &c, scratch)
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
