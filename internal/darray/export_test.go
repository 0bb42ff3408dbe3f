package darray

import "fmt"

// Collect gathers the whole array to the master as one matrix, partitions in
// order (used to fetch model-sized data, not bulk data).
func (a *DArray) Collect() (*Mat, error) {
	sizes := a.PartitionSizes()
	cols := a.Cols()
	total := 0
	for i, s := range sizes {
		if s[1] != 0 && s[1] != cols {
			return nil, fmt.Errorf("darray: inconsistent cols in partition %d", i)
		}
		total += s[0]
	}
	out := NewMat(total, cols)
	off := 0
	for i := range sizes {
		m, err := a.Part(i)
		if err != nil {
			return nil, err
		}
		copy(out.Data[off:], m.Data)
		off += len(m.Data)
	}
	return out, nil
}

// Filled reports whether every partition has data.
func (a *DArray) Filled() bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	for _, p := range a.part {
		if !p.filled {
			return false
		}
	}
	return true
}

// Collect gathers all elements in partition order.
func (l *DList) Collect() ([]any, error) {
	var out []any
	for i := 0; i < l.NPartitions(); i++ {
		items, err := l.Part(i)
		if err != nil {
			return nil, err
		}
		out = append(out, items...)
	}
	return out, nil
}
