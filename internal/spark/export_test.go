package spark

import "fmt"

// Parallelize distributes in-memory rows into nparts partitions.
func (c *Context) Parallelize(rows [][]float64, nparts int) (*RDD, error) {
	if nparts <= 0 {
		return nil, fmt.Errorf("spark: need at least one partition")
	}
	r := &RDD{ctx: c, nparts: nparts}
	r.compute = func(part int) ([][]float64, error) {
		lo := part * len(rows) / nparts
		hi := (part + 1) * len(rows) / nparts
		return rows[lo:hi], nil
	}
	return r, nil
}

// NumPartitions returns the partition count.
func (r *RDD) NumPartitions() int { return r.nparts }

// Collect triggers computation and gathers all rows to the driver.
func (r *RDD) Collect() ([][]float64, error) {
	parts := make([][][]float64, r.nparts)
	err := r.foreachPartition(func(i int, rows [][]float64) error {
		parts[i] = rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out [][]float64
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}
