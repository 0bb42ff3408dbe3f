// Package spark is the in-memory-cluster-computing comparator of §7.3.2: a
// miniature RDD engine that loads text data from the HDFS substitute, caches
// deserialized partitions in executor memory, and runs aggregate jobs with
// the costs Spark actually pays relative to Distributed R — per-task launch
// work and gob-serialized broadcast of closure state (Distributed R shares
// memory with its workers, so it skips both). Its K-means is the same
// algorithm as internal/algos' (the paper stresses the comparison is
// apples-to-apples).
package spark

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"verticadr/internal/hdfs"
	"verticadr/internal/linalg"
)

// Context is a Spark application context bound to an HDFS instance.
type Context struct {
	fs        *hdfs.FS
	executors int // concurrent tasks
}

// NewContext creates a context with the given executor parallelism.
func NewContext(fs *hdfs.FS, executors int) (*Context, error) {
	if executors <= 0 {
		return nil, fmt.Errorf("spark: need at least one executor")
	}
	return &Context{fs: fs, executors: executors}, nil
}

// RDD is a resilient distributed dataset of float64 rows, partitioned by
// HDFS block. Compute is lazy; Cache materializes partitions in memory.
type RDD struct {
	ctx      *Context
	nparts   int
	compute  func(part int) ([][]float64, error)
	mu       sync.Mutex
	cache    [][][]float64
	doCache  bool
	LocalHit int // blocks served by a local replica during load
}

// TextFile reads a CSV file of float rows from HDFS into an RDD with one
// partition per block. Tasks are scheduled on the block's first replica
// node (data-local scheduling), and parsing happens per task — the real
// deserialization cost of reading text off HDFS.
func (c *Context) TextFile(name string) (*RDD, error) {
	blocks, err := c.fs.Blocks(name)
	if err != nil {
		return nil, err
	}
	r := &RDD{ctx: c, nparts: len(blocks)}
	r.compute = func(part int) ([][]float64, error) {
		node := blocks[part].Replicas[0]
		data, local, err := c.fs.ReadBlock(name, part, node)
		if err != nil {
			return nil, err
		}
		if local {
			r.mu.Lock()
			r.LocalHit++
			r.mu.Unlock()
		}
		return parseCSV(data)
	}
	return r, nil
}

func parseCSV(data []byte) ([][]float64, error) {
	var rows [][]float64
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		fields := strings.Split(line, ",")
		row := make([]float64, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("spark: bad float %q: %w", f, err)
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Cache marks the RDD for in-memory materialization on first computation.
func (r *RDD) Cache() *RDD {
	r.doCache = true
	return r
}

func (r *RDD) part(i int) ([][]float64, error) {
	if r.doCache {
		r.mu.Lock()
		if r.cache == nil {
			r.cache = make([][][]float64, r.nparts)
		}
		if r.cache[i] != nil {
			p := r.cache[i]
			r.mu.Unlock()
			return p, nil
		}
		r.mu.Unlock()
	}
	p, err := r.compute(i)
	if err != nil {
		return nil, err
	}
	if r.doCache {
		r.mu.Lock()
		r.cache[i] = p
		r.mu.Unlock()
	}
	return p, nil
}

// Count triggers computation and returns the total row count.
func (r *RDD) Count() (int, error) {
	total := 0
	var mu sync.Mutex
	err := r.foreachPartition(func(_ int, rows [][]float64) error {
		mu.Lock()
		total += len(rows)
		mu.Unlock()
		return nil
	})
	return total, err
}

// foreachPartition runs fn over partitions with bounded executor
// parallelism — one task per partition, the Spark task model.
func (r *RDD) foreachPartition(fn func(part int, rows [][]float64) error) error {
	sem := make(chan struct{}, r.ctx.executors)
	errs := make([]error, r.nparts)
	var wg sync.WaitGroup
	for i := 0; i < r.nparts; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rows, err := r.part(i)
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = fn(i, rows)
		}()
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// KmeansModel is an MLlib-style clustering result.
type KmeansModel struct {
	Centers    [][]float64
	Iterations int
	Objective  float64
}

// broadcast gob-encodes a value once and decodes it per task, modelling
// Spark's closure/broadcast serialization (Distributed R's workers share
// the master's memory image and skip this).
type broadcast struct{ data []byte }

func newBroadcast(v any) (*broadcast, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return &broadcast{data: buf.Bytes()}, nil
}

func (b *broadcast) value(out any) error {
	return gob.NewDecoder(bytes.NewReader(b.data)).Decode(out)
}

// Kmeans runs Lloyd's iterations over the RDD: identical math to the
// Distributed R implementation, plus the Spark-side overheads (per-task
// broadcast deserialization).
func Kmeans(r *RDD, k, maxIter int, seed int64) (*KmeansModel, error) {
	rows, err := r.Count()
	if err != nil {
		return nil, err
	}
	if k <= 0 || rows < k {
		return nil, fmt.Errorf("spark: kmeans needs 1 <= K <= rows")
	}
	// Initialize with K rows sampled deterministically from the seed,
	// spread across partitions so seeds cover the data (MLlib uses random
	// or k-means|| init; a seeded spread sample keeps runs reproducible).
	rng := rand.New(rand.NewSource(seed))
	var centers [][]float64
	for attempts := 0; len(centers) < k && attempts < 50*k; attempts++ {
		p, err := r.part((len(centers) + attempts) % r.nparts)
		if err != nil {
			return nil, err
		}
		if len(p) == 0 {
			continue
		}
		row := p[rng.Intn(len(p))]
		dup := false
		for _, c := range centers {
			if linalg.SqDist(c, row) == 0 {
				dup = true
				break
			}
		}
		if dup && attempts < 40*k {
			continue
		}
		c := make([]float64, len(row))
		copy(c, row)
		centers = append(centers, c)
	}
	if len(centers) < k {
		return nil, fmt.Errorf("spark: could not seed %d distinct centers", k)
	}
	d := len(centers[0])
	model := &KmeansModel{}
	for iter := 0; iter < maxIter; iter++ {
		bc, err := newBroadcast(centers)
		if err != nil {
			return nil, err
		}
		// Each partition folds into its own slot, and the slots into the
		// totals in partition order, whatever order the tasks finish in:
		// floating-point sums depend on their order, so this keeps a fit
		// bit-reproducible.
		type partial struct {
			sums   [][]float64
			counts []int
			obj    float64
		}
		parts := make([]partial, r.nparts)
		err = r.foreachPartition(func(pi int, rows [][]float64) error {
			var local [][]float64
			if err := bc.value(&local); err != nil {
				return err
			}
			p := partial{sums: make([][]float64, k), counts: make([]int, k)}
			for i := range p.sums {
				p.sums[i] = make([]float64, d)
			}
			for _, row := range rows {
				best, bestD := 0, math.Inf(1)
				for ci, c := range local {
					if dd := linalg.SqDist(row, c); dd < bestD {
						best, bestD = ci, dd
					}
				}
				p.counts[best]++
				p.obj += bestD
				for j, v := range row {
					p.sums[best][j] += v
				}
			}
			parts[pi] = p
			return nil
		})
		if err != nil {
			return nil, err
		}
		sums := make([][]float64, k)
		counts := make([]int, k)
		for i := range sums {
			sums[i] = make([]float64, d)
		}
		var obj float64
		for _, p := range parts {
			obj += p.obj
			for ci := range sums {
				counts[ci] += p.counts[ci]
				for j := range sums[ci] {
					sums[ci][j] += p.sums[ci][j]
				}
			}
		}
		var moved float64
		for ci := range centers {
			nc := make([]float64, d)
			if counts[ci] == 0 {
				copy(nc, centers[ci])
			} else {
				for j := range nc {
					nc[j] = sums[ci][j] / float64(counts[ci])
				}
			}
			moved += linalg.SqDist(nc, centers[ci])
			centers[ci] = nc
		}
		model.Iterations = iter + 1
		model.Objective = obj
		if math.Sqrt(moved) < 1e-4 {
			break
		}
	}
	model.Centers = centers
	return model, nil
}

// WriteCSV materializes float rows as CSV text into HDFS (the dataset prep
// step for the Spark comparisons).
func WriteCSV(fs *hdfs.FS, name string, rows [][]float64) error {
	var sb strings.Builder
	for _, row := range rows {
		for j, v := range row {
			if j > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		sb.WriteByte('\n')
	}
	return fs.WriteFile(name, []byte(sb.String()))
}
