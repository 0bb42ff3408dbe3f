package workload

// SkewedSizes splits n rows across parts partitions with a geometric skew
// factor (factor 1 = even). Used to model skewed Vertica segmentation (§3.2):
// partition i receives weight factorⁱ. The returned sizes sum to exactly n.
func SkewedSizes(n, parts int, factor float64) []int {
	if parts <= 0 {
		panic("workload: parts must be positive")
	}
	if factor <= 0 {
		panic("workload: skew factor must be positive")
	}
	weights := make([]float64, parts)
	var total float64
	w := 1.0
	for i := range weights {
		weights[i] = w
		total += w
		w *= factor
	}
	sizes := make([]int, parts)
	assigned := 0
	for i := range sizes {
		sizes[i] = int(float64(n) * weights[i] / total)
		assigned += sizes[i]
	}
	// Distribute the remainder deterministically to the largest partitions.
	for i := parts - 1; assigned < n; i = (i + parts - 1) % parts {
		sizes[i]++
		assigned++
	}
	return sizes
}
