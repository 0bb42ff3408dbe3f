package core

import (
	"context"
	"math"
	"runtime"
	"testing"

	"verticadr/internal/algos"
	"verticadr/internal/darray"
	"verticadr/internal/vft"
)

// fit9Arrays runs the benchmark's transfer once and returns the arrays its
// fit phase trains on: the eight features and the 0/1 class.
func fit9Arrays(tb testing.TB, s *Session) (x, y *darray.DArray) {
	tb.Helper()
	frame, _, err := s.DB2DFrameContext(context.Background(), "pts", transfer9Cols, vft.PolicyLocality)
	if err != nil {
		tb.Fatal(err)
	}
	if x, err = frame.AsDArray(transfer9Feats); err != nil {
		tb.Fatal(err)
	}
	if y, err = frame.AsDArray([]string{"c"}); err != nil {
		tb.Fatal(err)
	}
	return x, y
}

// fitGLM9 and fitKmeans8 are the benchmark's fit phase (benchmark/phases.go
// phaseFit): a binomial GLM held to exactly 5 iterations and K-means with
// K = 8 held to exactly 10.
func fitGLM9(tb testing.TB, x, y *darray.DArray) *algos.GLMModel {
	m, err := algos.GLM(x, y, algos.GLMOpts{Family: algos.Binomial, MaxIter: 5, Tol: 1e-300})
	if err != nil {
		tb.Fatal(err)
	}
	if m.Iterations != 5 {
		tb.Fatalf("glm ran %d iterations, want 5", m.Iterations)
	}
	return m
}

func fitKmeans8(tb testing.TB, x *darray.DArray) *algos.KmeansModel {
	m, err := algos.Kmeans(x, algos.KmeansOpts{K: 8, MaxIter: 10, Tol: 1e-300, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	if m.Iterations != 10 {
		tb.Fatalf("kmeans ran %d iterations, want 10", m.Iterations)
	}
	return m
}

// BenchmarkFitGLM9 is the benchmark's GLM fit at paper_pipeline's size
// (500k rows x 8 features, 4 workers), so glm_fit_s can be profiled in
// seconds. Every repetition must reproduce the first fit's bits.
func BenchmarkFitGLM9(b *testing.B) {
	s := transfer9Session(b, 500_000)
	x, y := fit9Arrays(b, s)
	want := fitGLM9(b, x, y)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := fitGLM9(b, x, y)
		for j, c := range got.Coefficients {
			if math.Float64bits(c) != math.Float64bits(want.Coefficients[j]) {
				b.Fatalf("run %d: coefficient %d = %v, first fit gave %v", i, j, c, want.Coefficients[j])
			}
		}
	}
}

// BenchmarkFitKmeans8 is the benchmark's K-means fit at paper_pipeline's
// size. Every repetition must reproduce the first fit's objective bits.
func BenchmarkFitKmeans8(b *testing.B) {
	s := transfer9Session(b, 500_000)
	x, _ := fit9Arrays(b, s)
	want := fitKmeans8(b, x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := fitKmeans8(b, x); math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
			b.Fatalf("run %d: objective %v, first fit gave %v", i, got.Objective, want.Objective)
		}
	}
}

// A fit allocates per iteration (the fold's run-ahead state, the solve or
// the new centers), once per fit (one slab of the slots its streamed fold
// holds partials in) and per worker (pooled row scratch) — never per row or
// per chunk of
// rows. The bounds are what the same fits allocated before PR 25, least of
// three warm runs: 1229 KB for the GLM, which allocated a fresh partial and
// row vector per chunk per iteration, and 67 KB for K-means.
func TestFitAllocationBounded(t *testing.T) {
	if raceDetector {
		t.Skip("under -race sync.Pool drops a quarter of what is put back")
	}
	s := transfer9Session(t, 500_000)
	x, y := fit9Arrays(t, s)
	measure := func(fit func()) uint64 {
		fit() // warm the pools
		least := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			fit()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	glm := measure(func() { fitGLM9(t, x, y) })
	km := measure(func() { fitKmeans8(t, x) })
	t.Logf("glm fit: %d KB, kmeans fit: %d KB", glm>>10, km>>10)
	if glm > 1229<<10 {
		t.Errorf("one GLM fit allocated %d KB, more than the 1229 KB before PR 25", glm>>10)
	}
	if km > 67<<10 {
		t.Errorf("one K-means fit allocated %d KB, more than the 67 KB before PR 25", km>>10)
	}
}
