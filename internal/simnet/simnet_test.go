package simnet

import (
	"math"
	"sync/atomic"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSleepAdvancesClock(t *testing.T) {
	s := New()
	var end float64
	s.Go("p", func(p *Proc) {
		p.Sleep(2.5)
		end = p.Now()
	})
	total := s.Run()
	if !almost(end, 2.5) || !almost(total, 2.5) {
		t.Fatalf("end=%v total=%v", end, total)
	}
}

func TestParallelProcessesOverlap(t *testing.T) {
	s := New()
	for i := 0; i < 10; i++ {
		s.Go("p", func(p *Proc) { p.Sleep(3) })
	}
	if total := s.Run(); !almost(total, 3) {
		t.Fatalf("parallel sleeps should overlap: %v", total)
	}
}

func TestSequentialSleeps(t *testing.T) {
	s := New()
	s.Go("p", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(1)
		}
	})
	if total := s.Run(); !almost(total, 4) {
		t.Fatalf("total = %v", total)
	}
}

func TestResourceSingleSlotSerializes(t *testing.T) {
	s := New()
	r := s.NewResource("disk", 1, 100) // 100 units/s
	for i := 0; i < 5; i++ {
		s.Go("p", func(p *Proc) { r.Use(p, 100) }) // 1s each
	}
	if total := s.Run(); !almost(total, 5) {
		t.Fatalf("serialized total = %v, want 5", total)
	}
}

func TestResourceMultiSlotParallelism(t *testing.T) {
	s := New()
	cpu := s.NewResource("cpu", 4, 1) // 4 cores, 1 unit/s each
	for i := 0; i < 8; i++ {
		s.Go("task", func(p *Proc) { cpu.Use(p, 2) })
	}
	// 8 tasks × 2s on 4 cores = 4s.
	if total := s.Run(); !almost(total, 4) {
		t.Fatalf("total = %v, want 4", total)
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	s := New()
	r := s.NewResource("r", 1, 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Go("p", func(p *Proc) {
			p.Sleep(float64(i) * 0.001) // stagger arrivals
			r.Use(p, 1)
			order = append(order, i)
		})
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestZeroUnitsNoTime(t *testing.T) {
	s := New()
	r := s.NewResource("r", 1, 1)
	s.Go("p", func(p *Proc) { r.Use(p, 0) })
	if total := s.Run(); !almost(total, 0) {
		t.Fatalf("zero work took %v", total)
	}
}

func TestGateForkJoin(t *testing.T) {
	s := New()
	g := s.NewGate(3)
	var joined float64
	for i := 1; i <= 3; i++ {
		i := i
		s.Go("worker", func(p *Proc) {
			p.Sleep(float64(i))
			g.Done()
		})
	}
	s.Go("joiner", func(p *Proc) {
		g.Wait(p)
		joined = p.Now()
	})
	s.Run()
	if !almost(joined, 3) {
		t.Fatalf("join at %v, want 3 (slowest worker)", joined)
	}
}

func TestGateAlreadyOpen(t *testing.T) {
	s := New()
	g := s.NewGate(0)
	s.Go("p", func(p *Proc) {
		g.Wait(p) // should not block
		p.Sleep(1)
	})
	if total := s.Run(); !almost(total, 1) {
		t.Fatalf("total = %v", total)
	}
}

func TestSpawnDuringRun(t *testing.T) {
	s := New()
	var count atomic.Int32
	s.Go("parent", func(p *Proc) {
		p.Sleep(1)
		g := s.NewGate(2)
		for i := 0; i < 2; i++ {
			s.Go("child", func(c *Proc) {
				c.Sleep(2)
				count.Add(1)
				g.Done()
			})
		}
		g.Wait(p)
	})
	total := s.Run()
	if count.Load() != 2 || !almost(total, 3) {
		t.Fatalf("count=%d total=%v", count.Load(), total)
	}
}

func TestPipelineModel(t *testing.T) {
	// A two-stage pipeline: disk (50 MB/s) feeding a NIC (100 MB/s) in 10
	// chunks of 100 MB. The slower stage dominates: total ≈ 10×2s + one
	// 1s NIC drain for the last chunk.
	s := New()
	disk := s.NewResource("disk", 1, 50)
	nic := s.NewResource("nic", 1, 100)
	for i := 0; i < 10; i++ {
		i := i
		s.Go("chunk", func(p *Proc) {
			p.Sleep(float64(i) * 1e-6) // preserve chunk order
			disk.Use(p, 100)
			nic.Use(p, 100)
		})
	}
	total := s.Run()
	if total < 20.9 || total > 21.1 {
		t.Fatalf("pipeline total = %v, want ~21", total)
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	s := New()
	g := s.NewGate(1) // never Done
	s.Go("stuck", func(p *Proc) { g.Wait(p) })
	s.Run()
}

func TestBadResourcePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad resource")
		}
	}()
	New().NewResource("bad", 0, 1)
}

func TestDeterminism(t *testing.T) {
	run := func() float64 {
		s := New()
		r := s.NewResource("r", 3, 7)
		g := s.NewGate(20)
		for i := 0; i < 20; i++ {
			i := i
			s.Go("p", func(p *Proc) {
				p.Sleep(float64(i%5) * 0.1)
				r.Use(p, float64(1+i%3))
				g.Done()
			})
		}
		s.Go("join", func(p *Proc) { g.Wait(p) })
		return s.Run()
	}
	a, b := run(), run()
	if !almost(a, b) {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}
