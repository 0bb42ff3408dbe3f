package main

import (
	"io"
	"math"
	"net"
	"time"
)

// Host-speed calibration.
//
// The sizing host is a 2-vCPU virtual machine whose speed moves for tens of
// minutes at a time: neighbours on the same physical machine take cache and
// memory bandwidth, and everything the guest runs — compute, system calls,
// fsync alike — goes 1.3 to 1.6 times slower while the guest sees nothing
// but the clock. A run lasts half a minute, so it sits inside one such
// regime and no repetition inside it averages the regime out: two sets of
// ten runs of the same code, taken across a regime change, differ by 20-50 %
// on every metric at once (README, "A/A calibration", has such pairs of
// sets), which no regression bound survives.
//
// The benchmark therefore times a small fixed kernel of its own before every
// timed region — right after the collection that settles the heap, while the
// program is idle — and divides a round's timings by how much slower than
// nominal the round's median kernel ran. What is reported is the time the
// operation would have taken at the host's nominal speed; the run record
// keeps every metric as measured beside it.
//
// The kernel shares no code with the program, is single-threaded, and may
// not change once the benchmark is accepted, so a slower program still reads
// slower; only the host's own drift cancels.
//
// A third kernel covers what the first two miss. The host has a state, coming
// and going within seconds, in which system calls on a socket cost 1.5 times
// as much while memory slows by a quarter: a point lookup, 70 us of which a
// third is socket I/O, has its median at 0.067 ms in one state and at
// 0.110 ms in the other, a run's median wherever the mixture puts it, and ten
// runs of unchanged code spread by 25-30 % of their median. A round trip of 64
// bytes over a loopback connection of the harness's own (echoLoop) moves with
// it: 7.5 us against 11.5 us. It is timed with the other two kernels, and
// its factor is used by class of metric (scaling, in spec.go): not at all for
// computation; together with the compute factor for phases heavy in system
// calls; and in full, sampled again before every block of lookups because a
// round is too coarse for a 70 us operation, for the point lookup.

const (
	nKernels    = 3
	kernelCells = 1 << 21 // float64s summed sequentially: 16 MiB, larger than the caches
	kernelTrips = 2000    // round trips between two goroutines
	echoBytes   = 64
	echoTrips   = 10 // round trips of the echo loop, their median taken
)

// kernelNominal is each kernel's time on the sizing host on an ordinary
// hour, between its quiet level (2.8 ms, 0.9 ms, 7.5 us) and a slow
// regime's. It is a unit convention, not a measurement anything depends on: it makes a
// scaled value read about like a measured one on the sizing host. On another
// host every value shifts by one constant factor, and any comparison of two
// builds on one host is unaffected.
var kernelNominal = [nKernels]time.Duration{3100 * time.Microsecond, 1000 * time.Microsecond, 8 * time.Microsecond}

// hostKernel is three fixed pieces of work: a sequential sum over 16 MiB
// (memory bandwidth, what the scans and fits lean on), a ping-pong between
// two goroutines over unbuffered channels (scheduler hand-offs and wake-ups)
// and the echo loop's round trips (socket system calls, what the request path
// leans on). While sizing, the second tracked the host's slow regimes about
// as well as the first, and the pair better than any compute-bound or
// cache-resident kernel tried.
type hostKernel struct {
	seq  []float64
	sink float64 // keeps the sum alive
	echo *echoLoop
}

func newHostKernel() (*hostKernel, error) {
	k := &hostKernel{seq: make([]float64, kernelCells)}
	for i := range k.seq {
		k.seq[i] = float64(i&1023) * 0.5
	}
	var err error
	if k.echo, err = newEchoLoop(); err != nil {
		return nil, err
	}
	return k, nil
}

func (k *hostKernel) Close() { k.echo.Close() }

// sample times each kernel once (about 4 ms in all on a quiet sizing host).
func (k *hostKernel) sample() (d [nKernels]time.Duration, err error) {
	t0 := time.Now()
	s := 0.0
	for _, v := range k.seq {
		s += v
	}
	k.sink += s
	d[0] = time.Since(t0)

	ping, pong := make(chan struct{}), make(chan struct{})
	go func() {
		for range ping {
			pong <- struct{}{}
		}
	}()
	t0 = time.Now()
	for i := 0; i < kernelTrips; i++ {
		ping <- struct{}{}
		<-pong
	}
	d[1] = time.Since(t0)
	close(ping)
	d[2], err = k.echo.trip()
	return d, err
}

// slowdown folds samples into how much slower than nominal the host ran, each
// kernel by its median time over its nominal time: compute is the geometric
// mean of the sum's and the ping-pong's (1 on a quiet sizing host, 1.2 in a
// slow regime), socket the echo loop's (0.95 and 1.45).
func slowdown(samples [][nKernels]time.Duration) (compute, socket float64) {
	var ratio [nKernels]float64
	for k, nominal := range kernelNominal {
		v := make([]float64, len(samples))
		for i, s := range samples {
			v[i] = float64(s[k])
		}
		ratio[k] = median(v) / float64(nominal)
	}
	return math.Sqrt(ratio[0] * ratio[1]), ratio[2]
}

// factor is what a metric's samples of one round are divided by.
func (sc scaling) factor(compute, socket float64) float64 {
	switch sc {
	case byRoundAndEcho:
		return math.Sqrt(compute * socket)
	case byEchoBlock: // on top of what each block was divided by
		return math.Sqrt(compute)
	}
	return compute
}

// atNominal rescales a measured value to the host's nominal speed: a
// duration shrinks by the slowdown factor, a rate grows by it.
func atNominal(v float64, m metricDef, factor float64) float64 {
	if m.Higher {
		return v * factor
	}
	return v / factor
}

// echoLoop is a loopback TCP connection whose far end sends back what it
// reads: a write, a wake-up and a read on either side, what a request costs
// before the program has done anything with it.
type echoLoop struct {
	ln   net.Listener
	conn net.Conn
	buf  [echoBytes]byte
}

func newEchoLoop() (*echoLoop, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var buf [echoBytes]byte
		for {
			if _, err := io.ReadFull(c, buf[:]); err != nil {
				return
			}
			if _, err := c.Write(buf[:]); err != nil {
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		return nil, err
	}
	return &echoLoop{ln: ln, conn: conn}, nil
}

// Close ends the far end too: its accept or its read fails.
func (e *echoLoop) Close() {
	e.conn.Close()
	e.ln.Close()
}

// trip makes echoTrips round trips and returns their median time.
func (e *echoLoop) trip() (time.Duration, error) {
	var trips [echoTrips]float64
	for i := range trips {
		t0 := time.Now()
		if _, err := e.conn.Write(e.buf[:]); err != nil {
			return 0, err
		}
		if _, err := io.ReadFull(e.conn, e.buf[:]); err != nil {
			return 0, err
		}
		trips[i] = float64(time.Since(t0))
	}
	return time.Duration(median(trips[:])), nil
}
