package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"syscall"
	"time"
)

// The host-speed reference. The benchmark runs on virtual machines that
// share their host's cores, caches and memory with other tenants, and the
// host's speed drifts over minutes by more than any regression bound
// could absorb: on the 2-vCPU machine the benchmark was sized on, the
// median figures pass took 0.76 s in one run and 1.43 s a few minutes
// later. The drift is shared: every workload, and any code that touches
// memory or crosses loopback, slows down and speeds up together.
//
// So a run also times a fixed piece of work between its own operations:
// the reference, which calls nothing in softcache. It has two halves, one
// for each kind of work the workloads do: a small trace-driven cache
// simulation over freshly mapped memory, and round trips over a loopback
// TCP connection to an echo goroutine. The run's time metrics are then
// scaled by refNominalMS over the reference's time, which reports them at
// the speed of a host on which the reference takes refNominalMS: each
// set-up and each figures pass, about a second or less, by the reference
// run right after it; a serve window's latency, whose rounds last a tenth
// of a second or two and measured no steadier paired one by one, by the
// median of the run's reference runs. The reference is part of the benchmark, so a change to softcache
// moves the scaled metrics and not the reference.
const (
	refRecords    = 1 << 19 // addresses per reference run, 4 bytes each
	refSets       = 256     // the reference cache: 256 sets of 4 ways of 32-byte lines
	refWays       = 4
	refRoundTrips = 1000 // loopback round trips per reference run
	refAsk        = 256  // bytes sent per round trip
	refAnswer     = 4096 // bytes echoed back per round trip
	refNominalMS  = 25.0 // the reference's median time on the host the bounds were set on
)

// hostMeter times the reference and keeps every time it measured. Its
// echo goroutine answers the loopback round trips until close.
type hostMeter struct {
	samples []float64    // ms, the whole reference
	halves  [2][]float64 // ms, its memory half and its loopback half
	misses  int          // the first run's misses; every run must give the same
	tags    [refSets * refWays]uint32
	age     [refSets * refWays]uint32
	ask     [refAsk]byte
	answer  [refAnswer]byte
	ln      net.Listener
	conn    net.Conn      // the reference's end of the loopback connection
	done    chan struct{} // closed when the echo goroutine has returned
}

func newHostMeter() (*hostMeter, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("host-speed reference: %w", err)
	}
	h := &hostMeter{ln: ln, done: make(chan struct{})}
	go h.echo()
	if h.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		h.close()
		return nil, fmt.Errorf("host-speed reference: %w", err)
	}
	return h, nil
}

// echo accepts the reference's connection and answers every ask until the
// connection or the listener closes.
func (h *hostMeter) echo() {
	defer close(h.done)
	c, err := h.ln.Accept()
	if err != nil {
		return
	}
	defer c.Close()
	ask, answer := make([]byte, refAsk), make([]byte, refAnswer)
	for {
		if _, err := io.ReadFull(c, ask); err != nil {
			return
		}
		if _, err := c.Write(answer); err != nil {
			return
		}
	}
}

// close stops the echo goroutine and waits for it.
func (h *hostMeter) close() {
	if h.conn != nil {
		h.conn.Close()
	}
	h.ln.Close()
	<-h.done
}

// measure runs the reference once, after a garbage collection so that no
// collection of the program's heap runs beside it, and returns the factor
// that scales a time measured just before it to reference host speed:
// refNominalMS over the time it took.
func (h *hostMeter) measure() (float64, error) {
	runtime.GC()
	start := time.Now()
	mem, err := syscall.Mmap(-1, 0, 4*refRecords, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return 0, fmt.Errorf("host-speed reference: %w", err)
	}
	refTrace(mem)
	misses := h.simulate(mem)
	if err := syscall.Munmap(mem); err != nil {
		return 0, fmt.Errorf("host-speed reference: %w", err)
	}
	mid := time.Now()
	for i := 0; i < refRoundTrips; i++ {
		if _, err := h.conn.Write(h.ask[:]); err != nil {
			return 0, fmt.Errorf("host-speed reference: %w", err)
		}
		if _, err := io.ReadFull(h.conn, h.answer[:]); err != nil {
			return 0, fmt.Errorf("host-speed reference: %w", err)
		}
	}
	end := time.Now()
	h.samples = append(h.samples, ms(end.Sub(start)))
	h.halves[0] = append(h.halves[0], ms(mid.Sub(start)))
	h.halves[1] = append(h.halves[1], ms(end.Sub(mid)))
	if h.misses == 0 {
		h.misses = misses
	} else if misses != h.misses {
		return 0, fmt.Errorf("host-speed reference: %d misses, the first run had %d", misses, h.misses)
	}
	return refNominalMS / ms(end.Sub(start)), nil
}

// refTrace writes the reference's addresses into mem: half a sequential
// stream, a quarter random over 4 MiB, a quarter reuse of 128 KiB.
func refTrace(mem []byte) {
	x := uint32(12345)
	for i := 0; i < refRecords; i++ {
		x = x*1664525 + 1013904223
		var a uint32
		switch i % 4 {
		case 0, 1:
			a = uint32(i) * 8
		case 2:
			a = (x >> 8) % (4 << 20)
		default:
			a = uint32(i%4096) * 32
		}
		binary.LittleEndian.PutUint32(mem[4*i:], a)
	}
}

// simulate runs the addresses in mem through an LRU set-associative cache
// and returns its misses.
func (h *hostMeter) simulate(mem []byte) int {
	clear(h.tags[:])
	clear(h.age[:])
	misses := 0
	for i := 0; i < refRecords; i++ {
		line := binary.LittleEndian.Uint32(mem[4*i:]) >> 5
		set := int(line%refSets) * refWays
		hit := false
		for w := set; w < set+refWays; w++ {
			if h.tags[w] == line+1 {
				h.age[w] = uint32(i)
				hit = true
				break
			}
		}
		if !hit {
			misses++
			v := set
			for w := set + 1; w < set+refWays; w++ {
				if h.age[w] < h.age[v] {
					v = w
				}
			}
			h.tags[v], h.age[v] = line+1, uint32(i)
		}
	}
	return misses
}

// factor is what a serve window's latency is multiplied by: refNominalMS
// over the reference's median time.
func (h *hostMeter) factor() (float64, error) {
	if len(h.samples) == 0 {
		return 0, fmt.Errorf("the host-speed reference never ran")
	}
	return refNominalMS / median(h.samples), nil
}
