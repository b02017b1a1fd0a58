package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// tailBeyond is how many samples must lie beyond the reported tail
// percentile.
const tailBeyond = 10

// median returns the middle of xs (the mean of the two middle values
// for an even count), as Python's statistics.median does. It returns 0
// for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartile of xs by the
// method of Python's statistics.quantiles(xs, n=4) (its default,
// "exclusive"). It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	ld := len(xs)
	if ld < 2 {
		return 0, 0, 0, false
	}
	s := sortedCopy(xs)
	const n = 4
	m := ld + 1
	var out [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2], true
}

// tail is the step-latency tail: the highest percentile that still
// has tailBeyond samples beyond it.
type tail struct {
	Value      float64 // the sample at that percentile
	Percentile float64 // 100·rank/n
	N          int     // samples the percentile was taken over
	Beyond     int     // samples strictly after it in sorted order
}

// tailOf picks the sample of rank n−tailBeyond (1-based) in sorted
// order, so exactly tailBeyond samples lie beyond it; its percentile is
// that rank over n. With tailBeyond or fewer samples there is no such
// rank and the maximum is reported at percentile 100 with fewer beyond.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := sortedCopy(xs)
	rank := n - tailBeyond
	if rank < 1 {
		return tail{Value: s[n-1], Percentile: 100, N: n}
	}
	return tail{Value: s[rank-1], Percentile: 100 * float64(rank) / float64(n), N: n, Beyond: n - rank}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// window samples process CPU time and Go heap allocation between begin
// and end. Only what runs inside the window counts, so set-up done
// before begin is charged to setup_s and not to the per-step figures.
type window struct {
	cpu0   time.Duration
	alloc0 uint64

	CPU   time.Duration // user+sys of the whole process
	Alloc uint64        // bytes allocated on the Go heap
}

// begin collects garbage left by set-up, then starts the window.
func (w *window) begin() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.alloc0 = ms.TotalAlloc
	w.cpu0 = processCPU()
}

// end closes the window.
func (w *window) end() {
	w.CPU = processCPU() - w.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.Alloc = ms.TotalAlloc - w.alloc0
}

// processCPU is the user+sys CPU time the process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
