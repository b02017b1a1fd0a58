package main

import (
	"math"
	"testing"
	"time"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		med        float64
		q1, q2, q3 float64
	}{
		// statistics.median / statistics.quantiles(xs, n=4)
		{[]float64{5, 1, 4, 2, 3}, 3, 1.5, 3, 4.5},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 5.5, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 1.5, 0.75, 1.5, 2.25},
	} {
		if got := median(tc.xs); got != tc.med {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.med)
		}
		q1, q2, q3, ok := quartiles(tc.xs)
		if !ok || q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, ok, tc.q1, tc.q2, tc.q3)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample reported ok")
	}
	if median(nil) != 0 {
		t.Error("median of no samples is not 0")
	}
}

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: tailOf must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n          int
		value, pct float64
		beyond     int
	}{
		{100, 90, 90, 10},
		{1000, 990, 99, 10},
		{57, 47, 100 * 47.0 / 57, 10},
		{11, 1, 100 * 1.0 / 11, 10},
		{10, 10, 100, 0}, // too few samples: the maximum, nothing beyond
	} {
		got := tailOf(seq(tc.n))
		if got.Value != tc.value || math.Abs(got.Percentile-tc.pct) > 1e-9 || got.N != tc.n || got.Beyond != tc.beyond {
			t.Errorf("tailOf(1..%d) = %+v, want value %v at p%v with %d beyond", tc.n, got, tc.value, tc.pct, tc.beyond)
		}
	}
}

var sink []byte

func burnCPU(d time.Duration) {
	end := time.Now().Add(d)
	x := 0
	for time.Now().Before(end) {
		x++
	}
	_ = x
}

func TestWindowExcludesSetup(t *testing.T) {
	// Set-up work: CPU and allocation before begin must not count.
	burnCPU(150 * time.Millisecond)
	sink = make([]byte, 16<<20)

	var w window
	w.begin()
	burnCPU(40 * time.Millisecond)
	sink = make([]byte, 4<<20)
	w.end()

	if w.CPU < 30*time.Millisecond || w.CPU > 130*time.Millisecond {
		t.Errorf("window CPU = %v, want about 40ms (set-up's 150ms excluded)", w.CPU)
	}
	if w.Alloc < 4<<20 || w.Alloc >= 16<<20 {
		t.Errorf("window allocation = %d bytes, want about 4 MiB (set-up's 16 MiB excluded)", w.Alloc)
	}
}

func TestPeakRSSSeesTouchedMemory(t *testing.T) {
	before := peakRSSMB()
	buf := make([]byte, 96<<20)
	for i := 0; i < len(buf); i += 4096 {
		buf[i] = 1
	}
	sink = buf
	if after := peakRSSMB(); after < before+64 && after < 96 {
		t.Errorf("peak RSS %v MB -> %v MB after touching 96 MiB", before, after)
	}
	sink = nil
}

func TestMillis(t *testing.T) {
	got := millis([]time.Duration{1500 * time.Microsecond, 2 * time.Second})
	if got[0] != 1.5 || got[1] != 2000 {
		t.Errorf("millis = %v", got)
	}
}
