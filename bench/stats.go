package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// minSegmentSamples is the sample floor below which a percentile is taken
// once over the whole window instead of per segment: with fewer samples a
// per-segment p99 is the segment's maximum, which is noise, not a tail.
const minSegmentSamples = 1000

// Metric is one named measurement as stored in a result file. Segments holds
// the per-segment values (per-pass on paper_grid) where there are any; Value
// is their median, except where the code that fills it in says otherwise (a
// thin window's rate, paper_grid's per-cell medians); Samples is the number
// of operations, cells or repetitions behind it.
type Metric struct {
	Value    float64   `json:"value"`
	Unit     string    `json:"unit"`
	Samples  int       `json:"samples,omitempty"`
	Segments []float64 `json:"segments,omitempty"`
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile is the nearest-rank p-th percentile (0 < p <= 1) of an ascending
// slice of durations, in milliseconds.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i]) / float64(time.Millisecond)
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives — the spread the benchmark's
// acceptance rule is stated in. Fewer than two values have no spread.
func quartileSpread(xs []float64) float64 {
	m := len(xs)
	med := median(xs)
	if m < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return math.Abs(cut(3)-cut(1)) / math.Abs(med)
}

// window is the timed part of a run cut into equal segments. An operation
// belongs to the segment its completion falls in; operations completing
// outside the window (warm-up, the last one in flight) belong to none.
type window struct {
	start  time.Time
	segLen time.Duration
	nseg   int
}

func newWindow(start time.Time, length time.Duration, nseg int) window {
	return window{start: start, segLen: length / time.Duration(nseg), nseg: nseg}
}

func (w window) end() time.Time { return w.start.Add(w.segLen * time.Duration(w.nseg)) }

func (w window) segment(t time.Time) int {
	d := t.Sub(w.start)
	if d < 0 || w.nseg == 0 { // before the window, or no window at all (set-up traffic)
		return -1
	}
	if s := int(d / w.segLen); s < w.nseg {
		return s
	}
	return -1
}

// sample is one completed, verified operation.
type sample struct {
	lat   int64 // client-side latency, ns
	seg   int8
	class uint8
}

// segmentStat reduces the latencies of one operation class to a Metric:
// stat is applied per segment and the median of the segment values reported,
// unless some segment in segs holds fewer than minSegmentSamples operations
// of the class — then stat is applied once to the whole of segs.
func segmentStat(samples []sample, class uint8, segs []int, stat func(sorted []int64) float64) Metric {
	bySeg := make(map[int][]int64, len(segs))
	for _, s := range samples {
		if s.class == class {
			bySeg[int(s.seg)] = append(bySeg[int(s.seg)], s.lat)
		}
	}
	var all []int64
	perSegment := true
	for _, g := range segs {
		all = append(all, bySeg[g]...)
		if len(bySeg[g]) < minSegmentSamples {
			perSegment = false
		}
	}
	m := Metric{Unit: "ms", Samples: len(all)}
	if perSegment {
		for _, g := range segs {
			l := bySeg[g]
			slices.Sort(l)
			m.Segments = append(m.Segments, stat(l))
		}
		m.Value = median(m.Segments)
		return m
	}
	slices.Sort(all)
	m.Value = stat(all)
	return m
}

func meanMS(lat []int64) float64 {
	var sum float64
	for _, v := range lat {
		sum += float64(v)
	}
	return ratio(sum, float64(len(lat))) / float64(time.Millisecond)
}

func p50(sorted []int64) float64 { return percentile(sorted, 0.50) }
func p99(sorted []int64) float64 { return percentile(sorted, 0.99) }

// segmentRate is completed operations per second: per segment, median —
// unless some segment holds fewer than minSegmentSamples operations, when it
// is taken once over the whole of segs. A thin segment's rate is set by
// whether one of the run's few collector cycles fell in it, and the median
// then drops or keeps a cost the program does pay.
func segmentRate(samples []sample, segs []int, segLen time.Duration) Metric {
	counts := make(map[int]int, len(segs))
	for _, s := range samples {
		counts[int(s.seg)]++
	}
	m := Metric{Unit: "1/s"}
	perSegment := true
	for _, g := range segs {
		m.Samples += counts[g]
		m.Segments = append(m.Segments, float64(counts[g])/segLen.Seconds())
		if counts[g] < minSegmentSamples {
			perSegment = false
		}
	}
	if perSegment {
		m.Value = median(m.Segments)
	} else {
		m.Value = float64(m.Samples) / (float64(len(segs)) * segLen.Seconds())
	}
	return m
}
