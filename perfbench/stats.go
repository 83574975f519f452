package main

import (
	"math"
	"sort"
)

// minTail is the number of samples a percentile must leave beyond it:
// p99 needs at least 1,000 samples, so that ten of them lie above it and
// the figure is not just the worst or second-worst request.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of samples,
// and false when fewer than minTail samples would lie beyond it. Failed
// requests enter as +Inf, so they count as slower than any success.
func percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 || float64(n)*(1-q) < minTail-1e-9 {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(n))) - 1
	rank = max(0, min(rank, n-1))
	return s[rank], true
}

// chunkedPercentile splits samples, in the order they were taken, into
// as many consecutive chunks as each leave minTail samples beyond the
// q-quantile, and returns the median of the chunks' q-quantiles: a burst
// of the shared machine then spoils one chunk, not the figure. It
// reports false when even one chunk would be too small.
func chunkedPercentile(samples []float64, q float64) (float64, bool) {
	k := int(float64(len(samples)) * (1 - q) / minTail)
	if k < 1 {
		return 0, false
	}
	size := len(samples) / k
	var per []float64
	for c := 0; c < k; c++ {
		v, enough := percentile(samples[c*size:(c+1)*size], q)
		if !enough {
			return 0, false
		}
		per = append(per, v)
	}
	return median(per), true
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs; 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// interval is a closed span of time in nanoseconds.
type interval struct{ start, end int64 }

// selfTime returns the length of parent not covered by any of children:
// the children are clipped to parent and overlapping children count once
// (the union of their intervals is subtracted, not the sum).
func selfTime(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered := int64(0)
	curStart, curEnd := int64(0), int64(0)
	open := false
	for _, c := range cs {
		if open && c.start <= curEnd {
			curEnd = max(curEnd, c.end)
			continue
		}
		if open {
			covered += curEnd - curStart
		}
		curStart, curEnd, open = c.start, c.end, true
	}
	if open {
		covered += curEnd - curStart
	}
	return parent.end - parent.start - covered
}

// relClose reports whether a and b agree within rel relative tolerance
// (exact equality covers zeros).
func relClose(a, b, rel float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))
}
