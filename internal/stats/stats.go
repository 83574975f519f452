// Package stats implements the paper's evaluation metrics (Section VI-B):
// the per-communication relative error Erel and the per-graph average of
// absolute errors Eabs, plus the per-task absolute error used on
// application traces, and small numeric helpers.
package stats

import (
	"fmt"
	"math"
)

// RelErr returns Erel(predicted, measured) in percent:
//
//	Erel = (Tp - Tm) / Tm * 100
//
// Negative means the model is optimistic, positive pessimistic.
func RelErr(predicted, measured float64) float64 {
	return (predicted - measured) / measured * 100
}

// RelErrs applies RelErr element-wise. It panics if lengths differ: the
// two vectors must describe the same communications.
func RelErrs(predicted, measured []float64) []float64 {
	if len(predicted) != len(measured) {
		panic(fmt.Sprintf("stats: %d predictions vs %d measurements", len(predicted), len(measured)))
	}
	out := make([]float64, len(predicted))
	for i := range out {
		out[i] = RelErr(predicted[i], measured[i])
	}
	return out
}

// AbsErr returns Eabs(G): the mean of |Erel| over the graph's
// communications, in percent. "The use of the absolute error avoids
// behaviors of compensation between relative errors."
func AbsErr(predicted, measured []float64) float64 {
	errs := RelErrs(predicted, measured)
	sum := 0.0
	for _, e := range errs {
		sum += math.Abs(e)
	}
	if len(errs) == 0 {
		return 0
	}
	return sum / float64(len(errs))
}

// TaskAbsErr returns the per-task error Eabs(ti) = |(Sp-Sm)/Sm|*100 where
// Sp and Sm are the summed predicted and measured communication times of
// the task (Section VI-B, application graphs).
func TaskAbsErr(sp, sm float64) float64 {
	return math.Abs((sp - sm) / sm * 100)
}

// TaskAbsErrs applies TaskAbsErr element-wise.
func TaskAbsErrs(sp, sm []float64) []float64 {
	if len(sp) != len(sm) {
		panic(fmt.Sprintf("stats: %d predictions vs %d measurements", len(sp), len(sm)))
	}
	out := make([]float64, len(sp))
	for i := range out {
		out[i] = TaskAbsErr(sp[i], sm[i])
	}
	return out
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Max returns the maximum (0 for empty input).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum (0 for empty input).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mu := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - mu
		s += float64(d * d)
	}
	return math.Sqrt(s / float64(len(xs)))
}
