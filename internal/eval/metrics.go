// Package eval implements the evaluation harness of DESIGN.md §4: one
// runner per experiment E1–E8, each regenerating the measurements the
// paper's figures imply, plus the shared metric types.
package eval

import (
	"fmt"
	"time"

	"semagent/internal/quantile"
)

// Confusion is a binary confusion matrix; by convention "positive"
// means "error detected/present".
type Confusion struct {
	TP, FP, TN, FN int
}

// Observe records one (predicted, actual) pair.
func (c *Confusion) Observe(predicted, actual bool) {
	switch {
	case predicted && actual:
		c.TP++
	case predicted && !actual:
		c.FP++
	case !predicted && actual:
		c.FN++
	default:
		c.TN++
	}
}

// Total is the number of observations.
func (c Confusion) Total() int { return c.TP + c.FP + c.TN + c.FN }

// Precision = TP / (TP+FP).
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall = TP / (TP+FN).
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 is the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Accuracy = (TP+TN) / total.
func (c Confusion) Accuracy() float64 {
	if c.Total() == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(c.Total())
}

// String renders the headline numbers.
func (c Confusion) String() string {
	return fmt.Sprintf("P=%.3f R=%.3f F1=%.3f Acc=%.3f (TP=%d FP=%d TN=%d FN=%d)",
		c.Precision(), c.Recall(), c.F1(), c.Accuracy(), c.TP, c.FP, c.TN, c.FN)
}

// Latencies collects durations and reports quantiles.
type Latencies struct {
	samples []time.Duration
}

// Record adds one sample.
func (l *Latencies) Record(d time.Duration) { l.samples = append(l.samples, d) }

// Quantile returns the q-quantile (0 <= q <= 1).
func (l *Latencies) Quantile(q float64) time.Duration {
	return quantile.Duration(l.samples, q)
}

// Mean returns the average.
func (l *Latencies) Mean() time.Duration {
	return quantile.Mean(l.samples)
}
