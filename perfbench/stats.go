package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// samples collects durations of one kind of operation, with the time
// each was taken.
type samples struct {
	mu sync.Mutex
	d  []time.Duration
	at []time.Time
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.d = append(s.d, d)
	s.at = append(s.at, time.Now())
	s.mu.Unlock()
}

// A reported quantile is a median over up to maxStretches stretches of a
// run, each holding segmentMin samples or more.
const (
	maxStretches = 10
	segmentMin   = 100
)

// rate is operations per second of time spent in them: the median, over
// the same stretches stat uses, of each stretch's count over its summed
// durations.
func (s *samples) rate() float64 {
	return s.perStretch(func(p []time.Duration) float64 {
		var t time.Duration
		for _, d := range p {
			t += d
		}
		return float64(len(p)) / t.Seconds()
	})
}

// stat is the reported q-quantile: the median, over equal stretches of
// the time the samples span, of each stretch's q-quantile, so a burst of
// load from outside the run moves a stretch and not the figure. With
// fewer than three stretches' worth of samples it is the plain quantile.
func (s *samples) stat(q float64) time.Duration {
	return time.Duration(s.perStretch(func(p []time.Duration) float64 { return float64(quantile(p, q)) }))
}

// perStretch is the median of f over the stretches.
func (s *samples) perStretch(f func([]time.Duration) float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.d) == 0 {
		return 0
	}
	n := min(maxStretches, len(s.d)/segmentMin)
	if n < 3 {
		return f(s.d)
	}
	first, last := s.at[0], s.at[len(s.at)-1]
	width := last.Sub(first)/time.Duration(n) + 1
	parts := make([][]time.Duration, n)
	for i := range s.d {
		k := int(s.at[i].Sub(first) / width)
		parts[k] = append(parts[k], s.d[i])
	}
	var vs []float64
	for _, p := range parts {
		// A stretch that fell in a gap between set-ups holds too few
		// samples to speak for itself.
		if len(p) >= len(s.d)/(4*n) && len(p) > 0 {
			vs = append(vs, f(p))
		}
	}
	return median(vs)
}

// last is the most recent sample.
func (s *samples) last() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.d[len(s.d)-1]
}

func (s *samples) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.d)
}

// quantile is the nearest-rank q-quantile of d, 0 when d is empty.
func quantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), d...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// opCounts tallies attempted and failed operations per kind. A failed
// check counts as a failed operation: it is neither a crash nor retried.
type opCounts struct {
	mu     sync.Mutex
	order  []string
	tried  map[string]int
	failed map[string]int
	errs   map[string]string
}

func newOpCounts() *opCounts {
	return &opCounts{tried: map[string]int{}, failed: map[string]int{}, errs: map[string]string{}}
}

// record counts one attempt of kind; err non-nil marks it failed, and the
// first error of each kind is kept for the report.
func (o *opCounts) record(kind string, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, ok := o.tried[kind]; !ok {
		o.order = append(o.order, kind)
	}
	o.tried[kind]++
	if err != nil {
		o.failed[kind]++
		if o.errs[kind] == "" {
			o.errs[kind] = err.Error()
		}
	}
}

func (o *opCounts) totals() (tried, failed int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, k := range o.order {
		tried += o.tried[k]
		failed += o.failed[k]
	}
	return
}

func (o *opCounts) write(w io.Writer) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, k := range o.order {
		fmt.Fprintf(w, "ops %-12s attempted=%d failed=%d\n", k, o.tried[k], o.failed[k])
		if e := o.errs[k]; e != "" {
			fmt.Fprintf(w, "    first failure: %s\n", e)
		}
	}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), the spread measure the benchmark's bounds rest on.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// statistics.quantiles, method="exclusive", line for line.
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func fmtRow(cols ...string) string { return strings.Join(cols, "  ") }
