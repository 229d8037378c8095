package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs need not be sorted. It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// sample is one operation's latency and its class: the bulk query, the
// lookup template, or insert/delete for updates.
type sample struct {
	class string
	write bool
	ms    float64
}

// mixQuantile is the geometric mean, over the classes of reads (or of
// updates), of each class's q-quantile. A workload mixes classes whose
// latencies differ several-fold in fixed shares, so the median of the
// pooled samples can sit on the boundary between two classes and jump
// from run to run; per-class medians do not.
func mixQuantile(ss []sample, write bool, q float64) float64 {
	byClass := map[string][]float64{}
	for _, s := range ss {
		if s.write == write {
			byClass[s.class] = append(byClass[s.class], s.ms)
		}
	}
	if len(byClass) == 0 {
		return 0
	}
	logSum := 0.0
	for _, xs := range byClass {
		logSum += math.Log(quantile(xs, q))
	}
	return math.Exp(logSum / float64(len(byClass)))
}

// pooledQuantile is the q-quantile of all read (or update) samples. For
// the 90th percentile it is the steadier choice: every class holds far
// more than a tenth of the samples, so it falls inside the slowest class
// rather than on a boundary, and it rests on all the samples.
func pooledQuantile(ss []sample, write bool, q float64) float64 {
	var xs []float64
	for _, s := range ss {
		if s.write == write {
			xs = append(xs, s.ms)
		}
	}
	return quantile(xs, q)
}

// putLatencies reports the read and update latency percentiles of a
// phase's samples; a workload without updates reports 0 for theirs.
func putLatencies(put func(name, unit string, v float64), ss []sample) {
	put("read_p50_ms", "ms", mixQuantile(ss, false, 0.5))
	put("read_p90_ms", "ms", pooledQuantile(ss, false, 0.9))
	put("update_p50_ms", "ms", mixQuantile(ss, true, 0.5))
	put("update_p90_ms", "ms", pooledQuantile(ss, true, 0.9))
}

func count(ss []sample, write bool) int {
	n := 0
	for _, s := range ss {
		if s.write == write {
			n++
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

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

// procStatusMB reads one memory field of /proc/self/status, such as
// VmRSS (the resident set size) or VmHWM (its high-water mark), in MB.
func procStatusMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == field+":" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func rssMB() float64 { return procStatusMB("VmRSS") }

// rssSampler samples the resident set size while it runs and keeps the
// highest sample of each window.
type rssSampler struct {
	stop chan struct{}
	done chan []float64
}

func startRSSSampler(every, window time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		var peaks []float64
		peak, start := rssMB(), time.Now()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				s.done <- append(peaks, max(peak, rssMB()))
				return
			case now := <-t.C:
				peak = max(peak, rssMB())
				if now.Sub(start) >= window {
					peaks = append(peaks, peak)
					peak, start = 0, now
				}
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for it to exit, and returns the median
// of the window peaks: the typical peak, steadier from run to run than the
// single highest sample, which depends on where one GC cycle happened to
// fall.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	return quantile(<-s.done, 0.5)
}
