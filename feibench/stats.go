package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a tail percentile before it
// is reported.
const minBeyond = 10

// nearestRank returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank method, and how many samples lie beyond it. xs must be
// sorted ascending and non-empty.
func nearestRank(xs []float64, p float64) (v float64, beyond int) {
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	rank = min(max(rank, 1), len(xs))
	return xs[rank-1], len(xs) - rank
}

// tailPercentile is nearestRank that withholds the value (ok=false) unless
// at least minBeyond samples lie beyond it: p90 needs 100 samples.
func tailPercentile(xs []float64, p float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	v, beyond := nearestRank(xs, p)
	return v, beyond >= minBeyond
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), 0 for none. xs is not modified.
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

func durMedian(ds []time.Duration, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return median(xs)
}

// hostInfo stamps every result with the machine it was measured on.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Network    string `json:"network"`
}

func host() hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Network:    "loopback",
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
