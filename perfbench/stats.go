package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between the two closest ranks (the "type 7" rule of R and
// NumPy's default). xs need not be sorted; it is not modified. An empty
// slice yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	r := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(r))
	frac := r - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// geomeanOverheadPct is the geometric mean of the ratios, as percent over
// 1 (a ratio of 1.1 everywhere gives 10).
func geomeanOverheadPct(ratios []float64) float64 {
	if len(ratios) == 0 {
		return 0
	}
	var logSum float64
	for _, r := range ratios {
		logSum += math.Log(r)
	}
	return (math.Exp(logSum/float64(len(ratios))) - 1) * 100
}

// splitmix64 is the seeding primitive shared with internal/scenario and
// internal/verify/verifymut: a frozen, pure function of its input.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// shuffled returns a seeded permutation of 0..n-1 (Fisher-Yates driven by
// a splitmix64 stream).
func shuffled(n int, seed uint64) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s := seed
	for i := n - 1; i > 0; i-- {
		s = splitmix64(s)
		j := int(s % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// host is the fingerprint every report carries.
type host struct {
	GOMAXPROCS int
	NumCPU     int
	CPU        string
	GoVersion  string
	Commit     string
}

func hostFingerprint() host {
	return host{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     treeDigest("."),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
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

// treeDigest identifies the code under test without version control: a
// SHA-256 over the path and contents of every go.mod and .go file below
// root, skipping dot-directories (build outputs live there). The
// benchmark runs from checkouts that are not git repositories, so a
// content digest stands in for the commit hash.
func treeDigest(root string) string {
	h := sha256.New()
	var n int
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Name() != "go.mod" && !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(filepath.ToSlash(path)))
		h.Write([]byte{0})
		h.Write(data)
		n++
		return nil
	})
	if err != nil || n == 0 {
		return "unknown"
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}
