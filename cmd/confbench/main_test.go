package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"confllvm"
	"confllvm/internal/bench"
)

// hostTimedFigure is the one registered figure whose table measures host
// time (interpreter MIPS), so it has no golden file.
const hostTimedFigure = "interp"

// goldenPath is the pinned output of figure name: the full-size table
// under the default flags with every "(host" line removed.
func goldenPath(name string) string {
	return filepath.Join("testdata", name+".golden")
}

// stripHost drops every line containing "(host", as
// `grep -v '(host'` does; those lines are host-time measurements.
func stripHost(s string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(s, "\n") {
		if !strings.Contains(line, "(host") {
			b.WriteString(line)
		}
	}
	return b.String()
}

// firstDiff describes where got first departs from want, line by line.
func firstDiff(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return fmt.Sprintf(" at line %d:\n got: %q\nwant: %q", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf(": got %d lines, want %d", len(gl), len(wl))
}

// TestFigureRegistryComplete pins the registry as the single source of
// truth: every registered figure resolves through figuresFor and appears
// in the derived usage enumeration (which is also what -list prints), so
// a figure cannot be runnable-but-unlisted or listed-but-unknown. It also
// pins that the figures this repo's CI drives by name actually exist, and
// that the golden files and the registry agree: every figure except the
// host-timed one has a golden file, and every golden file belongs to a
// registered figure, so a new figure cannot land unpinned and a renamed
// one cannot leave a stale golden behind.
func TestFigureRegistryComplete(t *testing.T) {
	names := figureNames()
	seen := map[string]bool{}
	for _, f := range figureRegistry {
		if f.name == "" || f.build == nil {
			t.Fatalf("registry entry %+v is incomplete", f.name)
		}
		if seen[f.name] {
			t.Fatalf("figure %q registered twice", f.name)
		}
		seen[f.name] = true
		sel, err := figuresFor(f.name)
		if err != nil {
			t.Fatalf("registered figure %q does not resolve: %v", f.name, err)
		}
		if len(sel) != 1 || sel[0].name != f.name {
			t.Fatalf("figuresFor(%q) selected %d figures", f.name, len(sel))
		}
		if !strings.Contains(names, f.name) {
			t.Fatalf("figure %q missing from the derived usage string %q", f.name, names)
		}
	}
	for _, required := range []string{"scenarios", "faults", "verify", "latency", "interp"} {
		if !seen[required] {
			t.Fatalf("figure %q (driven by CI) is not registered", required)
		}
	}
	all, err := figuresFor("all")
	if err != nil || len(all) != len(figureRegistry) {
		t.Fatalf("figuresFor(all) = %d figures, err %v; want the whole registry (%d)",
			len(all), err, len(figureRegistry))
	}

	for _, f := range figureRegistry {
		_, err := os.Stat(goldenPath(f.name))
		switch {
		case f.name == hostTimedFigure && err == nil:
			t.Errorf("host-timed figure %q has a golden file", f.name)
		case f.name != hostTimedFigure && err != nil:
			t.Errorf("figure %q has no golden file: %v", f.name, err)
		}
	}
	goldens, err := filepath.Glob(goldenPath("*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldens {
		if name := strings.TrimSuffix(filepath.Base(g), ".golden"); !seen[name] {
			t.Errorf("golden file %s belongs to no registered figure", g)
		}
	}
}

// TestGoldenFigures renders every deterministic figure at full size under
// default dispatch on the default worker pool and byte-compares it, with
// its "(host" lines removed, against testdata/<figure>.golden. Every
// table value is a simulated quantity, so any difference is a change in
// the figures themselves; see internal/bench/README.md for how to
// regenerate the golden files and when that is allowed.
func TestGoldenFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the full figure grids (~25 s)")
	}
	for _, f := range figureRegistry {
		if f.name == hostTimedFigure {
			continue
		}
		t.Run(f.name, func(t *testing.T) {
			want, err := os.ReadFile(goldenPath(f.name))
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if _, err := runFigures(&out, []figureSpec{f}, runtime.GOMAXPROCS(0)); err != nil {
				t.Fatal(err)
			}
			if got := stripHost(out.String()); got != string(want) {
				t.Fatalf("figure %s differs from %s%s", f.name, goldenPath(f.name), firstDiff(got, string(want)))
			}
		})
	}
}

// TestFiguresForUnknown: an unknown figure must error with a pointer to
// -list, so the CLI's failure mode teaches the valid set.
func TestFiguresForUnknown(t *testing.T) {
	_, err := figuresFor("fig99")
	if err == nil {
		t.Fatal("unknown figure must error")
	}
	if !strings.Contains(err.Error(), "-list") {
		t.Fatalf("error %q does not point at -list", err)
	}
	if !strings.Contains(err.Error(), "fig99") {
		t.Fatalf("error %q does not name the bad figure", err)
	}
}

// pinnedFig5 reads the cycle counts testdata/5.golden pins, keyed by
// kernel and column header (the variant name): each cell's percent of
// Base times the row's absolute Base(cyc).
func pinnedFig5(t *testing.T) map[string]map[string]uint64 {
	t.Helper()
	data, err := os.ReadFile(goldenPath("5"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	header := strings.Fields(lines[1]) // workload, the variants, Base(cyc)
	cols := header[1 : len(header)-1]
	walls := map[string]map[string]uint64{}
	for _, line := range lines[2:] {
		f := strings.Fields(line)
		if len(f) != len(header) {
			break // blank line before the geomean footer
		}
		base, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			t.Fatalf("5.golden: %q: %v", line, err)
		}
		walls[f[0]] = map[string]uint64{}
		for i, col := range cols {
			pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1+i], "%"), 64)
			if err != nil {
				t.Fatalf("5.golden: %q: %v", line, err)
			}
			walls[f[0]][col] = uint64(math.Round(base * pct / 100))
		}
	}
	return walls
}

// TestFig5ChecksItsClaim feeds the fig5 render fabricated cells built
// from the pinned Figure 5. The pinned shape must render cleanly; a
// broken geomean ordering or one kernel whose outputs change under one
// variant must fail the figure with an error naming what broke.
func TestFig5ChecksItsClaim(t *testing.T) {
	pinned := pinnedFig5(t)
	cases := []struct {
		name string
		edit func(r bench.CellResult)
		want []string // substrings of the error; nil = no error
	}{
		{"pinned shape", func(bench.CellResult) {}, nil},
		{"MPX no costlier than Seg", func(r bench.CellResult) {
			if r.Cell.Variant == confllvm.VariantMPX {
				r.M.Wall = pinned[r.Cell.Row][confllvm.VariantSeg.String()]
			}
		}, []string{"MPX > Seg"}},
		{"CFI cheaper than Bare", func(r bench.CellResult) {
			if r.Cell.Variant == confllvm.VariantCFI {
				r.M.Wall = pinned[r.Cell.Row][confllvm.VariantBase.String()]
			}
		}, []string{"CFI >= Bare"}},
		{"one kernel's outputs differ in one variant", func(r bench.CellResult) {
			if r.Cell.Row == "mcf" && r.Cell.Variant == confllvm.VariantSeg {
				r.M.Outputs[1]++
			}
		}, []string{"mcf", "OurSeg"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cells, render := fig5()
			results := make([]bench.CellResult, len(cells))
			for i := range cells {
				c := &cells[i]
				wall, ok := pinned[c.Row][c.Variant.String()]
				if !ok {
					t.Fatalf("5.golden pins no %s/%v cell", c.Row, c.Variant)
				}
				results[i] = bench.CellResult{Cell: c, M: &bench.Measurement{
					Variant: c.Variant, Wall: wall, Outputs: []int64{int64(len(c.Row)), 7, -1}}}
				tc.edit(results[i])
			}
			err := render(io.Discard, results)
			if tc.want == nil {
				if err != nil {
					t.Fatalf("pinned Figure 5 failed its own check: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("fig5 render accepted a broken Figure 5 (want an error naming %q)", tc.want)
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not name %q", err, w)
				}
			}
		})
	}
}
