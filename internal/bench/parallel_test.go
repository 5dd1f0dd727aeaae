package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"confllvm"
	"confllvm/internal/machine"
)

// matrixCells builds the short workload x variant matrix the determinism
// test schedules: every bench workload under the paper's main checked
// and unchecked configurations, in both dispatch modes. Under OurMPX the
// superblock run is also repeated as a Serial cell, the shape of the
// interp figure's cells.
func matrixCells(t *testing.T) []Cell {
	t.Helper()
	variants := []confllvm.Variant{confllvm.VariantBase, confllvm.VariantMPX, confllvm.VariantSeg}
	if testing.Short() {
		variants = []confllvm.Variant{confllvm.VariantMPX}
	}
	step := machine.DefaultConfig()
	step.Superblocks = false
	block := machine.DefaultConfig()
	block.Superblocks = true
	var cells []Cell
	for _, wl := range Workloads(true) {
		for _, v := range variants {
			cells = append(cells,
				Cell{Figure: "matrix", Row: wl.Name, Label: "superblock", Workload: wl, Variant: v, Conf: &block},
				Cell{Figure: "matrix", Row: wl.Name, Label: "stepwise", Workload: wl, Variant: v, Conf: &step, Serial: true},
			)
			if v == confllvm.VariantMPX {
				cells = append(cells, Cell{Figure: "matrix", Row: wl.Name, Label: "superblock-serial",
					Workload: wl, Variant: v, Conf: &block, Serial: true})
			}
		}
	}
	return cells
}

// TestParallelMatrixDeterminism is the concurrency regression test: the
// full short workload x variant matrix runs serially (workers=1) and
// with a many-worker pool, and every simulated observable — Wall,
// Stats, Outputs — must be identical cell for cell. Run under -race
// (the PR CI job does), this also proves the harness shares no mutable
// state across cells beyond the mutex-guarded artifact cache. The
// matrix includes Serial cells so the serial lane's ordering and
// precompile warmup are exercised too.
func TestParallelMatrixDeterminism(t *testing.T) {
	cells := matrixCells(t)
	serial := RunMatrix(cells, 1)
	// More workers than GOMAXPROCS on any host: even a single-core runner
	// interleaves goroutines enough for the race detector to bite.
	parallel := RunMatrix(cells, 8)

	if len(serial) != len(parallel) || len(serial) != len(cells) {
		t.Fatalf("result arity: %d serial, %d parallel, %d cells", len(serial), len(parallel), len(cells))
	}
	for i := range cells {
		name := fmt.Sprintf("%s/%v/%s", cells[i].Row, cells[i].Variant, cells[i].Label)
		s, p := serial[i], parallel[i]
		if s.Err != nil || p.Err != nil {
			t.Fatalf("%s: serial err=%v parallel err=%v", name, s.Err, p.Err)
		}
		if s.Cell != &cells[i] || p.Cell != &cells[i] {
			t.Fatalf("%s: result %d not assembled at its cell's index", name, i)
		}
		if s.M.Wall != p.M.Wall {
			t.Errorf("%s: wall cycles %d (serial) vs %d (parallel)", name, s.M.Wall, p.M.Wall)
		}
		if s.M.Stats != p.M.Stats {
			t.Errorf("%s: stats diverge:\nserial:   %+v\nparallel: %+v", name, s.M.Stats, p.M.Stats)
		}
		if len(s.M.Outputs) != len(p.M.Outputs) {
			t.Errorf("%s: outputs %v vs %v", name, s.M.Outputs, p.M.Outputs)
			continue
		}
		for j := range s.M.Outputs {
			if s.M.Outputs[j] != p.M.Outputs[j] {
				t.Errorf("%s: output[%d] %d vs %d", name, j, s.M.Outputs[j], p.M.Outputs[j])
			}
		}
	}
}

// TestCompileCachedSingleflight hammers one cache key from many
// goroutines: exactly one compilation may happen, every caller must get
// the same artifact, and none may observe a partially built entry.
func TestCompileCachedSingleflight(t *testing.T) {
	var compiles int32
	orig := compileFn
	compileFn = func(p confllvm.Program, v confllvm.Variant) (*confllvm.Artifact, error) {
		atomic.AddInt32(&compiles, 1)
		return orig(p, v)
	}
	defer func() { compileFn = orig }()

	wl := QuickstartWorkload()
	prog := wl.Prog(confllvm.VariantMPX)
	const callers = 16
	arts := make([]*confllvm.Artifact, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			art, err := CompileCached("singleflight-test", confllvm.VariantMPX, prog)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			arts[i] = art
		}()
	}
	wg.Wait()
	if n := atomic.LoadInt32(&compiles); n != 1 {
		t.Fatalf("%d concurrent same-key callers compiled %d times, want 1", callers, n)
	}
	for i := 1; i < callers; i++ {
		if arts[i] != arts[0] {
			t.Fatalf("caller %d got a different artifact pointer", i)
		}
	}
}

// TestCompileCachedKeyCompleteness is the stale-artifact regression: two
// requests that differ only in Program.Seed or Program.NoOpt compile to
// different bits and must not share a cache slot.
func TestCompileCachedKeyCompleteness(t *testing.T) {
	wl := QuickstartWorkload()
	base := wl.Prog(confllvm.VariantMPX)

	seeded := base
	seeded.Seed = 12345
	a, err := CompileCached("key-completeness", confllvm.VariantMPX, base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompileCached("key-completeness", confllvm.VariantMPX, seeded)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("different Program.Seed returned the same cached artifact")
	}

	noopt := base
	noopt.NoOpt = true
	c, err := CompileCached("key-completeness", confllvm.VariantMPX, noopt)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("Program.NoOpt=true returned the optimized cached artifact")
	}

	// Same parameters must still hit the cache.
	a2, err := CompileCached("key-completeness", confllvm.VariantMPX, base)
	if err != nil {
		t.Fatal(err)
	}
	if a2 != a {
		t.Error("identical request missed the cache")
	}
}

// TestReqsPerSec pins the simulated-throughput conversion, including the
// untimed-cell guard.
func TestReqsPerSec(t *testing.T) {
	if got := ReqsPerSec(100, 0); got != 0 {
		t.Errorf("zero wall cycles must yield 0 req/s, got %d", got)
	}
	if got := ReqsPerSec(100, SimClockHz); got != 100 {
		t.Errorf("100 reqs in one simulated second = %d req/s, want 100", got)
	}
}

// TestMeasurementMIPSUntimed pins the zero guard the interp sweep relies
// on: a sub-clock-resolution run reports 0, never +Inf or NaN.
func TestMeasurementMIPSUntimed(t *testing.T) {
	m := &Measurement{HostNS: 0}
	m.Stats.Instrs = 1000
	if got := m.MIPS(); got != 0 {
		t.Errorf("HostNS=0 must yield MIPS 0, got %v", got)
	}
	m.HostNS = -1
	if got := m.MIPS(); got != 0 {
		t.Errorf("negative HostNS must yield MIPS 0, got %v", got)
	}
}
