package bench

import (
	"runtime"
	"sync"

	"confllvm"
	"confllvm/internal/machine"
)

// Cell is one schedulable (figure, workload, variant) unit of a bench
// matrix. Every cell compiles (through the shared singleflight artifact
// cache) and runs on its own machine.Machine, so cells are independent:
// the simulated numbers (Wall, Stats, Outputs) are identical no matter
// how cells are scheduled. Only HostNS is scheduling-sensitive.
type Cell struct {
	// Figure and Row name the cell in tables and the JSON report.
	Figure string
	Row    string
	// Label distinguishes runs of the same workload under different
	// machine configs (the interp sweep's "stepwise"/"superblock"); empty
	// means the variant name labels the cell.
	Label    string
	Workload Workload
	Variant  confllvm.Variant
	// Conf is the machine configuration (nil = DefaultConfig). It is
	// only read by the run, so cells may share one Config.
	Conf *machine.Config
	// Scale divides Wall for the table cell (cycles per request/query/
	// image); 0 means no scaling.
	Scale uint64
	// Serial pins the cell out of the worker pool: its host-time numbers
	// (MIPS) are the measurement, so it must not share the host with
	// concurrently running cells. Serial cells execute one at a time, in
	// input order, after the parallel lane has drained.
	Serial bool
	// Custom replaces the default Workload.Run execution when non-nil
	// (the faults figure runs supervised serving loops instead of single
	// machine runs). Custom cells still flow through the matrix scheduler
	// and the shared artifact cache; like ordinary cells, they must
	// produce identical simulated numbers under any scheduling.
	Custom func(*Cell) (*Measurement, error)
}

// CellResult pairs a cell with its measurement. Exactly one of M/Err is
// set. M.Res is nil: a matrix retains every cell's result until the
// caller assembles tables, and keeping each finished machine (its whole
// simulated address space) alive that long would make peak memory scale
// with the matrix size — consumers only need the scalar measurements.
type CellResult struct {
	Cell *Cell
	M    *Measurement
	Err  error
}

// RunMatrix executes every cell and returns results indexed exactly like
// cells, regardless of completion order — callers assemble tables and
// reports deterministically by iterating the slice. workers <= 0 selects
// GOMAXPROCS; workers == 1 reproduces the serial harness (modulo
// host-time noise, the results must be byte-identical — that invariant
// is tested under the race detector).
//
// Cells marked Serial are excluded from the pool and run sequentially on
// the calling goroutine after all parallel cells finish, so their HostNS
// reflects a quiet host. Their artifacts are still compiled in the pool
// first (compilation is not host-time-sensitive).
func RunMatrix(cells []Cell, workers int) []CellResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([]CellResult, len(cells))

	runCell := func(i int) {
		c := &cells[i]
		var m *Measurement
		var err error
		if c.Custom != nil {
			m, err = c.Custom(c)
		} else {
			m, err = c.Workload.Run(c.Variant, c.Conf)
		}
		if m != nil {
			m.Res = nil // release the machine; see CellResult
		}
		results[i] = CellResult{Cell: c, M: m, Err: err}
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if cells[i].Serial {
					// Warm the artifact cache only; the measured run
					// happens in the serial lane below.
					c := &cells[i]
					_, _ = CompileCached(c.Workload.Key, c.Variant, c.Workload.Prog(c.Variant))
					continue
				}
				runCell(i)
			}
		}()
	}
	for i := range cells {
		idx <- i
	}
	close(idx)
	wg.Wait()

	for i := range cells {
		if cells[i].Serial {
			runCell(i)
		}
	}
	return results
}
