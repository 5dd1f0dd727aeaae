// confbench regenerates the paper's evaluation tables (Figures 5-8 and
// §7.3) directly, without the testing framework.
//
// Usage:
//
//	confbench [-figure all|5|6|7|8|ldap|throughput|scenarios|faults|verify|latency|interp]
//	          [-superblocks=true|false] [-parallel N]
//	          [-seed N] [-short] [-list] [-profile FILE]
//
// Figures register in one place (figureRegistry); the -figure usage
// string and the -list output derive from it, so the line above and the
// flag help cannot drift from the real set.
//
// Figure 5 checks the claim it prints (§7.2): the geomean overheads must
// order as MPX > Seg > 0 and CFI >= Bare, and every kernel must compute
// the same outputs in all six columns. A broken check fails the figure
// after its table is printed, so a regenerated golden file cannot pin a
// broken ordering.
//
// The "scenarios" figure is the seeded traffic sweep: internal/scenario
// expands a grid of (request multiplier x hit ratio) specs for the
// confidential KV store and the TLS-ish handshake, and every cell's
// request stream is a pure function of -seed — the printed table is
// byte-identical across runs, -superblocks and -parallel settings.
// The "faults" figure serves the same scenario traffic through the bench
// supervisor under seeded fault injection (internal/chaos) and reports
// availability, recovery latency and verify-gate rejections; it shares
// the scenarios figure's determinism contract because the injector and
// the simulated clock are the only randomness sources and both derive
// from -seed. -short shrinks the scenarios, faults, verify and latency
// grids to a smoke size and leaves Figures 5-8, ldap, throughput and
// interp at full size; -list prints the known figures and registered
// workloads and exits.
//
// The "verify" figure turns the load gate itself into an evaluation
// target: every workload's binary under both deployable schemes is
// checked cold-serial, cold-parallel and verdict-cached, and the seeded
// verifymut mutation corpus is run against it. The per-binary counters
// (functions, stubs, instructions, mutants tried/killed) are pure
// functions of the bits and -seed, so that part of the table is
// byte-identical across -parallel settings and pinned by a golden file,
// while the throughput lines (funcs/s, insts/s, dispatch speedup) are
// host time and carry a "(host)" marker so comparisons can strip them. A
// mutation kill rate below 100% fails the figure: a surviving mutant is
// a verifier soundness hole.
//
// The "latency" figure is the observability plane's flagship table: the
// KV scenario's per-request service times, measured at the trusted recv
// boundary in simulated cycles, are replayed through a deterministic
// FIFO queue fed by seeded open-loop arrival processes (uniform,
// Poisson, bursty) at three offered loads, and the p50/p95/p99/max
// latency plus queue-depth columns come out byte-identical across
// -parallel and -superblocks. -profile FILE additionally turns
// on the machine's cycle-attribution profiler for every table cell and
// writes one merged folded-stack profile (symbol + cycles per line,
// flamegraph-ready); profile totals conserve the runs' cycle counters
// exactly, and the disabled profiler costs nothing.
//
// Every (figure, workload, variant) cell is an independent simulation —
// its own compiled artifact and its own machine.Machine — so the whole
// matrix is scheduled across a worker pool (-parallel, default
// GOMAXPROCS) and the tables are assembled from the results in input
// order: the printed figure tables are byte-identical between -parallel=1
// and any parallel run, because every table cell is a simulated quantity.
// Only the interp sweep measures host time; its cells are pinned to a
// serial lane that runs after the pool drains, so MIPS numbers always
// come from a quiet host.
//
// confbench prints tables and keeps no performance record: the repo's
// performance trajectory is perfbench (see perfbench/README.md and
// BENCHMARK.json), measured as same-host parent-vs-change runs.
//
// -superblocks=false replays everything with per-instruction stepping,
// the oracle the superblock dispatcher must match. Every figure except
// interp is pinned by testdata/<figure>.golden (the output with its
// "(host" lines removed): TestGoldenFigures checks default dispatch on
// the default worker pool, and the nightly CI job checks stepping at
// -parallel=1. The "interp" figure runs every workload in both dispatch
// modes back to back, verifies the simulated cycles agree, and reports
// the dispatch speedup.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"

	"confllvm"
	"confllvm/internal/bench"
	"confllvm/internal/machine"
	"confllvm/internal/obs"
	"confllvm/internal/scenario"
)

var (
	// mcfg is the machine configuration used for the figure tables,
	// controlled by -superblocks and -profile.
	mcfg = machine.DefaultConfig()
	// scenarioSeed and shortGrid parameterize the seeded figures
	// (-seed / -short).
	scenarioSeed = scenario.DefaultSeed
	shortGrid    bool
)

// renderFn consumes a figure's slice of the matrix results (in cell
// order) and writes its table to w.
type renderFn func(w io.Writer, results []bench.CellResult) error

// figureSpec is one figure: build returns the figure's cells plus the
// render that assembles them once the matrix has run.
type figureSpec struct {
	name  string
	build func() ([]bench.Cell, renderFn)
}

// figureRegistry is the single source of truth for -figure: the flag's
// usage string, the -list output and the selection logic all derive from
// this slice, so registering a figure here is the *only* step — a guard
// test pins that every registered figure is listed and that unknown
// names error with a pointer to -list.
var figureRegistry = []figureSpec{
	{"5", fig5}, {"6", fig6}, {"ldap", ldap}, {"7", fig7}, {"8", fig8},
	{"throughput", throughput}, {"scenarios", scenarios}, {"faults", faults},
	{"verify", verifyFigure}, {"latency", latencyFigure}, {"interp", interp},
}

// figureNames renders the registry as the -figure usage enumeration.
func figureNames() string {
	names := "all"
	for _, f := range figureRegistry {
		names += ", " + f.name
	}
	return names
}

// figuresFor resolves a -figure selection against the registry ("all" =
// every figure, in registry order).
func figuresFor(name string) ([]figureSpec, error) {
	if name == "all" {
		return figureRegistry, nil
	}
	for _, f := range figureRegistry {
		if f.name == name {
			return []figureSpec{f}, nil
		}
	}
	return nil, fmt.Errorf("unknown figure %q (run confbench -list for the valid set)", name)
}

func main() {
	figure := flag.String("figure", "all", "which figure to regenerate: "+figureNames())
	superblocks := flag.Bool("superblocks", true, "dispatch basic blocks (false = per-instruction stepping)")
	parallel := flag.Int("parallel", 0, "worker goroutines for the bench matrix (0 = GOMAXPROCS, 1 = serial)")
	seed := flag.Uint64("seed", scenario.DefaultSeed, "base seed of the scenario traffic engine")
	short := flag.Bool("short", false, "shrink the scenarios, faults, verify and latency grids to a smoke size (Figures 5-8, ldap, throughput and interp stay full size)")
	list := flag.Bool("list", false, "print known figures and registered workloads, then exit")
	profilePath := flag.String("profile", "", "enable cycle profiling and write the merged folded-stack profile of every cell to this file")
	flag.Parse()

	mcfg.Superblocks = *superblocks
	mcfg.Profile = *profilePath != ""
	scenarioSeed = *seed
	shortGrid = *short

	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	if *list {
		fmt.Println("figures:")
		fmt.Println("  all")
		for _, f := range figureRegistry {
			fmt.Printf("  %s\n", f.name)
		}
		fmt.Println("workloads:")
		for _, wl := range bench.Workloads(false) {
			fmt.Printf("  %-22s (artifact key %q)\n", wl.Name, wl.Key)
		}
		return
	}

	selected, err := figuresFor(*figure)
	if err != nil {
		fmt.Fprintf(os.Stderr, "confbench: %v\n", err)
		os.Exit(2)
	}

	results, err := runFigures(os.Stdout, selected, workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "confbench: %v\n", err)
		os.Exit(1)
	}

	if *profilePath != "" {
		// Per-cell profiles fold commutatively, so the merged profile is
		// independent of matrix scheduling. Cells running under their own
		// machine configs (the interp MIPS lanes, supervised epochs)
		// deliberately do not profile and contribute nothing.
		merged := obs.NewFuncProfile()
		var cellsProfiled int
		for _, r := range results {
			if r.M != nil && r.M.Profile != nil {
				merged.Merge(r.M.Profile)
				cellsProfiled++
			}
		}
		if err := os.WriteFile(*profilePath, []byte(merged.Folded()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "confbench: write profile: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d symbols from %d cells, %d cycles attributed)\n",
			*profilePath, len(merged.Top()), cellsProfiled, merged.TotalCycles())
	}

}

// runFigures builds the combined cell matrix for the selected figures,
// runs it on workers goroutines, and renders each figure to w in
// selection order. It returns the matrix results.
func runFigures(w io.Writer, selected []figureSpec, workers int) ([]bench.CellResult, error) {
	var cells []bench.Cell
	type pending struct {
		name   string
		lo, hi int
		render renderFn
	}
	var pend []pending
	for _, f := range selected {
		cs, render := f.build()
		pend = append(pend, pending{f.name, len(cells), len(cells) + len(cs), render})
		cells = append(cells, cs...)
	}

	results := bench.RunMatrix(cells, workers)

	for _, p := range pend {
		if err := p.render(w, results[p.lo:p.hi]); err != nil {
			return nil, fmt.Errorf("figure %s: %w", p.name, err)
		}
	}
	return results, nil
}

// tableRow is one figure-table row: its name, workload, and the Wall
// divisor for the table cell (0 = absolute cycles).
type tableRow struct {
	name  string
	wl    bench.Workload
	scale uint64
}

// tableCells builds the cross product of rows x cols for one figure.
func tableCells(figure string, rows []tableRow, cols []confllvm.Variant) []bench.Cell {
	var cells []bench.Cell
	for _, r := range rows {
		for _, v := range cols {
			cells = append(cells, bench.Cell{
				Figure: figure, Row: r.name, Workload: r.wl,
				Variant: v, Conf: &mcfg, Scale: r.scale,
			})
		}
	}
	return cells
}

// renderTable fills tbl from results. value converts a measurement into
// the table cell; nil selects the default (Wall, divided by the cell's
// Scale).
func renderTable(w io.Writer, tbl *bench.Table, results []bench.CellResult,
	value func(bench.CellResult) uint64) error {
	if value == nil {
		value = func(r bench.CellResult) uint64 {
			v := r.M.Wall
			if r.Cell.Scale > 1 {
				v /= r.Cell.Scale
			}
			return v
		}
	}
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
		tbl.Set(r.Cell.Row, r.Cell.Variant, value(r))
	}
	fmt.Fprintln(w, tbl)
	return nil
}

// printGeomeans prints the CFI/MPX/Seg geomean-overhead line fig5 and
// the throughput table share.
func printGeomeans(w io.Writer, prefix string, tbl *bench.Table) {
	fmt.Fprintf(w, "%s: CFI=%.1f%%  MPX=%.1f%%  Seg=%.1f%%\n\n", prefix,
		tbl.GeoMeanOverhead(confllvm.VariantCFI),
		tbl.GeoMeanOverhead(confllvm.VariantMPX),
		tbl.GeoMeanOverhead(confllvm.VariantSeg))
}

func fig5() ([]bench.Cell, renderFn) {
	cols := []confllvm.Variant{confllvm.VariantBase, confllvm.VariantBaseOA,
		confllvm.VariantBare, confllvm.VariantCFI, confllvm.VariantMPX, confllvm.VariantSeg}
	tbl := bench.NewTable("Figure 5: SPEC CPU 2006 execution time (% of Base)", cols, "cyc")
	var rows []tableRow
	for _, k := range bench.SPECKernels() {
		rows = append(rows, tableRow{k.Name, bench.SPECWorkload(k, k.Params), 0})
	}
	render := func(w io.Writer, results []bench.CellResult) error {
		if err := renderTable(w, tbl, results, nil); err != nil {
			return err
		}
		printGeomeans(w, "geomean overheads", tbl)
		return checkFig5(tbl, results)
	}
	return tableCells("fig5", rows, cols), render
}

// checkFig5 asserts the Fig. 5 claim on the cells the figure rendered:
// the geomean overhead ordering (MPX > Seg, MPX > 0, Seg > 0, CFI >=
// Bare, all from tbl) and that instrumentation never changes what a
// kernel computes (every column's outputs equal Base's).
func checkFig5(tbl *bench.Table, results []bench.CellResult) error {
	bare := tbl.GeoMeanOverhead(confllvm.VariantBare)
	cfi := tbl.GeoMeanOverhead(confllvm.VariantCFI)
	mpx := tbl.GeoMeanOverhead(confllvm.VariantMPX)
	seg := tbl.GeoMeanOverhead(confllvm.VariantSeg)
	var errs []error
	for _, c := range []struct {
		holds bool
		claim string
	}{{mpx > seg, "MPX > Seg"}, {mpx > 0, "MPX > 0"}, {seg > 0, "Seg > 0"}, {cfi >= bare, "CFI >= Bare"}} {
		if !c.holds {
			errs = append(errs, fmt.Errorf("geomean overheads break %s (Bare=%.1f%% CFI=%.1f%% MPX=%.1f%% Seg=%.1f%%)",
				c.claim, bare, cfi, mpx, seg))
		}
	}
	base := map[string][]int64{}
	for _, r := range results {
		if r.Cell.Variant == confllvm.VariantBase {
			base[r.Cell.Row] = r.M.Outputs
		}
	}
	for _, r := range results {
		want := base[r.Cell.Row]
		switch {
		case r.Cell.Variant == confllvm.VariantBase && len(want) == 0:
			errs = append(errs, fmt.Errorf("%s: Base produced no outputs", r.Cell.Row))
		case !slices.Equal(r.M.Outputs, want):
			errs = append(errs, fmt.Errorf("%s: %v outputs %v differ from Base %v (instrumentation changed semantics)",
				r.Cell.Row, r.Cell.Variant, r.M.Outputs, want))
		}
	}
	return errors.Join(errs...)
}

func fig6() ([]bench.Cell, renderFn) {
	cols := []confllvm.Variant{confllvm.VariantBase, confllvm.VariantOneMem,
		confllvm.VariantBare, confllvm.VariantCFI, confllvm.VariantMPXSep, confllvm.VariantMPX}
	tbl := bench.NewTable("Figure 6: NGINX cycles per request (% of Base)", cols, "cyc/req")
	const reqs = 32
	var rows []tableRow
	for _, kb := range []int{0, 1, 2, 5, 10, 20, 40} {
		rows = append(rows, tableRow{fmt.Sprintf("resp-%02dKB", kb),
			bench.WebWorkload(reqs, kb*1024), reqs})
	}
	render := func(w io.Writer, results []bench.CellResult) error {
		return renderTable(w, tbl, results, nil)
	}
	return tableCells("fig6", rows, cols), render
}

func ldap() ([]bench.Cell, renderFn) {
	cols := []confllvm.Variant{confllvm.VariantBase, confllvm.VariantMPX}
	tbl := bench.NewTable("Section 7.3: OpenLDAP cycles per query (% of Base)", cols, "cyc/q")
	const queries = 2000
	rows := []tableRow{
		{"query-miss", bench.LDAPWorkload(queries, 100), queries},
		{"query-hit", bench.LDAPWorkload(queries, 0), queries},
	}
	render := func(w io.Writer, results []bench.CellResult) error {
		return renderTable(w, tbl, results, nil)
	}
	return tableCells("ldap", rows, cols), render
}

func fig7() ([]bench.Cell, renderFn) {
	cols := []confllvm.Variant{confllvm.VariantBase, confllvm.VariantBaseOA,
		confllvm.VariantBare, confllvm.VariantCFI, confllvm.VariantMPX}
	tbl := bench.NewTable("Figure 7: Privado classification latency (% of Base)", cols, "cyc/img")
	const images = 4
	rows := []tableRow{{"classify", bench.ClassifierWorkload(images), images}}
	render := func(w io.Writer, results []bench.CellResult) error {
		return renderTable(w, tbl, results, nil)
	}
	return tableCells("fig7", rows, cols), render
}

func fig8() ([]bench.Cell, renderFn) {
	cols := []confllvm.Variant{confllvm.VariantBase, confllvm.VariantSeg, confllvm.VariantMPX}
	tbl := bench.NewTable("Figure 8: Merkle-FS parallel read, total time (% of Base)", cols, "cyc")
	var rows []tableRow
	for _, n := range []int{1, 2, 3, 4, 5, 6} {
		rows = append(rows, tableRow{fmt.Sprintf("%d-threads", n),
			bench.MerkleWorkload(256, n), 0})
	}
	render := func(w io.Writer, results []bench.CellResult) error {
		return renderTable(w, tbl, results, nil)
	}
	return tableCells("fig8", rows, cols), render
}

// throughput is the scaled-traffic table the parallel matrix makes
// affordable: the webserver and LDAP drivers at 10x the request counts
// of their figure runs, reported as requests per second at the
// simulated clock (bench.SimClockHz). Cells are simulated quantities, so
// the table is deterministic and parallel-safe.
func throughput() ([]bench.Cell, renderFn) {
	cols := []confllvm.Variant{confllvm.VariantBase, confllvm.VariantCFI,
		confllvm.VariantMPX, confllvm.VariantSeg}
	tbl := bench.NewTable(
		fmt.Sprintf("Throughput: sustained requests/sec at a %.1f GHz simulated clock (%% of Base)",
			float64(bench.SimClockHz)/1e9), cols, "req/s")
	tbl.HigherIsBetter = true
	const webReqs = 320       // 10x the Figure 6 run
	const ldapQueries = 20000 // 10x the §7.3 run
	rows := []tableRow{
		{"web-2KB", bench.WebWorkload(webReqs, 2*1024), webReqs},
		{"web-10KB", bench.WebWorkload(webReqs, 10*1024), webReqs},
		{"ldap-hit", bench.LDAPWorkload(ldapQueries, 0), ldapQueries},
		{"ldap-miss", bench.LDAPWorkload(ldapQueries, 100), ldapQueries},
	}
	render := func(w io.Writer, results []bench.CellResult) error {
		err := renderTable(w, tbl, results, func(r bench.CellResult) uint64 {
			return bench.ReqsPerSec(r.Cell.Scale, r.M.Wall)
		})
		if err != nil {
			return err
		}
		printGeomeans(w, "geomean throughput overheads", tbl)
		return nil
	}
	return tableCells("throughput", rows, cols), render
}

// scenarios is the traffic-engine sweep: the internal/scenario grid
// (request multipliers 1x/10x/100x crossed with hit/resumption ratios)
// for the confidential KV store and the TLS-ish handshake, reported as
// requests per second at the simulated clock. Every cell's stream is a
// pure function of the spec (including -seed), every table value is a
// simulated quantity, and each workload family compiles once per variant
// — so even the 100x cells only add simulated execution time and the
// table is byte-identical across schedulings, dispatch modes and reruns.
func scenarios() ([]bench.Cell, renderFn) {
	cols := []confllvm.Variant{confllvm.VariantBase, confllvm.VariantCFI,
		confllvm.VariantMPX, confllvm.VariantSeg}
	specs := scenario.FigureGrid(shortGrid, scenarioSeed)
	tbl := bench.NewTable(
		fmt.Sprintf("Scenario sweep: seeded KV-store + TLS-ish traffic, requests/sec at a %.1f GHz simulated clock (%% of Base)",
			float64(bench.SimClockHz)/1e9), cols, "req/s")
	tbl.HigherIsBetter = true
	cells := bench.ScenarioCells("scenarios", specs, cols, &mcfg)
	render := func(w io.Writer, results []bench.CellResult) error {
		err := renderTable(w, tbl, results, func(r bench.CellResult) uint64 {
			return bench.ReqsPerSec(r.Cell.Scale, r.M.Wall)
		})
		if err != nil {
			return err
		}
		printGeomeans(w, "geomean throughput overheads", tbl)
		return nil
	}
	return cells, render
}

// faults is the chaos figure: the KV-store and TLS-ish scenario
// workloads served through the bench supervisor while a seeded injector
// (internal/chaos) corrupts wire packets, plants code bombs, exhausts
// fuel, and presents tampered images to the verify-before-load gate. The
// sweep crosses the two workloads with a fault-rate ladder (per-mille,
// applied to every mechanism) and reports availability, successful
// throughput, restart counts, recovery latency and gate rejections —
// every column a simulated quantity, so the table is byte-identical
// across -parallel and -superblocks settings and is pinned by a golden
// file. The injector seeds derive from -seed, so the figure is one
// deterministic function of the flag set.
func faults() ([]bench.Cell, renderFn) {
	const v = confllvm.VariantMPX // the deployable, verifiable configuration
	specs := []scenario.Spec{scenario.DefaultKV(shortGrid), scenario.DefaultTLSH(shortGrid)}
	rates := []uint64{0, 50, 200, 500}
	if shortGrid {
		rates = []uint64{0, 200, 500}
	}
	cells := bench.FaultCells("faults", specs, rates, v, &mcfg, scenarioSeed)
	render := func(w io.Writer, results []bench.CellResult) error {
		fmt.Fprintf(w, "Faults: supervised serving under seeded fault injection (%v, seed %d, rates in per-mille)\n", v, scenarioSeed)
		fmt.Fprintf(w, "%-22s %7s %9s %11s %9s %12s %12s %7s %6s %6s\n",
			"workload/rate", "avail%", "req/s", "served", "restarts",
			"recov-mean", "recov-max", "gate✗", "shed", "rej")
		for _, r := range results {
			if r.Err != nil {
				return r.Err
			}
			rep := r.M.Serve
			fmt.Fprintf(w, "%-22s %6.1f%% %9d %5d/%-5d %9d %12d %12d %7d %6d %6d\n",
				r.Cell.Row, rep.AvailabilityPct(), rep.ServedPerSec(),
				rep.Served, rep.Total, rep.Restarts,
				rep.RecoveryMean(), rep.RecoveryMax(),
				rep.VerifyRejections, rep.Shed, rep.Rejected)
		}
		fmt.Fprintln(w)
		return nil
	}
	return cells, render
}

// verifyFigure is the load-gate evaluation: every workload's binary under
// both deployable schemes is verified cold-serial, cold-parallel and
// verdict-cached, then attacked with the seeded verifymut corpus. The
// first table is deterministic (counters are pure functions of the bits
// and -seed, identical under any -parallel/-superblocks setting and
// pinned by a golden file); the following lines measure verifier
// throughput on the host and are marked "(host)" so the golden
// comparison can strip them. Any mutant the
// verifier fails to kill by contract fails the whole figure.
func verifyFigure() ([]bench.Cell, renderFn) {
	vs := []confllvm.Variant{confllvm.VariantMPX, confllvm.VariantSeg}
	cells := bench.VerifyCells("verify", bench.Workloads(shortGrid), vs, scenarioSeed)
	render := func(w io.Writer, results []bench.CellResult) error {
		fmt.Fprintf(w, "Verify: load-gate checking of every workload binary (seed %d)\n", scenarioSeed)
		fmt.Fprintf(w, "%-16s %8s %7s %6s %8s %10s %9s\n",
			"workload", "variant", "funcs", "stubs", "insts", "code-bytes", "mutants")
		var surviving int
		for _, r := range results {
			if r.Err != nil {
				return r.Err
			}
			rep := r.M.Verify
			fmt.Fprintf(w, "%-16s %8v %7d %6d %8d %10d %5d/%-3d\n",
				r.Cell.Row, r.Cell.Variant, rep.Funcs, rep.Stubs, rep.Insts,
				rep.CodeBytes, rep.MutantsKilled, rep.MutantsTried)
			surviving += rep.MutantsTried - rep.MutantsKilled
		}
		fmt.Fprintln(w)
		for _, r := range results {
			rep := r.M.Verify
			fmt.Fprintf(w, "%-16s %8v %10.0f funcs/s %12.0f insts/s %6.2fx par %6.1fx cached  (host, %d workers)\n",
				r.Cell.Row, r.Cell.Variant, rep.FuncsPerSec(), rep.InstsPerSec(),
				rep.Speedup(), float64(rep.ParallelNS)/float64(max64(rep.CachedNS, 1)),
				rep.Workers)
		}
		fmt.Fprintln(w)
		if surviving > 0 {
			return fmt.Errorf("%d mutant(s) survived the verifier — kill rate below 100%%", surviving)
		}
		return nil
	}
	return cells, render
}

// latencyFigure is the open-loop latency figure: the confidential KV
// store's per-request service times (measured at the trusted recv
// boundary in simulated cycles) replayed through a deterministic FIFO
// queue fed by seeded uniform/Poisson/bursty arrival processes at three
// offered loads. Every column is a simulated quantity — the table is
// byte-identical across -parallel and -superblocks and is pinned by a
// golden file — and the arrival streams derive from -seed, so the figure is one
// deterministic function of the flag set. The aggregate line merges
// every row's metric registry commutatively (internal/obs), so it does
// not depend on the order the cells completed in.
func latencyFigure() ([]bench.Cell, renderFn) {
	const v = confllvm.VariantMPX // the deployable, verifiable configuration
	sweeps := bench.LatencyGrid(shortGrid, scenarioSeed)
	cells := bench.LatencyCells("latency", sweeps, v, &mcfg)
	render := func(w io.Writer, results []bench.CellResult) error {
		fmt.Fprintf(w, "Latency: open-loop arrivals queueing at the trusted boundary (%v, seed %d, cycles at a %.1f GHz simulated clock)\n",
			v, scenarioSeed, float64(bench.SimClockHz)/1e9)
		fmt.Fprintf(w, "%-28s %8s %10s %9s %9s %9s %9s %11s %5s\n",
			"scenario/arrival", "gap", "offer-r/s", "svc-mean", "p50", "p95", "p99", "max", "maxq")
		agg := obs.NewRegistry()
		for _, r := range results {
			if r.Err != nil {
				return r.Err
			}
			rep := r.M.Latency
			fmt.Fprintf(w, "%-28s %8d %10d %9d %9d %9d %9d %11d %5d\n",
				r.Cell.Row, rep.MeanGap, rep.OfferedRPS, rep.SvcMean,
				rep.P50, rep.P95, rep.P99, rep.Max, rep.MaxQueue)
			agg.Merge(rep.Registry)
		}
		lat := agg.Hist("latency")
		fmt.Fprintf(w, "aggregate: %d requests, latency p50=%d p99=%d max=%d cycles, %d trusted calls\n\n",
			lat.Count, lat.Quantile(50), lat.Quantile(99), lat.Max,
			agg.CounterValue("trusted-calls"))
		return nil
	}
	return cells, render
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// interp sweeps every workload with superblock dispatch on and off under
// OurMPX: simulated cycles must agree exactly (a runtime re-check of the
// determinism invariant) and the MIPS ratio is the dispatch speedup.
// The cells are Serial — MIPS is a host-time measurement — so they run
// one at a time after the parallel lane drains; only their compilation
// shares the pool.
func interp() ([]bench.Cell, renderFn) {
	const v = confllvm.VariantMPX
	stepConf := machine.DefaultConfig()
	stepConf.Superblocks = false
	blockConf := machine.DefaultConfig()
	wls := bench.Workloads(false)
	var cells []bench.Cell
	for _, wl := range wls {
		cells = append(cells,
			bench.Cell{Figure: "interp", Row: wl.Name, Label: "stepwise",
				Workload: wl, Variant: v, Conf: &stepConf, Serial: true},
			bench.Cell{Figure: "interp", Row: wl.Name, Label: "superblock",
				Workload: wl, Variant: v, Conf: &blockConf, Serial: true},
		)
	}
	render := func(w io.Writer, results []bench.CellResult) error {
		fmt.Fprintln(w, "Interpreter dispatch: superblock vs per-instruction stepping (OurMPX)")
		fmt.Fprintf(w, "%-16s %12s %12s %9s\n", "workload", "step MIPS", "block MIPS", "speedup")
		var geo float64
		var n int
		for i := 0; i+1 < len(results); i += 2 {
			ms, mb := results[i], results[i+1]
			if ms.Err != nil {
				return ms.Err
			}
			if mb.Err != nil {
				return mb.Err
			}
			name := ms.Cell.Row
			if ms.M.Wall != mb.M.Wall || ms.M.Stats.Arch() != mb.M.Stats.Arch() {
				return fmt.Errorf("%s: dispatch modes disagree (stepwise %d cycles, superblock %d cycles)",
					name, ms.M.Wall, mb.M.Wall)
			}
			// A sub-clock-resolution run has HostNS == 0 and MIPS == 0;
			// dividing would poison the geomean with +Inf/NaN. Skip
			// untimed cells instead.
			if ms.M.MIPS() <= 0 || mb.M.MIPS() <= 0 {
				fmt.Fprintf(w, "%-16s %12s %12s %9s\n", name, "-", "-", "untimed")
				continue
			}
			speedup := mb.M.MIPS() / ms.M.MIPS()
			fmt.Fprintf(w, "%-16s %12.1f %12.1f %8.2fx\n", name, ms.M.MIPS(), mb.M.MIPS(), speedup)
			geo += math.Log(speedup)
			n++
		}
		if n > 0 {
			fmt.Fprintf(w, "%-16s %25s %8.2fx\n\n", "geomean", "", math.Exp(geo/float64(n)))
		} else {
			fmt.Fprintf(w, "%-16s %25s %9s\n\n", "geomean", "", "untimed")
		}
		return nil
	}
	return cells, render
}
