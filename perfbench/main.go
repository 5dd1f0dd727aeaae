// Command perfbench is the repository benchmark: one process, one client,
// the default machine configuration. It runs one seeded closed-loop
// workload through the public entry points (confllvm.Compile, Verify,
// Prepare and Prepared.Finish), checks every output, and prints every
// metric with its unit. The last line of standard output is a JSON object
// with the keys correct, attempted, failed and metrics.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload serve --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// alternates untraced and traced passes over the same ops and prints the
// per-layer metrics taken from spans recorded around each layer call. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"confllvm"
	"confllvm/internal/scenario"
)

// setupReps is the number of untraced set-ups of a run. setup_s is their
// median, so one set-up the host slows down does not move it.
const setupReps = 10

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// short selects reduced inputs (the package's tests use it).
	short bool
	// setupReps is the number of untraced set-ups; setup_s is their median.
	setupReps int
}

// runner holds one invocation's state.
type runner struct {
	cfg       config
	wl        *workload
	items     []*item
	checksums map[string]int64

	tr     *tracer // non-nil in a --trace 1 run
	traced bool    // the current op is traced

	setupNS  []float64
	compiles []compileCounts // traced compiles (set-up or build ops)

	exact   []outcome         // ops of the exact passes, in run order
	fps     map[string]string // op input key -> fingerprint
	passNS  []float64         // untraced passes: summed op time
	passP99 []float64         // untraced passes: 99th percentile op time
	itemNS  [][]float64       // untraced op times, by item index
	opNS    map[bool][]float64
	instrs  map[bool]uint64

	attempted, failed     int
	mutTried, mutRejected int
	errs                  []string

	gcPauseNS, gcCycles uint64
}

func (r *runner) tracer() *tracer {
	if r.traced {
		return r.tr
	}
	return nil
}

// clock times body as one op. In a traced op an "op" root span encloses
// the layer spans body records.
func (r *runner) clock(body func()) int64 {
	t := r.tracer()
	if t != nil {
		t.begin("op")
	}
	start := time.Now()
	body()
	ns := time.Since(start).Nanoseconds()
	if t != nil {
		t.end()
	}
	return ns
}

// runOp runs item idx as op n of pass, records its time, checks it, and
// applies the determinism guard: two ops with the same inputs must agree
// on every exact quantity.
func (r *runner) runOp(idx, pass, n int, traced, timed bool) {
	r.traced = traced
	if r.tr != nil {
		r.tr.op = n
		if !timed {
			r.tr.op = untimedOp
		}
	}
	o := r.wl.op(r, r.items[idx], pass, n)
	r.traced = false
	if r.tr != nil {
		r.tr.op = setupOp
	}
	r.attempted++
	if o.err == nil && o.fp != "" {
		if prev, ok := r.fps[o.key]; !ok {
			r.fps[o.key] = o.fp
		} else if prev != o.fp {
			o.err = fmt.Errorf("%s: nondeterministic result (traced=%v): %s, first run gave %s",
				o.key, traced, o.fp, prev)
		}
	}
	if o.err != nil {
		r.failed++
		if len(r.errs) < 10 {
			r.errs = append(r.errs, o.err.Error())
		}
	}
	r.mutTried += o.mutTried
	r.mutRejected += o.mutRejected
	if traced && o.counts != (compileCounts{}) {
		r.compiles = append(r.compiles, o.counts)
	}
	if pass < r.wl.exactPasses && timed {
		o.item = idx
		r.exact = append(r.exact, o)
	}
	if timed && !traced {
		r.itemNS[idx] = append(r.itemNS[idx], float64(o.ns))
	}
	if timed {
		r.opNS[traced] = append(r.opNS[traced], float64(o.ns))
		r.instrs[traced] += o.instrs
	}
}

// run executes one benchmark invocation.
func run(cfg config) (*runner, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	r := &runner{cfg: cfg, wl: wl, fps: map[string]string{},
		opNS: map[bool][]float64{}, instrs: map[bool]uint64{}}
	var err error
	if r.checksums, err = loadSpecChecksums(cfg.short); err != nil {
		return nil, err
	}

	reps := cfg.setupReps
	if reps < 1 || cfg.trace {
		reps = 1
	}
	for k := 0; k < reps; k++ {
		items := wl.items(cfg.short)
		runtime.GC() // every set-up starts from the same heap state
		start := time.Now()
		if err := setup(r, items); err != nil {
			return nil, err
		}
		r.setupNS = append(r.setupNS, float64(time.Since(start).Nanoseconds()))
		r.items = items
	}
	r.itemNS = make([][]float64, len(r.items))
	if cfg.trace {
		r.tr = newTracer()
		if cfg.workload != "build" {
			if err := tracedSetup(r); err != nil {
				return nil, err
			}
		}
	}

	// The timed loop: whole passes until the time is up. The first
	// exactPasses passes give the exact metrics. A traced run alternates
	// untraced and traced passes and needs at least one of each.
	minPasses := wl.exactPasses
	if cfg.trace && minPasses < 2 {
		minPasses = 2
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	loopStart := time.Now()
	n := 0
	for pass := 0; pass < minPasses || time.Since(loopStart).Seconds() < cfg.seconds; pass++ {
		traced := cfg.trace && pass%2 == 1
		first := len(r.opNS[traced])
		for _, idx := range passOrder(cfg.seed, pass, len(r.items)) {
			r.runOp(idx, pass, n, traced, true)
			n++
		}
		if !traced {
			passOps := r.opNS[false][first:]
			var passNS float64
			for _, x := range passOps {
				passNS += x
			}
			r.passNS = append(r.passNS, passNS)
			r.passP99 = append(r.passP99, percentile(passOps, 99))
		}
	}
	runtime.ReadMemStats(&ms1)
	r.gcPauseNS = ms1.PauseTotalNs - ms0.PauseTotalNs
	r.gcCycles = uint64(ms1.NumGC - ms0.NumGC)

	// Determinism guard for workloads whose later passes get new inputs:
	// run the exact passes again, untraced and (when tracing) traced.
	if wl.rerunExact {
		modes := []bool{false}
		if cfg.trace {
			modes = append(modes, true)
		}
		for _, traced := range modes {
			for pass := 0; pass < wl.exactPasses; pass++ {
				for _, idx := range passOrder(cfg.seed, pass, len(r.items)) {
					r.runOp(idx, pass, n, traced, false)
					n++
				}
			}
		}
	}
	return r, nil
}

// passOrder is the seeded op order of one pass.
func passOrder(seed uint64, pass, n int) []int {
	return shuffled(n, scenario.MixSeed(seed, uint64(pass)))
}

// metric is one reported number.
type metric struct {
	name, unit, better string
	value              float64
	// samples is the number of measurements behind a timing (0 for
	// exact and counted quantities).
	samples int
}

// endToEnd computes the metrics of an untraced run. Every workload
// reports every metric; see README.md for what each means per workload.
func (r *runner) endToEnd() []metric {
	ops := r.opNS[false]
	var sumNS float64
	for _, x := range ops {
		sumNS += x
	}
	ms := make([]float64, len(ops))
	for i, x := range ops {
		ms[i] = x / 1e6
	}
	passS := make([]float64, len(r.passNS))
	for i, x := range r.passNS {
		passS[i] = x / 1e9
	}
	// p99 is the median over passes of each pass's p99, so a stretch of
	// the run the host slows down does not become the tail.
	p99, n99 := median(r.passP99)/1e6, len(r.passP99)
	if r.wl.itemPercentiles {
		ms = make([]float64, len(r.itemNS))
		for i, xs := range r.itemNS {
			ms[i] = median(xs) / 1e6
		}
		p99, n99 = percentile(ms, 99), len(ms)
	}
	var code uint64
	for _, it := range r.items {
		code += uint64(len(it.art.Image.Code))
	}
	mpx, seg := r.overheads()
	return []metric{
		{"setup_s", "s", "lower", median(r.setupNS) / 1e9, len(r.setupNS)},
		{"ops_per_s", "ops/s", "higher", float64(len(ops)) / (sumNS / 1e9), len(ops)},
		{"op_ms_p50", "ms", "lower", percentile(ms, 50), len(ms)},
		{"op_ms_p99", "ms", "lower", p99, n99},
		{"pass_s", "s", "lower", median(passS), len(passS)},
		{"sim_mips", "M/s", "higher", float64(r.instrs[false]) / sumNS * 1e3, len(ops)},
		{"peak_rss_mb", "MB", "lower", peakRSSMB(), 1},
		{"sim_overhead_mpx_pct", "%", "lower", mpx, 0},
		{"sim_overhead_seg_pct", "%", "lower", seg, 0},
		{"code_bytes", "bytes", "lower", float64(code), 0},
	}
}

// overheads is the geomean over programs of each checked variant's cost
// relative to Base, with costs summed over the exact passes.
func (r *runner) overheads() (mpx, seg float64) {
	cost := make([]float64, len(r.items))
	for _, o := range r.exact {
		cost[o.item] += float64(o.cost)
	}
	base := map[string]float64{}
	for i, it := range r.items {
		if it.variant == confllvm.VariantBase {
			base[it.prog] = cost[i]
		}
	}
	ratios := map[confllvm.Variant][]float64{}
	for i, it := range r.items {
		if b := base[it.prog]; b > 0 && it.variant != confllvm.VariantBase {
			ratios[it.variant] = append(ratios[it.variant], cost[i]/b)
		}
	}
	return geomeanOverheadPct(ratios[confllvm.VariantMPX]), geomeanOverheadPct(ratios[confllvm.VariantSeg])
}

// layers are the traced layers: the compile pipeline in confllvm.Compile's
// order, the verifier, load, execution, the trusted handlers and the
// traffic generator.
var layers = []string{"minic", "irgen", "opt", "taint", "codegen", "link", "verify",
	"loader", "machine", "trt", "scenario"}

// perLayer computes the metrics of a traced run. Layers that run inside
// ops are reported per traced op; on spec and serve, whose ops do not
// compile, the compile and verify layers are reported per artifact of the
// traced set-up.
func (r *runner) perLayer() []metric {
	t := r.tr
	inOp := t.selfTimes(func(s *span) bool { return s.Op >= 0 })
	inSetup := t.selfTimes(func(s *span) bool { return s.Op == setupOp })
	tracedOps := len(r.opNS[true])
	loopOps := tracedOps + len(r.opNS[false])
	per := func(x float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	busy := map[string]float64{}
	allocMB := map[string]float64{}
	samples := map[string]int{}
	for _, layer := range append(layers, "op") {
		lt, n := inOp[layer], tracedOps
		if lt == nil && inSetup[layer] != nil {
			lt, n = inSetup[layer], len(r.items)
		}
		if lt == nil {
			continue
		}
		busy[layer] = per(float64(lt.selfNS)/1e6, n)
		allocMB[layer] = per(float64(lt.alloc)/(1<<20), n)
		samples[layer] = n
	}

	var cc compileCounts
	for _, c := range r.compiles {
		cc.irgenInsts += c.irgenInsts
		cc.optInsts += c.optInsts
		cc.codegenInsts += c.codegenInsts
		cc.codeBytes += c.codeBytes
	}
	nc := len(r.compiles)

	var vInsts, vFuncs, nVerified int
	for _, it := range r.items {
		if it.art.Verifiable() {
			vInsts += it.vstats.Insts
			vFuncs += it.vstats.Funcs
			nVerified++
		}
	}
	rejectFrac := 1.0 // vacuously: no mutant was accepted
	if r.mutTried > 0 {
		rejectFrac = float64(r.mutRejected) / float64(r.mutTried)
	}

	var st struct{ instrs, cycles, misses, checks, fused, defuses, trt float64 }
	for _, o := range r.exact {
		st.instrs += float64(o.stats.Instrs)
		st.cycles += float64(o.stats.Cycles)
		st.misses += float64(o.stats.CacheMisses)
		st.checks += float64(o.stats.BndChecks)
		st.fused += float64(o.stats.FusedSlots)
		st.defuses += float64(o.stats.Defuses)
		st.trt += float64(o.stats.TrustedCall)
	}
	ne := len(r.exact)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	tracedMS := mean(r.opNS[true]) / 1e6
	untracedMS := mean(r.opNS[false]) / 1e6

	var out []metric
	for _, layer := range layers {
		out = append(out, metric{layer + ".busy_ms", "ms", "lower", busy[layer], samples[layer]})
	}
	out = append(out, metric{"op.unattributed_ms", "ms", "lower", busy["op"], samples["op"]})
	for _, layer := range layers {
		if layer != "trt" { // trt spans do not measure allocation
			out = append(out, metric{layer + ".alloc_mb", "MB", "lower", allocMB[layer], samples[layer]})
		}
	}
	out = append(out,
		metric{"irgen.ir_insts", "count", "lower", per(float64(cc.irgenInsts), nc), 0},
		metric{"opt.ir_insts", "count", "lower", per(float64(cc.optInsts), nc), 0},
		metric{"codegen.insts", "count", "lower", per(float64(cc.codegenInsts), nc), 0},
		metric{"link.code_bytes", "bytes", "lower", per(float64(cc.codeBytes), nc), 0},
		metric{"verify.insts", "count", "lower", per(float64(vInsts), nVerified), 0},
		metric{"verify.funcs", "count", "lower", per(float64(vFuncs), nVerified), 0},
		metric{"verify.mutants", "count", "higher", float64(r.mutTried), 0},
		metric{"verify.reject_frac", "ratio", "higher", rejectFrac, 0},
		metric{"machine.instrs", "count", "lower", per(st.instrs, ne), 0},
		metric{"machine.cycles", "count", "lower", per(st.cycles, ne), 0},
		metric{"machine.cache_misses", "count", "lower", per(st.misses, ne), 0},
		metric{"machine.bnd_checks", "count", "lower", per(st.checks, ne), 0},
		metric{"machine.fused_frac", "ratio", "higher", ratio(st.fused, st.instrs), 0},
		metric{"machine.defuse_frac", "ratio", "lower", ratio(st.defuses, st.fused), 0},
		metric{"trt.calls", "count", "lower", per(st.trt, ne), 0},
		metric{"gc.pause_ms", "ms", "lower", per(float64(r.gcPauseNS)/1e6, loopOps), loopOps},
		metric{"gc.cycles", "count", "lower", per(float64(r.gcCycles), loopOps), loopOps},
		metric{"op.traced_ms", "ms", "lower", tracedMS, len(r.opNS[true])},
		metric{"op.untraced_ms", "ms", "lower", untracedMS, len(r.opNS[false])},
		metric{"trace.overhead_pct", "%", "lower", (ratio(tracedMS, untracedMS) - 1) * 100, tracedOps},
		metric{"ops.fail_frac", "ratio", "lower", ratio(float64(r.failed), float64(r.attempted)), r.attempted},
	)
	return out
}

// result is the final JSON line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable report and then the JSON result line.
func report(w io.Writer, r *runner, h host) (result, error) {
	var ms []metric
	if r.cfg.trace {
		ms = r.perLayer()
	} else {
		ms = r.endToEnd()
	}
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%v\n", r.cfg.workload, r.cfg.seed, r.cfg.seconds, r.cfg.trace)
	fmt.Fprintf(w, "# host GOMAXPROCS=%d nproc=%d cpu=%q go=%s commit=%s\n", h.GOMAXPROCS, h.NumCPU, h.CPU, h.GoVersion, h.Commit)
	fmt.Fprintf(w, "# items=%d untraced_ops=%d traced_ops=%d untraced_passes=%d attempted=%d failed=%d\n",
		len(r.items), len(r.opNS[false]), len(r.opNS[true]), len(r.passNS), r.attempted, r.failed)
	for _, e := range r.errs {
		fmt.Fprintf(w, "# FAIL %s\n", e)
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricJSON{}}
	for _, m := range ms {
		n := "exact"
		if m.samples > 0 {
			n = fmt.Sprintf("n=%d", m.samples)
		}
		fmt.Fprintf(w, "%-24s %16.6f %-6s (%s, %s is better)\n", m.name, m.value, m.unit, n, m.better)
		res.Metrics[m.name] = metricJSON{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return res, err
	}
	fmt.Fprintf(w, "%s\n", line)
	return res, nil
}

func main() {
	cfg := config{setupReps: setupReps}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: op order, traffic and mutant picks")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "measure whole passes until this many seconds have passed")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass mix and prints per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}

	r, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	res, err := report(os.Stdout, r, hostFingerprint())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}
