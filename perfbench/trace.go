package main

import (
	"runtime/metrics"
	"time"

	"confllvm"
	"confllvm/internal/codegen"
	"confllvm/internal/ir"
	"confllvm/internal/irgen"
	"confllvm/internal/link"
	"confllvm/internal/machine"
	"confllvm/internal/minic"
	"confllvm/internal/opt"
	"confllvm/internal/taint"
	"confllvm/internal/types"
	"confllvm/internal/verify"
)

// Request identifiers of spans recorded outside the timed ops: during
// set-up, and in the determinism guard's re-runs after the timed loop.
// Per-layer times count only spans of timed ops (identifiers >= 0).
const (
	setupOp   = -1
	untimedOp = -2
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Times are nanoseconds since the tracer's origin.
type span struct {
	Parent int // index of the enclosing span; -1 for a root span
	Op     int // request identifier; setupOp or untimedOp outside timed ops
	Layer  string
	Start  int64
	End    int64
	// Alloc is the heap bytes allocated while the span was open,
	// children included (trt spans do not measure it).
	Alloc uint64
}

// tracer keeps spans in memory. The benchmark is single-threaded, so the
// open-span stack is the causal parent chain.
//
// Trusted-runtime handlers run thousands of times per serve op, so their
// calls are folded into one trt span per enclosing machine span, holding
// the summed handler time (its End is Start plus that sum). That keeps a
// traced run's memory flat.
type tracer struct {
	origin time.Time
	spans  []span
	stack  []int
	op     int
	sample []metrics.Sample
	trtIdx int // index of the open machine span's trt span, or -1
}

func newTracer() *tracer {
	return &tracer{
		origin: time.Now(),
		op:     setupOp,
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
		trtIdx: -1,
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) allocated() uint64 {
	metrics.Read(t.sample)
	if t.sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return t.sample[0].Value.Uint64()
}

// begin opens a span of layer under the innermost open span.
func (t *tracer) begin(layer string) {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Parent: parent, Op: t.op,
		Layer: layer, Alloc: t.allocated(), Start: t.now()})
	t.stack = append(t.stack, len(t.spans)-1)
}

// end closes the innermost open span.
func (t *tracer) end() {
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[i]
	s.End = t.now()
	s.Alloc = t.allocated() - s.Alloc
}

// handlerCall folds one trusted-handler invocation that started at start
// into the trt span of the innermost open span.
func (t *tracer) handlerCall(start int64) {
	d := t.now() - start
	if t.trtIdx < 0 {
		parent := t.stack[len(t.stack)-1]
		t.spans = append(t.spans, span{Parent: parent, Op: t.op,
			Layer: "trt", Start: start, End: start})
		t.trtIdx = len(t.spans) - 1
	}
	t.spans[t.trtIdx].End += d
}

// layerTotals is one layer's summed self time and allocation.
type layerTotals struct {
	selfNS int64
	alloc  uint64
}

// selfTimes sums each layer's self time (its duration minus the part its
// children cover) over the spans accepted by keep, keyed by layer. Spans
// named "op" are the request roots; their self time is the part of an op
// no layer accounts for.
func (t *tracer) selfTimes(keep func(*span) bool) map[string]*layerTotals {
	childNS := make([]int64, len(t.spans))
	childAlloc := make([]uint64, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent >= 0 {
			childNS[s.Parent] += s.End - s.Start
			childAlloc[s.Parent] += s.Alloc
		}
	}
	out := map[string]*layerTotals{}
	for i := range t.spans {
		s := &t.spans[i]
		if !keep(s) {
			continue
		}
		lt := out[s.Layer]
		if lt == nil {
			lt = &layerTotals{}
			out[s.Layer] = lt
		}
		lt.selfNS += s.End - s.Start - childNS[i]
		if s.Alloc >= childAlloc[i] {
			lt.alloc += s.Alloc - childAlloc[i]
		}
	}
	return out
}

// compileCounts is the per-compile work of the traced pipeline.
type compileCounts struct {
	irgenInsts, optInsts, codegenInsts, codeBytes int
}

func irInsts(mod *ir.Module) int {
	n := 0
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Insts)
		}
	}
	return n
}

func codegenInsts(cm *codegen.Module) int {
	n := 0
	for _, f := range cm.Funcs {
		for _, it := range f.Items {
			if !it.Magic {
				n++
			}
		}
	}
	return n
}

// tracedCompile is confllvm.Compile called stage by stage, with a span
// around each layer's public function. It must stay step-for-step equal
// to Compile: the benchmark checks that both produce the same image.
func tracedCompile(t *tracer, prog confllvm.Program, v confllvm.Variant) (*confllvm.Artifact, compileCounts, error) {
	var c compileCounts
	gen := &minic.QualGen{}
	structs := map[string]*types.Type{}
	var files []*minic.File
	t.begin("minic")
	for _, s := range prog.Sources {
		f, err := minic.Parse(s.Name, s.Code, structs, gen)
		if err != nil {
			t.end()
			return nil, c, err
		}
		files = append(files, f)
	}
	t.end()

	t.begin("irgen")
	mod, err := irgen.Gen(files, gen)
	t.end()
	if err != nil {
		return nil, c, err
	}
	c.irgenInsts = irInsts(mod)

	passes := v.OptPasses()
	if prog.NoOpt {
		passes = opt.None()
	}
	t.begin("opt")
	opt.Run(mod, passes)
	t.end()
	c.optInsts = irInsts(mod)

	var a *taint.Assignment
	var warns []string
	if v == confllvm.VariantBase || v == confllvm.VariantBaseOA {
		a = &taint.Assignment{}
	} else {
		t.begin("taint")
		a, err = taint.Infer(mod, gen.Count(), taint.Options{
			Strict:     prog.Strict,
			AllPrivate: prog.AllPrivate,
		})
		t.end()
		if err != nil {
			return nil, c, err
		}
		for _, w := range a.BranchWarnings {
			warns = append(warns, "warning: possible implicit flow: "+w.String())
		}
	}

	conf := v.Config()
	layout := link.LayoutFor(conf)
	conf.StackOffset = layout.Offset()
	t.begin("codegen")
	cm, err := codegen.Gen(mod, a, conf)
	t.end()
	if err != nil {
		return nil, c, err
	}
	c.codegenInsts = codegenInsts(cm)

	seed := prog.Seed
	if seed == 0 {
		seed = 0x5eed
	}
	t.begin("link")
	img, err := link.Link(cm, layout, seed)
	t.end()
	if err != nil {
		return nil, c, err
	}
	c.codeBytes = len(img.Code)
	return &confllvm.Artifact{Image: img, Variant: v, Strict: prog.Strict,
		Warnings: warns, IR: mod}, c, nil
}

// tracedVerify is confllvm.Verify inside a verify span, returning the
// verifier's counters.
func tracedVerify(t *tracer, art *confllvm.Artifact) (verify.Stats, error) {
	t.begin("verify")
	defer t.end()
	return verify.VerifyStats(art.Image, verify.Options{Strict: art.Strict})
}

// tracedRun is confllvm.Prepare plus Prepared.Finish with the default
// machine configuration: a loader span around Prepare and a machine span
// around Finish. Before Finish, every trusted handler the loader installed
// is wrapped in place, at its own address, to time its calls; the machine
// looks handlers up by address on each dispatch, so nothing else changes.
func tracedRun(t *tracer, art *confllvm.Artifact, w *confllvm.World) (*confllvm.Result, error) {
	t.begin("loader")
	p, err := confllvm.Prepare(art, w, nil)
	if err != nil {
		t.end()
		return nil, err
	}
	handlers := p.Machine().Handlers
	for addr, h := range handlers {
		handlers[addr] = func(m *machine.Machine, th *machine.Thread) *machine.Fault {
			start := t.now()
			f := h(m, th)
			t.handlerCall(start)
			return f
		}
	}
	t.end()

	t.begin("machine")
	t.trtIdx = -1
	res := p.Finish()
	t.trtIdx = -1
	t.end()
	return res, nil
}
