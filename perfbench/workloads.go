package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"sort"

	"confllvm"
	"confllvm/internal/asm"
	"confllvm/internal/bench"
	"confllvm/internal/link"
	"confllvm/internal/machine"
	"confllvm/internal/scenario"
	"confllvm/internal/verify"
	"confllvm/internal/verify/verifymut"
)

// variants are the configurations every workload runs: the vanilla
// baseline and the two deployable (verifiable) ConfLLVM schemes.
var variants = []confllvm.Variant{confllvm.VariantBase, confllvm.VariantMPX, confllvm.VariantSeg}

// item is one (program, variant) pair of a workload. A pass runs one op of
// every item.
type item struct {
	prog    string
	family  int // serve: index of the traffic family
	variant confllvm.Variant
	program confllvm.Program
	params  []int64       // spec: kernel inputs
	scen    scenario.Spec // serve: traffic template (Seed set per op)

	// Filled in by set-up.
	art     *confllvm.Artifact
	digest  string       // image digest, for byte-identity checks
	vstats  verify.Stats // verifier counters of the image (verifiable only)
	insts   int          // build: machine instructions in the linked image
	mutants []*verifymut.Mutant
}

// outcome is what one op produced.
type outcome struct {
	item   int // index into the run's items
	ns     int64
	key    string // identity of the op's inputs: equal keys must give equal fp
	fp     string // every exact quantity of the op's result
	err    error
	instrs uint64        // simulated instructions (spec, serve) or image instructions (build)
	cost   uint64        // simulated wall cycles (spec, serve) or linked code bytes (build)
	stats  machine.Stats // spec, serve

	mutTried, mutRejected int
	counts                compileCounts // build, traced
}

// workload is one of the benchmark's input sets.
type workload struct {
	items func(short bool) []*item
	op    func(r *runner, it *item, pass, n int) outcome
	// exactPasses is the number of leading passes whose ops give the
	// exact metrics (always run, whatever --seconds says).
	exactPasses int
	// rerunExact is set when ops of later passes get new inputs, so the
	// determinism guard must run the exact passes again.
	rerunExact bool
	// itemPercentiles takes the op-time percentiles over each item's
	// median op time instead of over single ops. Spec ops differ 60x in
	// length, so a percentile of single ops falls on the boundary between
	// two programs, and its p99 is the slowest program's slowest op.
	itemPercentiles bool
}

var workloads = map[string]*workload{
	"spec": {
		items:           specItems,
		op:              specOp,
		exactPasses:     1,
		itemPercentiles: true,
	},
	"serve": {
		items: serveItems,
		op:    serveOp,
		// Each pass draws new traffic, and one pass's cycle ratios swing
		// by a few percent with the draw; 128 passes average that out.
		exactPasses: 128,
		rerunExact:  true,
	},
	"build": {
		items:       buildItems,
		op:          buildOp,
		exactPasses: 1,
	},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ---- spec ----

//go:embed spec_checksums.json
var specChecksumsJSON []byte

// specChecksums holds the expected output of every SPEC-like kernel, for
// the full ("full") and reduced ("short") inputs. The kernels print one
// checksum that must not depend on the variant.
type specChecksums struct {
	Full  map[string]int64 `json:"full"`
	Short map[string]int64 `json:"short"`
}

func loadSpecChecksums(short bool) (map[string]int64, error) {
	var c specChecksums
	if err := json.Unmarshal(specChecksumsJSON, &c); err != nil {
		return nil, fmt.Errorf("spec_checksums.json: %w", err)
	}
	if short {
		return c.Short, nil
	}
	return c.Full, nil
}

func specItems(short bool) []*item {
	var items []*item
	for _, k := range bench.SPECKernels() {
		wl := bench.SPECWorkload(k, k.EffectiveParams(short))
		for _, v := range variants {
			items = append(items, &item{prog: k.Name, variant: v, program: wl.Prog(v),
				params: k.EffectiveParams(short)})
		}
	}
	return items
}

func specOp(r *runner, it *item, pass, n int) outcome {
	w := confllvm.NewWorld()
	w.Params = it.params
	o, res := r.execute(it, w)
	o.key = it.prog + "/" + it.variant.String()
	if o.err == nil {
		want, ok := r.checksums[it.prog]
		switch {
		case !ok:
			o.err = fmt.Errorf("no expected checksum for %s", it.prog)
		case len(res.Outputs) != 1 || res.Outputs[0] != want:
			o.err = fmt.Errorf("%s [%v]: outputs %v, want [%d]", it.prog, it.variant, res.Outputs, want)
		}
	}
	return o
}

// ---- serve ----

func serveItems(short bool) []*item {
	specs := []scenario.Spec{scenario.DefaultKV(short), scenario.DefaultTLSH(short), scenario.DefaultMerkleFS(short)}
	var items []*item
	for f, s := range specs {
		wl := bench.ScenarioWorkload(s)
		for _, v := range variants {
			items = append(items, &item{prog: s.Workload, family: f, variant: v,
				program: wl.Prog(v), scen: s})
		}
	}
	return items
}

// serveTraffic is the scenario of one serve op: every variant of a family
// gets the same fresh traffic in a pass, so per-pass cycle ratios compare
// like with like.
func serveTraffic(it *item, seed uint64, pass int) scenario.Spec {
	s := it.scen
	s.Seed = scenario.MixSeed(seed, uint64(pass), uint64(it.family))
	return s
}

func serveOp(r *runner, it *item, pass, n int) outcome {
	key := fmt.Sprintf("%s/%v/%d", it.prog, it.variant, pass)
	t := r.tracer()
	if t != nil {
		t.begin("scenario")
	}
	wire, expect, err := scenario.Traffic(serveTraffic(it, r.cfg.seed, pass))
	if t != nil {
		t.end()
	}
	if err != nil {
		return outcome{err: err, key: key}
	}
	w := confllvm.NewWorld()
	w.Params = []int64{int64(len(wire))}
	w.NetIn = wire
	o, res := r.execute(it, w)
	o.key = key
	if o.err == nil && fmt.Sprint(res.Outputs) != fmt.Sprint(expect) {
		o.err = fmt.Errorf("%s [%v] pass %d: outputs %v, generator predicted %v",
			it.prog, it.variant, pass, res.Outputs, expect)
	}
	return o
}

// execute is the op of spec and serve: one Prepare plus Finish on a fresh
// machine, timed, then checked for a clean exit.
func (r *runner) execute(it *item, w *confllvm.World) (outcome, *confllvm.Result) {
	var res *confllvm.Result
	var err error
	t := r.tracer()
	var o outcome
	o.ns = r.clock(func() {
		if t != nil {
			res, err = tracedRun(t, it.art, w)
			return
		}
		var p *confllvm.Prepared
		if p, err = confllvm.Prepare(it.art, w, nil); err == nil {
			res = p.Finish()
		}
	})
	switch {
	case err != nil:
		o.err = fmt.Errorf("%s [%v]: %w", it.prog, it.variant, err)
	case res.Fault != nil:
		o.err = fmt.Errorf("%s [%v]: %v", it.prog, it.variant, res.Fault)
	case res.ExitCode != 0:
		o.err = fmt.Errorf("%s [%v]: exit code %d", it.prog, it.variant, res.ExitCode)
	}
	if err != nil {
		return o, res
	}
	o.stats = res.Stats
	o.instrs = res.Stats.Instrs
	o.cost = res.WallCycles
	o.fp = resultDigest(res)
	return o, res
}

// resultDigest covers every observable and simulated quantity of a run.
func resultDigest(res *confllvm.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "exit=%d fault=%v outputs=%v stats=%+v wall=%d\n",
		res.ExitCode, res.Fault, res.Outputs, res.Stats, res.WallCycles)
	for _, p := range res.NetOut {
		writeBytes(h, p)
	}
	writeBytes(h, res.Log)
	return hex.EncodeToString(h.Sum(nil))
}

// ---- build ----

func buildItems(short bool) []*item {
	var items []*item
	for _, wl := range bench.Workloads(short) {
		for _, v := range variants {
			items = append(items, &item{prog: wl.Name, variant: v, program: wl.Prog(v)})
		}
	}
	return items
}

func buildOp(r *runner, it *item, pass, n int) outcome {
	t := r.tracer()
	o := outcome{key: it.prog + "/" + it.variant.String()}
	var art *confllvm.Artifact
	var vs verify.Stats
	var cerr, verr, merr error
	var mut *verifymut.Mutant
	if len(it.mutants) > 0 {
		mut = it.mutants[splitmix64(scenario.MixSeed(r.cfg.seed, uint64(n)))%uint64(len(it.mutants))]
	}
	o.ns = r.clock(func() {
		if t != nil {
			art, o.counts, cerr = tracedCompile(t, it.program, it.variant)
		} else {
			art, cerr = confllvm.Compile(it.program, it.variant)
		}
		if cerr != nil || mut == nil {
			return
		}
		if t != nil {
			vs, verr = tracedVerify(t, art)
		} else {
			verr = confllvm.Verify(art)
		}
		if verr != nil {
			return
		}
		bad := &confllvm.Artifact{Image: mut.Image, Variant: art.Variant, Strict: art.Strict}
		if t != nil {
			_, merr = tracedVerify(t, bad)
		} else {
			merr = confllvm.Verify(bad)
		}
	})
	switch {
	case cerr != nil:
		o.err = fmt.Errorf("compile %s [%v]: %w", it.prog, it.variant, cerr)
		return o
	case verr != nil:
		o.err = fmt.Errorf("verify %s [%v] rejected a compiled image: %w", it.prog, it.variant, verr)
		return o
	}
	if mut != nil {
		o.mutTried = 1
		if merr != nil {
			o.mutRejected = 1
		} else {
			o.err = fmt.Errorf("verify %s [%v] accepted mutant %s", it.prog, it.variant, mut.Name)
		}
	}
	o.instrs = uint64(it.insts)
	o.cost = uint64(len(art.Image.Code))
	o.fp = imageDigest(art.Image)
	if t != nil && mut != nil {
		o.fp += fmt.Sprintf(" verify=%+v", vs)
	} else if mut != nil {
		// Untraced Verify returns no counters; the set-up's stand in, so
		// traced and untraced ops of an item share one fingerprint.
		o.fp += fmt.Sprintf(" verify=%+v", it.vstats)
	}
	return o
}

// imageInsts counts the machine instructions of a linked image (magic
// words are data, alignment nops count).
func imageInsts(img *link.Image) (int, error) {
	magic := img.MagicOffsets()
	n := 0
	for off := 0; off < len(img.Code); {
		if magic[off] {
			off += 8
			continue
		}
		_, sz, err := asm.Decode(img.Code, off)
		if err != nil {
			return 0, err
		}
		off += sz
		n++
	}
	return n, nil
}

// ---- shared set-up ----

// setup compiles every item with confllvm.Compile and gate-verifies each
// verifiable image with the public verifier, as a deployment does before
// loading. For build it also prepares the mutants the ops must reject.
func setup(r *runner, items []*item) error {
	for i, it := range items {
		art, err := confllvm.Compile(it.program, it.variant)
		if err != nil {
			return fmt.Errorf("set-up: compile %s [%v]: %w", it.prog, it.variant, err)
		}
		it.art = art
		it.digest = imageDigest(art.Image)
		if art.Verifiable() {
			if it.vstats, err = confllvm.VerifyArtifact(art, verify.Options{}); err != nil {
				return fmt.Errorf("set-up: verify-before-load gate rejected %s [%v]: %w", it.prog, it.variant, err)
			}
		}
		if r.cfg.workload != "build" {
			continue
		}
		if it.insts, err = imageInsts(art.Image); err != nil {
			return fmt.Errorf("set-up: decode %s [%v]: %w", it.prog, it.variant, err)
		}
		if art.Verifiable() {
			it.mutants = verifymut.Generate(art.Image, scenario.MixSeed(r.cfg.seed, uint64(i)))
			if len(it.mutants) == 0 {
				return fmt.Errorf("set-up: no mutant applies to %s [%v]", it.prog, it.variant)
			}
		}
	}
	return nil
}

// tracedSetup compiles and verifies every item again stage by stage under
// set-up spans, and checks each image is byte-identical to the one
// confllvm.Compile produced.
func tracedSetup(r *runner) error {
	t := r.tr
	for _, it := range r.items {
		art, c, err := tracedCompile(t, it.program, it.variant)
		if err != nil {
			return fmt.Errorf("traced set-up: compile %s [%v]: %w", it.prog, it.variant, err)
		}
		r.compiles = append(r.compiles, c)
		if d := imageDigest(art.Image); d != it.digest {
			return fmt.Errorf("traced compile of %s [%v] differs from confllvm.Compile", it.prog, it.variant)
		}
		if art.Verifiable() {
			vs, err := tracedVerify(t, art)
			if err != nil {
				return fmt.Errorf("traced set-up: verify %s [%v]: %w", it.prog, it.variant, err)
			}
			if vs != it.vstats {
				return fmt.Errorf("traced verify of %s [%v]: stats %+v, confllvm.VerifyArtifact gave %+v",
					it.prog, it.variant, vs, it.vstats)
			}
		}
	}
	return nil
}

// imageDigest covers every field of a linked image in a fixed order (the
// gob encoding of link.Image.Save iterates maps, so it is not canonical).
func imageDigest(img *link.Image) string {
	h := sha256.New()
	writeBytes(h, img.Code)
	writeBytes(h, img.PubData)
	writeBytes(h, img.PrivData)
	for _, f := range img.Funcs {
		fmt.Fprintf(h, "%+v\n", *f)
	}
	syms := make([]string, 0, len(img.Symbols))
	for s := range img.Symbols {
		syms = append(syms, s)
	}
	sort.Strings(syms)
	for _, s := range syms {
		fmt.Fprintf(h, "%s=%d\n", s, img.Symbols[s])
	}
	offs := make([]int, 0, len(img.MagicOffsets()))
	for off := range img.MagicOffsets() {
		offs = append(offs, off)
	}
	sort.Ints(offs)
	fmt.Fprintf(h, "ext=%v mcall=%d mret=%d shim=%v layout=%+v config=%+v magic=%v\n",
		img.Externals, img.MCallPrefix, img.MRetPrefix, img.ExitShim, img.Layout, img.Config, offs)
	return hex.EncodeToString(h.Sum(nil))
}

func writeBytes(h hash.Hash, b []byte) {
	fmt.Fprintf(h, "%d:", len(b))
	h.Write(b)
}
