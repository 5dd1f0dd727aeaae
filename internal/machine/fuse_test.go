package machine

import (
	"fmt"
	"testing"

	"confllvm/internal/asm"
)

// White-box tests for superinstruction fusion (fuse.go) and its
// interaction with fuel bites, faults, Step's short runs, and trusted
// handler registration. The black-box stepping-vs-superblock diff lives
// in diff_test.go; here we pin the fusion mechanics themselves: which
// idioms match, what the fused slot program looks like, and that every
// event landing inside a fused slot de-fuses bit-exactly (runParity in
// superblock_test.go compares each against stepping).

// idiomLoop builds a countdown loop whose body contains the given
// instructions followed by the sub/cmp/jcc tail, iterating iters times.
func idiomLoop(body []asm.Inst, iters int64) []asm.Inst {
	pre := []asm.Inst{
		{Op: asm.OpMovRI, Dst: asm.RBX, Imm: 0x100100},
		{Op: asm.OpMovRI, Dst: asm.RCX, Imm: iters},
	}
	loopStart := int64(0x1000)
	for _, in := range pre {
		loopStart += encodeLen(in)
	}
	insts := append(pre, body...)
	return append(insts,
		asm.Inst{Op: asm.OpSubRI, Dst: asm.RCX, Imm: 1},
		asm.Inst{Op: asm.OpCmpRI, Dst: asm.RCX, Imm: 0},
		asm.Inst{Op: asm.OpJcc, Cond: asm.CondNE, Imm: loopStart},
	)
}

// fuseProgram is one bite-matrix workload: a loop whose body exercises a
// set of fused idioms. bodyLen counts the loop body's constituents
// (body + the 3-instruction tail) so the fuel sweep can be sized to land
// a bite on every constituent position across two iterations.
type fuseProgram struct {
	name  string
	body  []asm.Inst
	setup func(*Thread)
}

func fusePrograms() []fuseProgram {
	wideBnd := func(th *Thread) {
		th.Bnd[asm.BND0] = BndRange{Lo: 0x100000, Hi: 0x10FFFF}
	}
	return []fuseProgram{
		// The tail alone: sub/cmp/jcc loop head (fkAluCmpJcc).
		{name: "alu-cmp-jcc", body: []asm.Inst{
			{Op: asm.OpAddRI, Dst: asm.RAX, Imm: 1},
		}},
		// A bare cmp/jcc pair: it opens the loop-body block (nothing
		// packable precedes it inside the block), so it fuses as
		// fkCmpJcc rather than being absorbed into an ALU-pack head.
		{name: "cmp-jcc", body: []asm.Inst{
			{Op: asm.OpCmpRI, Dst: asm.RDX, Imm: 1 << 40},
			{Op: asm.OpJcc, Cond: asm.CondE, Imm: 0x1000}, // never taken
		}},
		// A standalone ALU pack broken off from the tail by a load.
		{name: "alu-pack", body: []asm.Inst{
			{Op: asm.OpMovRI, Dst: asm.RAX, Imm: 7},
			{Op: asm.OpXorRR, Dst: asm.RDX, Src: asm.RAX},
			{Op: asm.OpShlRI, Dst: asm.RAX, Imm: 1},
			{Op: asm.OpLoad, Dst: asm.RSI, M: asm.Mem{Base: asm.RBX, Index: asm.NoReg, Size: 8}},
		}},
		// load/alu/store read-modify-write triple (fkLoadOpStore).
		{name: "load-op-store", body: []asm.Inst{
			{Op: asm.OpLoad, Dst: asm.RAX, M: asm.Mem{Base: asm.RBX, Index: asm.NoReg, Size: 8}},
			{Op: asm.OpAddRI, Dst: asm.RAX, Imm: 7},
			{Op: asm.OpStore, M: asm.Mem{Base: asm.RBX, Index: asm.NoReg, Size: 8}, Src: asm.RAX},
		}},
		// MPX check+load and check+store pairs (fkChkLoad, fkChkStore).
		{name: "chk-load-store", setup: wideBnd, body: []asm.Inst{
			{Op: asm.OpBndCLReg, Src: asm.RBX, Bnd: asm.BND0},
			{Op: asm.OpLoad, Dst: asm.RAX, M: asm.Mem{Base: asm.RBX, Index: asm.NoReg, Size: 8}},
			{Op: asm.OpAddRI, Dst: asm.RAX, Imm: 1},
			{Op: asm.OpBndCUReg, Src: asm.RBX, Bnd: asm.BND0},
			{Op: asm.OpStore, M: asm.Mem{Base: asm.RBX, Index: asm.NoReg, Size: 8}, Src: asm.RAX},
		}},
	}
}

// TestFuseBiteMatrix lands fuel bites on every constituent position of
// every fused idiom, against stepping. Fuels 1..2*body+4 cut at
// each slot across the first two loop iterations (including both bite
// positions strictly inside each fused slot); the quantum-straddling
// fuels catch bites induced by scheduling boundaries deep into the run.
func TestFuseBiteMatrix(t *testing.T) {
	for _, p := range fusePrograms() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			insts := idiomLoop(p.body, 1<<40) // effectively infinite: every run fuel-faults
			sweep := 2*(len(p.body)+3) + 4
			fuels := make([]uint64, 0, sweep+4)
			for f := 1; f <= sweep; f++ {
				fuels = append(fuels, uint64(f))
			}
			fuels = append(fuels, 1023, 1024, 1025, 4097)
			for _, fuel := range fuels {
				runParity(t, insts, fuel, p.setup)
			}
		})
	}
}

// TestFuseCompletionParity runs each idiom loop to completion (no fuel
// cut) under stepping and superblocks, and asserts — white-box — that
// superblock dispatch actually executed fused slots (the parity sweep
// must not pass vacuously with fusion never engaging).
func TestFuseCompletionParity(t *testing.T) {
	for _, p := range fusePrograms() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			insts := idiomLoop(p.body, 64)
			_, th := runParity(t, insts, 0, p.setup)
			if th.Fault != nil {
				t.Fatal(th.Fault)
			}
			if th.Stats.FusedSlots == 0 {
				t.Fatalf("%s: superblock dispatch executed no fused slots — the parity check is vacuous", p.name)
			}
		})
	}
}

// TestFuseFaultInsideIdiom places a fault on each faultable constituent
// of each fused idiom — the load, the store, and the bound check — and
// requires the fault's kind, address, PC, message, and all partial state
// to match per-instruction stepping; fused dispatch must record the
// de-fuse.
func TestFuseFaultInsideIdiom(t *testing.T) {
	wideBnd := func(th *Thread) {
		th.Bnd[asm.BND0] = BndRange{Lo: 0, Hi: ^uint64(0)}
	}
	narrowBnd := func(th *Thread) {
		th.Bnd[asm.BND0] = BndRange{Lo: 0x100000, Hi: 0x100010}
	}
	cases := []struct {
		name  string
		insts []asm.Inst
		setup func(*Thread)
		kind  FaultKind
	}{
		// load/alu/store: fault on constituent 0 (the load).
		{name: "rmw-load-faults", kind: FaultUnmapped, insts: []asm.Inst{
			{Op: asm.OpMovRI, Dst: asm.RBX, Imm: 0x500000}, // unmapped
			{Op: asm.OpLoad, Dst: asm.RAX, M: asm.Mem{Base: asm.RBX, Index: asm.NoReg, Size: 8}},
			{Op: asm.OpAddRI, Dst: asm.RAX, Imm: 1},
			{Op: asm.OpStore, M: asm.Mem{Base: asm.RBX, Index: asm.NoReg, Size: 8}, Src: asm.RAX},
		}},
		// load/alu/store: fault on constituent 2 (the store) — the load
		// and alu results must be retained in the partial state.
		{name: "rmw-store-faults", kind: FaultUnmapped, insts: []asm.Inst{
			{Op: asm.OpMovRI, Dst: asm.RBX, Imm: 0x100100},
			{Op: asm.OpMovRI, Dst: asm.RDX, Imm: 0x500000}, // unmapped
			{Op: asm.OpLoad, Dst: asm.RAX, M: asm.Mem{Base: asm.RBX, Index: asm.NoReg, Size: 8}},
			{Op: asm.OpAddRI, Dst: asm.RAX, Imm: 1},
			{Op: asm.OpStore, M: asm.Mem{Base: asm.RDX, Index: asm.NoReg, Size: 8}, Src: asm.RAX},
		}},
		// chk+load: fault on constituent 0 (the bound check itself).
		{name: "chk-faults", kind: FaultBounds, setup: narrowBnd, insts: []asm.Inst{
			{Op: asm.OpMovRI, Dst: asm.RBX, Imm: 0x100030}, // above bnd0.upper
			{Op: asm.OpBndCUReg, Src: asm.RBX, Bnd: asm.BND0},
			{Op: asm.OpLoad, Dst: asm.RAX, M: asm.Mem{Base: asm.RBX, Index: asm.NoReg, Size: 8}},
		}},
		// chk+load: check passes, fault on constituent 1 (the load).
		{name: "chk-load-faults", kind: FaultUnmapped, setup: wideBnd, insts: []asm.Inst{
			{Op: asm.OpMovRI, Dst: asm.RBX, Imm: 0x500000},
			{Op: asm.OpBndCLReg, Src: asm.RBX, Bnd: asm.BND0},
			{Op: asm.OpLoad, Dst: asm.RAX, M: asm.Mem{Base: asm.RBX, Index: asm.NoReg, Size: 8}},
		}},
		// chk+store: check passes, fault on constituent 1 (the store).
		{name: "chk-store-faults", kind: FaultUnmapped, setup: wideBnd, insts: []asm.Inst{
			{Op: asm.OpMovRI, Dst: asm.RBX, Imm: 0x500000},
			{Op: asm.OpBndCLReg, Src: asm.RBX, Bnd: asm.BND0},
			{Op: asm.OpStore, M: asm.Mem{Base: asm.RBX, Index: asm.NoReg, Size: 8}, Src: asm.RAX},
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			// White-box: fused dispatch must (a) fault with the expected
			// kind and (b) account the interior fault as a de-fuse.
			_, th := runParity(t, tc.insts, 0, tc.setup)
			if f := th.Fault; f == nil || f.Kind != tc.kind {
				t.Fatalf("want %v fault under superblock dispatch, got %v", tc.kind, f)
			}
			if tc.name != "chk-faults" && th.Stats.Defuses == 0 {
				t.Fatal("interior fault did not bump Stats.Defuses")
			}
		})
	}
}

// TestFuseSlotProgram pins the fused slot program itself: bases, lengths,
// kinds, summed costs, and the singleton interleaving.
func TestFuseSlotProgram(t *testing.T) {
	// mov / mov | bndcl+load | add-singleton | bndcu+store | sub+cmp+jcc
	insts := idiomLoop([]asm.Inst{
		{Op: asm.OpBndCLReg, Src: asm.RBX, Bnd: asm.BND0},
		{Op: asm.OpLoad, Dst: asm.RAX, M: asm.Mem{Base: asm.RBX, Index: asm.NoReg, Size: 8}},
		{Op: asm.OpAddRI, Dst: asm.RAX, Imm: 1},
		{Op: asm.OpBndCUReg, Src: asm.RBX, Bnd: asm.BND0},
		{Op: asm.OpStore, M: asm.Mem{Base: asm.RBX, Index: asm.NoReg, Size: 8}, Src: asm.RAX},
	}, 4)
	m, th := buildFor(t, DefaultConfig(), insts)
	th.Bnd[asm.BND0] = BndRange{Lo: 0x100000, Hi: 0x10FFFF}
	if f := m.Run(); f != nil {
		t.Fatal(f)
	}

	// The loop body starts after the two mov prologue instructions.
	var loopStart uint64 = 0x1000
	loopStart += uint64(encodeLen(insts[0]) + encodeLen(insts[1]))
	tr := m.traces[0]
	run := tr.runs[loopStart-tr.lo]
	if run == nil || run.xinsts == nil {
		t.Fatalf("loop body run not fused: %+v", run)
	}
	// 8 constituents → chk+load, add, chk+store, sub+cmp+jcc = 4 slots.
	if len(run.xinsts) != 4 || len(run.fused) != 3 {
		t.Fatalf("slot program: %d slots / %d fused, want 4 / 3", len(run.xinsts), len(run.fused))
	}
	wants := []struct {
		kind fuseKind
		base int
		n    int
	}{
		{fkChkLoad, 0, 2},
		{fkChkStore, 3, 2},
		{fkAluCmpJcc, 5, 3},
	}
	for i, w := range wants {
		fs := &run.fused[i]
		if fs.kind != w.kind || fs.base != w.base || len(fs.insts) != w.n {
			t.Fatalf("fused[%d] = kind %d base %d len %d, want %+v", i, fs.kind, fs.base, len(fs.insts), w)
		}
		if len(fs.pcs) != w.n+1 {
			t.Fatalf("fused[%d] has %d PCs, want %d", i, len(fs.pcs), w.n+1)
		}
		if fs.cost != run.cum[w.base+w.n]-run.cum[w.base] {
			t.Fatalf("fused[%d] cost %d does not cover its cum span", i, fs.cost)
		}
	}
	if run.xinsts[1].Op != asm.OpAddRI {
		t.Fatalf("singleton slot 1 is %v, want the interleaved add", run.xinsts[1].Op)
	}
	// The bite-boundary probe: boundaries inside each pair/triple split,
	// boundaries between slots do not.
	for nb, want := range map[int]bool{1: true, 2: false, 3: false, 4: true, 5: false, 6: true, 7: true, 8: false} {
		if got := run.splitsFused(nb); got != want {
			t.Fatalf("splitsFused(%d) = %v, want %v", nb, got, want)
		}
	}
}

// TestFuseMatchIdiom pins the matcher's accept and reject sets.
func TestFuseMatchIdiom(t *testing.T) {
	ld := asm.Inst{Op: asm.OpLoad, Dst: asm.RAX, M: asm.Mem{Base: asm.RBX, Index: asm.NoReg, Size: 8}}
	st := asm.Inst{Op: asm.OpStore, M: asm.Mem{Base: asm.RBX, Index: asm.NoReg, Size: 8}, Src: asm.RAX}
	cases := []struct {
		name  string
		insts []asm.Inst
		kind  fuseKind
		ln    int
	}{
		{"sub-cmp-jcc", []asm.Inst{
			{Op: asm.OpSubRI, Dst: asm.RCX, Imm: 1},
			{Op: asm.OpCmpRI, Dst: asm.RCX, Imm: 0},
			{Op: asm.OpJcc, Cond: asm.CondNE, Imm: 0x1000},
		}, fkAluCmpJcc, 3},
		{"add-cmp-jcc-rr", []asm.Inst{
			{Op: asm.OpAddRR, Dst: asm.RCX, Src: asm.RDX},
			{Op: asm.OpCmpRR, Dst: asm.RCX, Src: asm.RSI},
			{Op: asm.OpJcc, Cond: asm.CondL, Imm: 0x1000},
		}, fkAluCmpJcc, 3},
		{"cmp-jcc", []asm.Inst{
			{Op: asm.OpCmpRI, Dst: asm.RCX, Imm: 0},
			{Op: asm.OpJcc, Cond: asm.CondNE, Imm: 0x1000},
		}, fkCmpJcc, 2},
		{"pack-cmp-jcc", []asm.Inst{
			{Op: asm.OpMovRI, Dst: asm.RAX, Imm: 7},
			{Op: asm.OpXorRR, Dst: asm.RDX, Src: asm.RAX},
			{Op: asm.OpSubRI, Dst: asm.RCX, Imm: 1},
			{Op: asm.OpCmpRI, Dst: asm.RCX, Imm: 0},
			{Op: asm.OpJcc, Cond: asm.CondNE, Imm: 0x1000},
		}, fkAluCmpJcc, 5},
		{"alu-pack", []asm.Inst{
			{Op: asm.OpMovRR, Dst: asm.RBX, Src: asm.RAX},
			{Op: asm.OpShlRI, Dst: asm.RBX, Imm: 2},
			ld,
		}, fkAluPack, 2},
		{"load-add-store", []asm.Inst{ld, {Op: asm.OpAddRI, Dst: asm.RAX, Imm: 1}, st}, fkLoadOpStore, 3},
		{"load-shl-store", []asm.Inst{ld, {Op: asm.OpShlRI, Dst: asm.RAX, Imm: 3}, st}, fkLoadOpStore, 3},
		{"chk-load", []asm.Inst{{Op: asm.OpBndCLReg, Src: asm.RBX, Bnd: asm.BND0}, ld}, fkChkLoad, 2},
		{"chk-store", []asm.Inst{{Op: asm.OpBndCUReg, Src: asm.RBX, Bnd: asm.BND0}, st}, fkChkStore, 2},
		// Rejections: faultable or flag-clobbering constituents.
		{"div-not-fusable", []asm.Inst{ld, {Op: asm.OpDivRR, Dst: asm.RAX, Src: asm.RDX}, st}, 0, 0},
		{"cmp-mem-not-fusable", []asm.Inst{
			{Op: asm.OpCmpMR, M: asm.Mem{Base: asm.RBX, Index: asm.NoReg, Size: 8}, Src: asm.RAX},
			{Op: asm.OpJcc, Cond: asm.CondNE, Imm: 0x1000},
		}, 0, 0},
		{"lone-cmp", []asm.Inst{{Op: asm.OpCmpRI, Dst: asm.RCX, Imm: 0}}, 0, 0},
		{"load-store-no-alu", []asm.Inst{ld, st}, 0, 0},
		{"lone-alu-no-pack", []asm.Inst{{Op: asm.OpAddRI, Dst: asm.RAX, Imm: 1}, ld}, 0, 0},
	}
	for _, tc := range cases {
		kind, ln := matchIdiom(tc.insts, 0, len(tc.insts))
		if kind != tc.kind || ln != tc.ln {
			t.Errorf("%s: matchIdiom = (%d, %d), want (%d, %d)", tc.name, kind, ln, tc.kind, tc.ln)
		}
	}
}

// TestStepNeverCachesFusedSlots: Step's one-slot builds must never carry
// a fused program (fuseRun requires two constituents),
// and block dispatch must rebuild them at full length WITH fusion — so a
// prior Step at a hot PC cannot silently disable fusion there.
func TestStepNeverCachesFusedSlots(t *testing.T) {
	pre := []asm.Inst{{Op: asm.OpMovRI, Dst: asm.RCX, Imm: 200}}
	loopStart := int64(0x1000) + encodeLen(pre[0])
	insts := append(pre,
		asm.Inst{Op: asm.OpAddRI, Dst: asm.RAX, Imm: 1},
		asm.Inst{Op: asm.OpSubRI, Dst: asm.RCX, Imm: 1},
		asm.Inst{Op: asm.OpCmpRI, Dst: asm.RCX, Imm: 0},
		asm.Inst{Op: asm.OpJcc, Cond: asm.CondNE, Imm: loopStart},
	)
	m, th := buildFor(t, DefaultConfig(), insts)

	for i := 0; i < 3; i++ {
		if f := th.Step(); f != nil {
			t.Fatal(f)
		}
	}
	tr := m.traces[0]
	off := uint64(loopStart) - tr.lo
	run := tr.runs[off]
	if run == nil || !run.short || run.n != 1 {
		t.Fatalf("expected a cached one-slot short run at the loop head, got %+v", run)
	}
	if run.xinsts != nil || run.fused != nil {
		t.Fatalf("Step cached a fused slot program on a one-slot run: %+v", run)
	}

	if f := m.Run(); f != nil {
		t.Fatal(f)
	}
	run = tr.runs[off]
	if run == nil || run.short || run.n < 4 {
		t.Fatalf("block dispatch did not rebuild the short run at full length: %+v", run)
	}
	if run.xinsts == nil || len(run.fused) == 0 {
		t.Fatal("rebuilt run was not fused — a prior Step disabled fusion at a hot PC")
	}
	if th.Regs[asm.RAX] != 200 {
		t.Fatalf("loop computed %d, want 200", th.Regs[asm.RAX])
	}
}

// TestHandlerRegistrationInsideFusedIdiom: a trusted handler registered
// mid-run at the PC of an interior constituent of a fused idiom (the cmp
// of a fused sub/cmp/jcc loop head) must flush and de-fuse the block so
// the handler is dispatched — under stepping and superblocks, with
// identical state.
func TestHandlerRegistrationInsideFusedIdiom(t *testing.T) {
	subLen := encodeLen(asm.Inst{Op: asm.OpSubRI, Dst: asm.RCX, Imm: 1})
	cmpLen := encodeLen(asm.Inst{Op: asm.OpCmpRI, Dst: asm.RCX, Imm: 0})
	mk := func(conf Config) (*Machine, *Thread) {
		calls := 0
		return chainLoopWithHandler(t, conf, 8,
			func(addPC, skipPC uint64) Handler {
				// skipPC is the sub's PC: the fused triple is sub/cmp/jcc.
				cmpPC := skipPC + uint64(subLen)
				jccPC := cmpPC + uint64(cmpLen)
				return func(m *Machine, t *Thread) *Fault {
					ret, f := t.Pop()
					if f != nil {
						return f
					}
					t.PC = ret
					calls++
					if calls == 4 {
						// Registers INSIDE the fused sub/cmp/jcc slot: the
						// rebuilt blocks must stop before cmpPC, so the pair
						// can no longer fuse and the handler is probed.
						m.Handlers[cmpPC] = func(m *Machine, t *Thread) *Fault {
							t.Regs[asm.RDX]++
							t.setCmpFlags(t.Regs[asm.RCX], 0)
							t.PC = jccPC
							return nil
						}
					}
					return nil
				}
			})
	}
	confA := DefaultConfig()
	confA.Superblocks = false
	mA, thA := mk(confA)
	if f := mA.Run(); f != nil {
		t.Fatal(f)
	}
	// 8 iterations of the add; the cmp handler shadows the cmp from
	// iteration 4 on (5 dispatches).
	if thA.Regs[asm.RAX] != 8 || thA.Regs[asm.RDX] != 5 {
		t.Fatalf("stepwise rax/rdx = %d/%d, want 8/5", thA.Regs[asm.RAX], thA.Regs[asm.RDX])
	}
	mB, thB := mk(DefaultConfig())
	if f := mB.Run(); f != nil {
		t.Fatal(f)
	}
	if thA.Regs != thB.Regs || thA.Stats.Arch() != thB.Stats.Arch() || thA.PC != thB.PC {
		t.Fatalf("state mismatch after handler registration inside a fused idiom:\nstepwise:   %+v\nsuperblock: %+v",
			thA.Stats, thB.Stats)
	}
}

// TestFusedModesProfileString is a cheap guard that the synthetic opcodes
// never leak into user-visible space: they must stay above every real
// opcode and map onto distinct values.
func TestFuseSyntheticOpcodeSpace(t *testing.T) {
	ops := []asm.Op{opFuseAluCmpJcc, opFuseCmpJcc, opFuseLoadOpStore, opFuseChkLoad, opFuseChkStore, opFuseAluPack}
	seen := map[asm.Op]bool{}
	for i, op := range ops {
		if op <= asm.OpNop {
			t.Fatalf("synthetic opcode %d collides with the real opcode space", op)
		}
		if seen[op] {
			t.Fatalf("synthetic opcode %d duplicated", op)
		}
		seen[op] = true
		if got := fuseOpFor(fuseKind(i)); got != op {
			t.Fatalf("fuseOpFor(%d) = %v, want %v", i, got, op)
		}
	}
	_ = fmt.Sprintf("%v", ops) // opcode stringer must not panic on synthetic values
}
