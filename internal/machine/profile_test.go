package machine

import (
	"testing"

	"confllvm/internal/asm"
)

// profFusedLoop is the BenchmarkRun loop body: its ALU run packs and
// its sub/cmp/jcc tail fuses, so block dispatch executes it through
// fused slots.
var profFusedLoop = []asm.Inst{
	{Op: asm.OpMovRI, Dst: asm.RAX, Imm: 7},
	{Op: asm.OpAddRI, Dst: asm.RAX, Imm: 3},
	{Op: asm.OpMovRR, Dst: asm.RBX, Src: asm.RAX},
	{Op: asm.OpXorRR, Dst: asm.RDX, Src: asm.RBX},
	{Op: asm.OpMulRR, Dst: asm.RBX, Src: asm.RAX},
	{Op: asm.OpStore, M: asm.Mem{Base: asm.RDI, Index: asm.NoReg, Size: 8, Disp: 0x100000}, Src: asm.RBX},
	{Op: asm.OpLoad, Dst: asm.RSI, M: asm.Mem{Base: asm.RDI, Index: asm.NoReg, Size: 8, Disp: 0x100000}},
	{Op: asm.OpSubRI, Dst: asm.RCX, Imm: 1},
	{Op: asm.OpCmpRI, Dst: asm.RCX, Imm: 0},
}

// profPlainLoop does the same work with no fusable idiom: stores keep
// register ops apart (the preceding counter move included), no load
// feeds an ALU op, and a load separates the cmp from the jcc (loads
// leave the flags alone), so block dispatch executes every constituent
// through its own slot.
var profPlainLoop = []asm.Inst{
	{Op: asm.OpStore, M: asm.Mem{Base: asm.RDI, Index: asm.NoReg, Size: 8, Disp: 0x100008}, Src: asm.RCX},
	{Op: asm.OpMovRI, Dst: asm.RAX, Imm: 7},
	{Op: asm.OpStore, M: asm.Mem{Base: asm.RDI, Index: asm.NoReg, Size: 8, Disp: 0x100010}, Src: asm.RAX},
	{Op: asm.OpAddRI, Dst: asm.RAX, Imm: 3},
	{Op: asm.OpStore, M: asm.Mem{Base: asm.RDI, Index: asm.NoReg, Size: 8, Disp: 0x100018}, Src: asm.RAX},
	{Op: asm.OpMulRR, Dst: asm.RBX, Src: asm.RAX},
	{Op: asm.OpStore, M: asm.Mem{Base: asm.RDI, Index: asm.NoReg, Size: 8, Disp: 0x100000}, Src: asm.RBX},
	{Op: asm.OpSubRI, Dst: asm.RCX, Imm: 1},
	{Op: asm.OpLoad, Dst: asm.RSI, M: asm.Mem{Base: asm.RDI, Index: asm.NoReg, Size: 8, Disp: 0x100000}},
	{Op: asm.OpCmpRI, Dst: asm.RCX, Imm: 0},
	{Op: asm.OpLoad, Dst: asm.RDX, M: asm.Mem{Base: asm.RDI, Index: asm.NoReg, Size: 8, Disp: 0x100008}},
}

// profLoopMachine builds a loop program (iters iterations of body, then
// exit) on a machine with the given config, optionally appending extra
// instructions after the loop in place of the exit.
func profLoopMachine(t *testing.T, conf Config, body []asm.Inst, iters int64, tail []asm.Inst) (*Machine, *Thread) {
	t.Helper()
	m := New(conf)
	var code []byte
	code = asm.Encode(code, asm.Inst{Op: asm.OpMovRI, Dst: asm.RCX, Imm: iters})
	loopStart := 0x1000 + uint64(len(code))
	for _, in := range body {
		code = asm.Encode(code, in)
	}
	code = asm.Encode(code, asm.Inst{Op: asm.OpJcc, Cond: asm.CondNE, Imm: int64(loopStart)})
	for _, in := range tail {
		code = asm.Encode(code, in)
	}
	code = asm.Encode(code, asm.Inst{Op: asm.OpExit})
	if _, err := m.Mem.Map("code", 0x1000, 0x1000, PermR|PermX); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Mem.Map("data", 0x100000, 0x10000, PermR|PermW); err != nil {
		t.Fatal(err)
	}
	if f := m.Mem.WriteBytesUnchecked(0x1000, code); f != nil {
		t.Fatal(f)
	}
	th := m.NewThread(0x1000, 0x100000+0x8000, 0x100000, 0x100000+0x10000)
	return m, th
}

// profMode is one profiled configuration: stepping, or the default
// superblock dispatch over a program with (fused) or without
// (superblock) fusable idioms. The split keeps profile attribution
// pinned on both slot kinds now that block dispatch always fuses.
type profMode struct {
	name        string
	superblocks bool
	fusable     bool
}

var profModes = []profMode{
	{"stepwise", false, true},
	{"superblock", true, false},
	{"fused", true, true},
}

func (mode profMode) loop() []asm.Inst {
	if mode.fusable {
		return profFusedLoop
	}
	return profPlainLoop
}

// checkSlots fails unless the runs block dispatch cached hold fused
// slots exactly when the mode's program is fusable; stepping builds
// one-slot runs that never fuse, so it is not checked.
func (mode profMode) checkSlots(t *testing.T, m *Machine) {
	t.Helper()
	if !mode.superblocks {
		return
	}
	fused := false
	for _, tr := range m.traces {
		for i := range tr.runs {
			if run := tr.runs[i].Load(); run != nil && run.xinsts != nil {
				fused = true
			}
		}
	}
	if fused != mode.fusable {
		t.Fatalf("cached runs hold fused slots: %v, want %v", fused, mode.fusable)
	}
}

// TestProfileConservation: with profiling on, the attributed cycle and
// instruction totals equal the thread's Stats exactly — stepping and
// superblock dispatch, in unfused and fused slots, on clean exits and on faulting runs (the fault path charges
// cum[k-1]; its attribution must match).
func TestProfileConservation(t *testing.T) {
	for _, mode := range profModes {
		for _, faulting := range []bool{false, true} {
			name := mode.name
			if faulting {
				name += "/fault"
			}
			t.Run(name, func(t *testing.T) {
				conf := DefaultConfig()
				conf.Superblocks = mode.superblocks
				conf.Profile = true
				var tail []asm.Inst
				if faulting {
					// An unmapped load right after the loop: the run ends in
					// a mid-block fault, exercising the cum[k-1] charge path.
					tail = []asm.Inst{
						{Op: asm.OpAddRI, Dst: asm.RAX, Imm: 1},
						{Op: asm.OpLoad, Dst: asm.RAX, M: asm.Mem{Base: asm.NoReg, Index: asm.NoReg, Size: 8, Disp: 0x40}},
					}
				}
				m, th := profLoopMachine(t, conf, mode.loop(), 50, tail)
				f := m.Run()
				mode.checkSlots(t, m)
				if faulting && f == nil {
					t.Fatal("expected a fault")
				}
				if !faulting && f != nil {
					t.Fatalf("unexpected fault: %v", f)
				}
				prof := m.Profile()
				if prof == nil {
					t.Fatal("Conf.Profile set but Profile() == nil")
				}
				if got, want := prof.TotalCycles(), th.Stats.Cycles; got != want {
					t.Fatalf("profile cycles %d != Stats.Cycles %d", got, want)
				}
				if got, want := prof.TotalInstrs(), th.Stats.Instrs; got != want {
					t.Fatalf("profile instrs %d != Stats.Instrs %d", got, want)
				}
			})
		}
	}
}

// TestProfileStatsUnchanged: profiling is purely observational — every
// simulated result (Stats, registers, exit) is bit-identical with it on.
func TestProfileStatsUnchanged(t *testing.T) {
	for _, mode := range profModes {
		t.Run(mode.name, func(t *testing.T) {
			run := func(profile bool) (*Machine, *Thread) {
				conf := DefaultConfig()
				conf.Superblocks = mode.superblocks
				conf.Profile = profile
				m, th := profLoopMachine(t, conf, mode.loop(), 50, nil)
				if f := m.Run(); f != nil {
					t.Fatalf("fault: %v", f)
				}
				mode.checkSlots(t, m)
				return m, th
			}
			_, off := run(false)
			_, on := run(true)
			if off.Stats != on.Stats {
				t.Fatalf("profiling changed Stats: off=%+v on=%+v", off.Stats, on.Stats)
			}
			if off.Regs != on.Regs {
				t.Fatal("profiling changed register state")
			}
		})
	}
}

// TestProfileHandlerAttribution: a trusted-handler dispatch attributes its
// cycle delta (AddCycles charges included) to the handler's address, with
// zero instructions — matching Stats, which counts handlers in
// TrustedCall but not Instrs.
func TestProfileHandlerAttribution(t *testing.T) {
	for _, mode := range profModes {
		t.Run(mode.name, func(t *testing.T) {
			conf := DefaultConfig()
			conf.Superblocks = mode.superblocks
			conf.Profile = true
			m := New(conf)
			const hnd = uint64(0x9000)
			var code []byte
			if mode.fusable {
				// A two-op ALU pack ahead of the call fuses the block
				// that enters the handler.
				code = asm.Encode(code, asm.Inst{Op: asm.OpMovRI, Dst: asm.RAX, Imm: 1})
				code = asm.Encode(code, asm.Inst{Op: asm.OpAddRI, Dst: asm.RAX, Imm: 2})
			}
			code = asm.Encode(code, asm.Inst{Op: asm.OpCall, Imm: int64(hnd)})
			code = asm.Encode(code, asm.Inst{Op: asm.OpExit})
			if _, err := m.Mem.Map("code", 0x1000, 0x1000, PermR|PermX); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Mem.Map("data", 0x100000, 0x10000, PermR|PermW); err != nil {
				t.Fatal(err)
			}
			if f := m.Mem.WriteBytesUnchecked(0x1000, code); f != nil {
				t.Fatal(f)
			}
			m.Handlers[hnd] = func(m *Machine, th *Thread) *Fault {
				th.AddCycles(37)
				raddr, f := th.Pop()
				if f != nil {
					return f
				}
				th.PC = raddr
				return nil
			}
			th := m.NewThread(0x1000, 0x100000+0x8000, 0x100000, 0x100000+0x10000)
			if f := m.Run(); f != nil {
				t.Fatalf("fault: %v", f)
			}
			mode.checkSlots(t, m)
			cells := m.Profile().Cells()
			hc, ok := cells[hnd]
			if !ok {
				t.Fatalf("no profile cell at handler address %#x (cells: %v)", hnd, cells)
			}
			if hc.Instrs != 0 || hc.Hits != 1 {
				t.Fatalf("handler cell = %+v, want Instrs 0, Hits 1", hc)
			}
			// The pop's Read is free (no memCost outside execRun); the delta
			// is exactly the AddCycles charge.
			if hc.Cycles != 37 {
				t.Fatalf("handler cell cycles = %d, want 37", hc.Cycles)
			}
			if got, want := m.Profile().TotalCycles(), th.Stats.Cycles; got != want {
				t.Fatalf("profile cycles %d != Stats.Cycles %d", got, want)
			}
		})
	}
}

// TestRunProfileDisabledZeroAlloc pins the disabled path's cost: after
// warmup (traces and blocks built), re-running the loop program with
// profiling off performs zero allocations. This is the acceptance bar for
// shipping the hooks inside the hot dispatch loop.
func TestRunProfileDisabledZeroAlloc(t *testing.T) {
	// The fused slot program is built once at flatten time, so the re-run
	// path of superblock dispatch must stay allocation-free over unfused
	// and fused slots alike. Stepping re-dispatches per instruction and is
	// not the pinned path.
	for _, mode := range profModes {
		if !mode.superblocks {
			continue
		}
		t.Run(mode.name, func(t *testing.T) {
			m, th := profLoopMachine(t, DefaultConfig(), mode.loop(), 200, nil)
			reset := func() {
				th.Halted = false
				th.Fault = nil
				th.PC = 0x1000
			}
			if f := m.Run(); f != nil {
				t.Fatalf("warmup fault: %v", f)
			}
			mode.checkSlots(t, m)
			allocs := testing.AllocsPerRun(10, func() {
				reset()
				if f := m.Run(); f != nil {
					t.Fatalf("fault: %v", f)
				}
			})
			if allocs != 0 {
				t.Fatalf("Run with profiling disabled allocates %.1f objects per run, want 0", allocs)
			}
		})
	}
}
