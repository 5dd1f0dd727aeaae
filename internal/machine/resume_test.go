package machine

import (
	"testing"

	"confllvm/internal/asm"
)

// jumpLoopMachine builds threads copies of a counter loop that is only
// ever entered by a jump: a prologue jumps to the loop head, and the
// jcc's fall-through is the exit. No straight-line code falls into a
// jump target, so every run block dispatch builds is entered by a
// control transfer — unless a bite leaves a suffix run behind. Each
// thread increments a shared counter and sums what it reads, so the
// result depends on where the quantum boundaries land.
func jumpLoopMachine(t *testing.T, conf Config, threads int, iters int64) (*Machine, []*Thread) {
	t.Helper()
	m := New(conf)
	pre := []asm.Inst{
		{Op: asm.OpMovRI, Dst: asm.RCX, Imm: iters},
		{Op: asm.OpMovRI, Dst: asm.RDI, Imm: 0x100100},
		{Op: asm.OpJmp},
	}
	loopStart := int64(0x1000)
	for _, in := range pre {
		loopStart += encodeLen(in)
	}
	pre[2].Imm = loopStart
	body := []asm.Inst{
		{Op: asm.OpLoad, Dst: asm.RAX, M: asm.Mem{Base: asm.RDI, Index: asm.NoReg, Size: 8}},
		{Op: asm.OpAddRI, Dst: asm.RAX, Imm: 1},
		{Op: asm.OpStore, M: asm.Mem{Base: asm.RDI, Index: asm.NoReg, Size: 8}, Src: asm.RAX},
		{Op: asm.OpAddRR, Dst: asm.RSI, Src: asm.RAX},
		{Op: asm.OpMulRI, Dst: asm.RDX, Imm: 3},
		{Op: asm.OpSubRI, Dst: asm.RCX, Imm: 1},
		{Op: asm.OpCmpRI, Dst: asm.RCX, Imm: 0},
		{Op: asm.OpJcc, Cond: asm.CondNE, Imm: loopStart},
		{Op: asm.OpExit},
	}
	var code []byte
	for _, in := range append(pre, body...) {
		code = asm.Encode(code, in)
	}
	if _, err := m.Mem.Map("code", 0x1000, 0x1000, PermR|PermX); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Mem.Map("data", 0x100000, 0x10000, PermR|PermW); err != nil {
		t.Fatal(err)
	}
	if f := m.Mem.WriteBytesUnchecked(0x1000, code); f != nil {
		t.Fatal(f)
	}
	var ths []*Thread
	for i := 0; i < threads; i++ {
		lo := uint64(0x100000 + 0x4000*(i+1))
		ths = append(ths, m.NewThread(0x1000, lo+0x3000, lo, lo+0x4000))
	}
	return m, ths
}

// checkTransferEntries fails if a cached run's entry PC lies strictly
// inside another cached run: with bites resumed in place, every run is
// entered by a control transfer, never at an interior PC.
func checkTransferEntries(t *testing.T, m *Machine) {
	t.Helper()
	interior := map[uint64]bool{}
	var entries []uint64
	for _, tr := range m.traces {
		for i := range tr.runs {
			run := tr.runs[i].Load()
			if run == nil {
				continue
			}
			entries = append(entries, run.pcs[0])
			for _, pc := range run.pcs[1:run.n] {
				interior[pc] = true
			}
		}
	}
	if len(entries) == 0 {
		t.Fatal("no runs were cached: the check is vacuous")
	}
	for _, pc := range entries {
		if interior[pc] {
			t.Fatalf("a run is cached at %#x, strictly inside another run: a bite built a suffix run", pc)
		}
	}
}

// TestBiteResumeInPlace: quantum and fuel bites land at every slot of a
// loop run, and the next dispatch continues the bitten run in place. No
// suffix run may be cached, and everything simulated — registers, stats,
// memory, the fuel fault and the profile totals — must match stepping.
func TestBiteResumeInPlace(t *testing.T) {
	cases := []struct {
		name    string
		threads int
		fuel    uint64
	}{
		// 9 constituents per iteration against a 1024 quantum: the
		// boundary walks through every slot of the loop run.
		{"one-thread", 1, 0},
		// Two threads interleaved by quantum, racing on the counter.
		{"two-threads", 2, 0},
		// A fuel bite deep into the interleaving.
		{"two-threads-fuel", 2, 20_011},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(superblocks bool) (*Machine, []*Thread, *Fault) {
				conf := DefaultConfig()
				conf.Superblocks = superblocks
				conf.Profile = true
				if tc.fuel > 0 {
					conf.DefaultFuel = tc.fuel
				}
				m, ths := jumpLoopMachine(t, conf, tc.threads, 4000)
				return m, ths, m.Run()
			}
			mA, thsA, fA := run(false)
			mB, thsB, fB := run(true)
			if (fA == nil) != (fB == nil) || (fA != nil && (*fA != *fB || fA.Error() != fB.Error())) {
				t.Fatalf("fault mismatch: stepwise=%v superblock=%v", fA, fB)
			}
			if (tc.fuel > 0) != (fA != nil && fA.Kind == FaultFuel) {
				t.Fatalf("fault %v, want a fuel fault only when fuel is capped", fA)
			}
			for i := range thsA {
				a, b := thsA[i], thsB[i]
				if a.Regs != b.Regs || a.PC != b.PC || a.Stats.Arch() != b.Stats.Arch() {
					t.Fatalf("thread %d diverged:\nstepwise:   %+v\nsuperblock: %+v", i, a.Stats, b.Stats)
				}
			}
			if mA.Mem.Digest() != mB.Mem.Digest() {
				t.Fatal("memory digest mismatch")
			}
			sA, sB := mA.TotalStats(), mB.TotalStats()
			for _, m := range []struct {
				p *Profile
				s Stats
			}{{mA.Profile(), sA}, {mB.Profile(), sB}} {
				if m.p.TotalCycles() != m.s.Cycles || m.p.TotalInstrs() != m.s.Instrs {
					t.Fatalf("profile totals %d cycles / %d instrs, stats %d / %d",
						m.p.TotalCycles(), m.p.TotalInstrs(), m.s.Cycles, m.s.Instrs)
				}
			}
			if sA.Instrs < 4*quantum {
				t.Fatalf("ran %d instructions: too few to cross quantum boundaries", sA.Instrs)
			}
			checkTransferEntries(t, mB)
		})
	}
}

// TestBiteResumeInvalidation: a bite-resume point must not outlive what
// it was recorded against. After a fuel bite inside the loop run, the
// test leaves it alone, patches a later instruction of that run,
// registers a trusted handler on one, or moves the PC — then resumes
// with more fuel. Each
// must behave exactly as under stepping: the bitten run may only be
// continued if nothing it was built from changed. Where execution goes
// on at the bite PC, its profile cell is that PC, entered once.
func TestBiteResumeInvalidation(t *testing.T) {
	// jumpLoopMachine's prologue is 3 instructions and its loop run 8;
	// fuel 86 executes 85: the prologue, 10 iterations and the load and
	// add of the 11th, so the bite lands on the store (slot 2).
	const fuel = 86
	cases := []struct {
		name string
		// between intervenes on a stopped machine; pcs are the loop
		// run's slot PCs (taken from the superblock machine's bite).
		between func(t *testing.T, m *Machine, th *Thread, pcs []uint64)
	}{
		// Nothing changes: the resume continues the bitten run.
		{"none", func(t *testing.T, m *Machine, th *Thread, pcs []uint64) {}},
		{"patch", func(t *testing.T, m *Machine, th *Thread, pcs []uint64) {
			// mul rdx, 3 (slot 4) becomes add rdx, 5: same length.
			patch := asm.Encode(nil, asm.Inst{Op: asm.OpAddRI, Dst: asm.RDX, Imm: 5})
			if f := m.Mem.WriteBytesUnchecked(pcs[4], patch); f != nil {
				t.Fatal(f)
			}
		}},
		{"handler", func(t *testing.T, m *Machine, th *Thread, pcs []uint64) {
			// A handler on the cmp (slot 6) that does the compare itself.
			jcc := pcs[7]
			m.Handlers[pcs[6]] = func(m *Machine, t *Thread) *Fault {
				t.Regs[asm.RBX]++
				t.setCmpFlags(t.Regs[asm.RCX], 0)
				t.PC = jcc
				return nil
			}
		}},
		{"redirect", func(t *testing.T, m *Machine, th *Thread, pcs []uint64) {
			th.PC = 0x1000
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mk := func(superblocks bool) (*Machine, *Thread, *Fault) {
				conf := DefaultConfig()
				conf.Superblocks = superblocks
				conf.DefaultFuel = fuel
				conf.Profile = true
				m, ths := jumpLoopMachine(t, conf, 1, 4000)
				return m, ths[0], m.Run()
			}
			mA, thA, fA := mk(false)
			mB, thB, fB := mk(true)
			compareParity(t, "bite", mA, thA, fA, mB, thB, fB)
			run := thB.resume
			if run == nil || thB.resumeK != 2 || thB.PC != run.pcs[2] {
				t.Fatalf("the fuel bite did not stop the loop run at slot 2 (resume %p, slot %d)", run, thB.resumeK)
			}
			pcs := run.pcs
			for _, c := range []struct {
				m  *Machine
				th *Thread
			}{{mA, thA}, {mB, thB}} {
				tc.between(t, c.m, c.th, pcs)
				c.th.Halted, c.th.Fault = false, nil
				c.m.Conf.DefaultFuel = 200
			}
			compareParity(t, "resumed", mA, thA, mA.Run(), mB, thB, mB.Run())
			if c := mB.Profile().Cells()[pcs[2]]; tc.name != "redirect" && (c.Hits != 1 || c.Instrs == 0) {
				t.Fatalf("profile cell at the bite PC %#x: %+v, want one entry", pcs[2], c)
			}
		})
	}
}
