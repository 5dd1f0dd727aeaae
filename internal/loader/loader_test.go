// First unit tests for the loader: the region layout and permissions the
// machine's decode-trace cache and page TLB key on, the externals-table
// binding, and the per-thread stack/bound/segment initialization.
package loader_test

import (
	"bytes"
	"testing"

	"confllvm"
	"confllvm/internal/asm"
	"confllvm/internal/loader"
	"confllvm/internal/machine"
)

const tinySrc = `
extern void output(long v);

int main() {
	output(42);
	return 0;
}
`

func compile(t *testing.T, v confllvm.Variant) *confllvm.Artifact {
	t.Helper()
	art, err := confllvm.Compile(confllvm.Program{
		Sources: []confllvm.Source{{Name: "tiny.c", Code: tinySrc}},
	}, v)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// load maps the artifact with inert handlers (the tests never Run).
func load(t *testing.T, art *confllvm.Artifact) *machine.Machine {
	t.Helper()
	handlers := map[string]machine.Handler{}
	for _, name := range art.Image.Externals {
		handlers[name] = func(m *machine.Machine, th *machine.Thread) *machine.Fault { return nil }
	}
	m, err := loader.Load(art.Image, handlers, machine.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRegionLayout: the mapped regions must match the image layout with
// the permissions the paper's scheme requires — executable code is never
// writable, the externals table is read-only, data regions are never
// executable.
func TestRegionLayout(t *testing.T) {
	for _, v := range []confllvm.Variant{confllvm.VariantMPX, confllvm.VariantSeg} {
		art := compile(t, v)
		m := load(t, art)
		l := art.Image.Layout

		want := map[string]struct {
			lo   uint64
			perm machine.Perm
		}{
			"u-code":      {l.CodeBase, machine.PermR | machine.PermX},
			"u-public":    {l.PubBase, machine.PermR | machine.PermW},
			"u-private":   {l.PrivBase, machine.PermR | machine.PermW},
			"t-region":    {l.TBase, machine.PermR | machine.PermW},
			"u-ext-table": {l.ExtTableBase(), machine.PermR},
		}
		regions := m.Mem.Regions()
		if len(regions) != len(want) {
			t.Fatalf("[%v] %d regions mapped, want %d", v, len(regions), len(want))
		}
		for _, r := range regions {
			w, ok := want[r.Name]
			if !ok {
				t.Errorf("[%v] unexpected region %q", v, r.Name)
				continue
			}
			if r.Lo != w.lo || r.Perm != w.perm {
				t.Errorf("[%v] region %q at %#x perm %v, want %#x perm %v",
					v, r.Name, r.Lo, r.Perm, w.lo, w.perm)
			}
		}

		// The layout invariants the trace cache and the bounds schemes
		// rely on: both data regions share internal offsets, and under
		// the segmentation scheme the regions are 4 GB-aligned.
		if l.PrivBase-l.PubBase != uint64(l.Offset()) {
			t.Errorf("[%v] OFFSET mismatch", v)
		}
		if v == confllvm.VariantSeg && (l.PubBase%(4<<30) != 0 || l.PrivBase%(4<<30) != 0) {
			t.Errorf("[%v] segment bases not 4 GB-aligned: %#x %#x", v, l.PubBase, l.PrivBase)
		}

		// Code must be installed and immutable: a checked write faults.
		if f := m.Mem.Write(l.CodeBase, 8, 0); f == nil || f.Kind != machine.FaultPerm {
			t.Errorf("[%v] write to code region: %v, want perm fault", v, f)
		}
		head := make([]byte, 16)
		if f := m.Mem.ReadBytes(l.CodeBase, head); f != nil {
			t.Errorf("[%v] code not readable: %v", v, f)
		}
		if !bytes.Equal(head, art.Image.Code[:16]) {
			t.Errorf("[%v] code bytes not installed", v)
		}

		// The guard hole between the regions faults.
		if f := m.Mem.Write(l.PubBase+l.UsableSize+4096, 8, 1); f == nil || f.Kind != machine.FaultUnmapped {
			t.Errorf("[%v] guard-space write: %v, want unmapped fault", v, f)
		}

		// The T canary is in place (exploit tests assert U can't reach it).
		canary := make([]byte, len(loader.TCanary))
		if f := m.Mem.ReadBytes(l.TBase+64, canary); f != nil || !bytes.Equal(canary, loader.TCanary) {
			t.Errorf("[%v] T canary not installed (%v)", v, f)
		}
	}
}

// TestExternalsBinding: each extern resolves to a handler address inside
// the T region, the read-only table slot holds that address, and the
// machine dispatches at it.
func TestExternalsBinding(t *testing.T) {
	art := compile(t, confllvm.VariantMPX)
	m := load(t, art)
	img := art.Image
	l := img.Layout
	if len(img.Externals) == 0 {
		t.Fatal("tiny program has no externals")
	}
	for i := range img.Externals {
		slot, f := m.Mem.Read(img.ExternalSlotAddr(i), 8)
		if f != nil {
			t.Fatalf("slot %d unreadable: %v", i, f)
		}
		if slot < l.TBase || slot >= l.TBase+l.TSize {
			t.Errorf("extern %d handler address %#x outside the T region", i, slot)
		}
		if m.Handlers[slot] == nil {
			t.Errorf("extern %d: no machine handler at %#x", i, slot)
		}
	}
	// Missing handlers must be a load-time error, not a runtime surprise.
	if _, err := loader.Load(img, map[string]machine.Handler{}, machine.DefaultConfig(), nil); err == nil {
		t.Error("Load succeeded with no handlers for the image's externals")
	}
}

// TestSpawnThreadState: thread initialization per variant — segment
// bases, MPX bound ranges (split vs single-stack ablation), stack bounds
// marching down per thread, and exhaustion of the stack area.
func TestSpawnThreadState(t *testing.T) {
	for _, v := range []confllvm.Variant{confllvm.VariantMPX, confllvm.VariantMPXSep} {
		art := compile(t, v)
		m := load(t, art)
		img := art.Image
		l := img.Layout

		t0, err := loader.Start(m, img)
		if err != nil {
			t.Fatal(err)
		}
		if t0.FS != l.PubBase || t0.GS != l.PrivBase {
			t.Errorf("[%v] segment bases fs=%#x gs=%#x", v, t0.FS, t0.GS)
		}
		wantB0 := machine.BndRange{Lo: l.PubBase, Hi: l.PubBase + l.UsableSize - 1}
		if t0.Bnd[asm.BND0] != wantB0 {
			t.Errorf("[%v] bnd0 = %+v, want %+v", v, t0.Bnd[asm.BND0], wantB0)
		}
		b1 := t0.Bnd[asm.BND1]
		if img.Config.SeparateStacks {
			if b1.Lo != l.PrivBase {
				t.Errorf("[%v] split stacks: bnd1.lo = %#x, want %#x", v, b1.Lo, l.PrivBase)
			}
		} else {
			// Single-stack ablation: the private bound covers all of U.
			if b1.Lo != l.PubBase {
				t.Errorf("[%v] single stack: bnd1.lo = %#x, want %#x", v, b1.Lo, l.PubBase)
			}
		}

		lo, hi := l.StackBounds(l.PubBase, 0)
		if t0.StackLo != lo || t0.StackHi != hi {
			t.Errorf("[%v] thread 0 stack [%#x,%#x], want [%#x,%#x]", v, t0.StackLo, t0.StackHi, lo, hi)
		}
		if t0.Regs[asm.RSP] >= hi || t0.Regs[asm.RSP] < lo {
			t.Errorf("[%v] rsp %#x outside its stack", v, t0.Regs[asm.RSP])
		}

		// Each spawn takes the next slot down; the area is finite.
		main := img.Func("main")
		prev := t0.StackHi
		spawned := 1
		for {
			th, err := loader.SpawnThread(m, img, main, 0)
			if err != nil {
				break
			}
			if th.StackHi >= prev {
				t.Errorf("[%v] thread %d stack does not march down (%#x >= %#x)",
					v, spawned, th.StackHi, prev)
			}
			prev = th.StackHi
			spawned++
			if spawned > 64 {
				t.Fatalf("[%v] stack area never exhausted", v)
			}
		}
		if want := int(l.StackArea / l.ThreadStack); spawned != want {
			t.Errorf("[%v] spawned %d threads before exhaustion, want %d", v, spawned, want)
		}
	}
}

// TestLoadSharesCode: machines loaded from one image with one Code run on
// the same decoded code, and a Code never attaches to a machine whose
// code bytes differ from the ones it was built from — here the same
// program linked with another magic-prefix seed, which lays out the same
// code region — which falls back to a private trace.
func TestLoadSharesCode(t *testing.T) {
	build := func(seed int64) *confllvm.Artifact {
		art, err := confllvm.Compile(confllvm.Program{
			Sources: []confllvm.Source{{Name: "tiny.c", Code: tinySrc}}, Seed: seed,
		}, confllvm.VariantMPX)
		if err != nil {
			t.Fatal(err)
		}
		return art
	}
	a, b := build(1), build(2)
	if len(a.Image.Code) != len(b.Image.Code) || bytes.Equal(a.Image.Code, b.Image.Code) ||
		a.Image.Layout.CodeBase != b.Image.Layout.CodeBase {
		t.Fatal("the two seeds must give one code layout with different bytes")
	}
	var code loader.Code
	var cs []machine.SharedCode
	for _, art := range []*confllvm.Artifact{a, a, b} {
		hs := map[string]machine.Handler{}
		for _, name := range art.Image.Externals {
			hs[name] = func(m *machine.Machine, th *machine.Thread) *machine.Fault { return nil }
		}
		m, err := loader.Load(art.Image, hs, machine.DefaultConfig(), &code)
		if err != nil {
			t.Fatal(err)
		}
		c, f := m.ShareCode(art.Image.Layout.CodeBase)
		if f != nil {
			t.Fatal(f)
		}
		cs = append(cs, *c)
	}
	if cs[0] != cs[1] {
		t.Fatal("two loads of one image with one Code do not share decoded code")
	}
	if cs[2] == cs[0] {
		t.Fatal("a Code built from one image was attached to a machine holding other code bytes")
	}
}
