package link_test

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"testing"

	"confllvm"
	"confllvm/internal/codegen"
	"confllvm/internal/link"
)

const prog = `
extern void output(long v);
int add(int a, int b) { return a + b; }
int main() { output(add(2, 3)); return 0; }
`

func buildImage(t *testing.T, v confllvm.Variant) *link.Image {
	t.Helper()
	art, err := confllvm.Compile(confllvm.Program{
		Sources: []confllvm.Source{{Name: "p.c", Code: prog}},
	}, v)
	if err != nil {
		t.Fatal(err)
	}
	return art.Image
}

func TestMagicPrefixUniqueness(t *testing.T) {
	img := buildImage(t, confllvm.VariantMPX)
	if img.MCallPrefix == 0 || img.MRetPrefix == 0 || img.MCallPrefix == img.MRetPrefix {
		t.Fatal("bad magic prefixes")
	}
	if img.MCallPrefix&31 != 0 || img.MRetPrefix&31 != 0 {
		t.Fatal("prefixes must leave the low 5 taint bits clear")
	}
	// Scan every byte offset: each prefix occurrence must be a recorded
	// magic word (the §6 uniqueness property).
	magic := img.MagicOffsets()
	for i := 0; i+8 <= len(img.Code); i++ {
		w := binary.LittleEndian.Uint64(img.Code[i:])
		if p := w &^ 31; p == img.MCallPrefix || p == img.MRetPrefix {
			if !magic[i] {
				t.Fatalf("stray magic prefix at offset %#x", i)
			}
		}
	}
}

func TestDeterministicBuilds(t *testing.T) {
	a := buildImage(t, confllvm.VariantSeg)
	b := buildImage(t, confllvm.VariantSeg)
	if !bytes.Equal(a.Code, b.Code) {
		t.Fatal("builds with the same seed must be byte-identical")
	}
}

func TestFunctionSymbols(t *testing.T) {
	img := buildImage(t, confllvm.VariantMPX)
	main := img.Func("main")
	add := img.Func("add")
	if main == nil || add == nil {
		t.Fatal("symbols missing")
	}
	if main.Entry != main.MagicAddr+8 {
		t.Error("entry must follow the magic word under CFI")
	}
	// add(int, int) -> int: args 0,1 public, 2,3 unused=private, ret public.
	if add.ArgBits != 0b01100 {
		t.Errorf("add taint bits = %05b, want 01100", add.ArgBits)
	}
	if stub := img.Func("output"); stub == nil || !stub.IsStub {
		t.Error("extern function must have a stub")
	}
}

func TestSerializeRoundtrip(t *testing.T) {
	for _, v := range []confllvm.Variant{confllvm.VariantMPX, confllvm.VariantSeg} {
		img := buildImage(t, v)
		var buf bytes.Buffer
		if err := img.Save(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := link.Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Code, img.Code) {
			t.Errorf("%v: code changed across serialization", v)
		}
		if got.MCallPrefix != img.MCallPrefix || got.MRetPrefix != img.MRetPrefix {
			t.Errorf("%v: prefixes changed", v)
		}
		if got.Func("main") == nil || got.Func("main").Entry != img.Func("main").Entry {
			t.Errorf("%v: function symbols changed", v)
		}
		if len(got.MagicOffsets()) != len(img.MagicOffsets()) {
			t.Errorf("%v: magic offsets changed", v)
		}
		if got.Config != img.Config || got.Layout != img.Layout || got.Layout != link.LayoutFor(got.Config) {
			t.Errorf("%v: layout/config changed", v)
		}
	}
}

// legacyImageFile is the image encoding that still stored the layout on
// disk. gob matches fields by name, so it decodes into the current
// format.
type legacyImageFile struct {
	Magic       string
	Code        []byte
	Funcs       []link.FuncSym
	PubData     []byte
	PrivData    []byte
	Symbols     map[string]uint64
	Externals   []string
	MCallPrefix uint64
	MRetPrefix  uint64
	Layout      link.Layout
	Config      codegen.Config
	ExitShim    [2]uint64
	MagicOffs   []int
}

// TestLoadIgnoresStoredLayout: a legacy image whose stored layout is
// tampered (no thread stack, a usable size below the stack area) loads
// with the layout derived from its Config, never the bytes on disk.
func TestLoadIgnoresStoredLayout(t *testing.T) {
	for _, v := range []confllvm.Variant{confllvm.VariantMPX, confllvm.VariantSeg} {
		img := buildImage(t, v)
		bad := img.Layout
		bad.ThreadStack = 0
		bad.UsableSize = 4096
		f := legacyImageFile{
			Magic: "CONFLLVM-IMG-1", Code: img.Code, PubData: img.PubData,
			PrivData: img.PrivData, Symbols: img.Symbols, Externals: img.Externals,
			MCallPrefix: img.MCallPrefix, MRetPrefix: img.MRetPrefix,
			Layout: bad, Config: img.Config, ExitShim: img.ExitShim,
		}
		for _, fs := range img.Funcs {
			f.Funcs = append(f.Funcs, *fs)
		}
		for off := range img.MagicOffsets() {
			f.MagicOffs = append(f.MagicOffs, off)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&f); err != nil {
			t.Fatal(err)
		}
		got, err := link.Load(&buf)
		if err != nil {
			t.Fatalf("%v: legacy image must still load: %v", v, err)
		}
		if got.Layout != link.LayoutFor(got.Config) {
			t.Errorf("%v: loaded layout %+v, want LayoutFor(Config) %+v", v, got.Layout, link.LayoutFor(got.Config))
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := link.Load(bytes.NewReader([]byte("not an image"))); err == nil {
		t.Fatal("garbage must be rejected")
	}
}

func TestLayoutInvariants(t *testing.T) {
	for _, l := range []link.Layout{link.MPXLayout(), link.SegLayout()} {
		if l.Offset() <= 0 {
			t.Error("private region must be above public")
		}
		lo0, hi0 := l.StackBounds(l.PubBase, 0)
		lo1, hi1 := l.StackBounds(l.PubBase, 1)
		if hi1 != lo0 || hi0-lo0 != l.ThreadStack || hi1-lo1 != l.ThreadStack {
			t.Error("thread stacks must tile downward")
		}
	}
	mpx := link.MPXLayout()
	if mpx.Offset() > (1<<31)-1 {
		t.Error("MPX OFFSET must fit a 32-bit displacement")
	}
	seg := link.SegLayout()
	if seg.Offset() < 36<<30 {
		t.Error("segment scheme needs at least 36 GB of guard space")
	}
	// The segment bases must be 4 GB aligned so that fs/gs + low32(reg)
	// reconstructs in-segment addresses exactly (§3).
	if seg.PubBase%(4<<30) != 0 || seg.PrivBase%(4<<30) != 0 {
		t.Error("segment bases must be 4 GB aligned")
	}
}
