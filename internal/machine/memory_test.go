package machine

import (
	"bytes"
	"math/rand"
	"testing"
)

// mapped returns a memory with one RW data region at base covering pages
// whole pages, plus a read-only region.
func mappedMem(t *testing.T) *Memory {
	t.Helper()
	mem := NewMemory()
	if _, err := mem.Map("data", 0x100000, 0x3000, PermR|PermW); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Map("ro", 0x200000, 0x1000, PermR); err != nil {
		t.Fatal(err)
	}
	return mem
}

// TestPageStraddleAccess: an access crossing a page boundary must bypass
// the TLB fast path (which only covers one page) and still read/write the
// correct little-endian value — both cold and after the TLB has been
// warmed for the pages on either side.
func TestPageStraddleAccess(t *testing.T) {
	mem := mappedMem(t)
	const straddle = 0x100FFC // 4 bytes in page 0, 4 bytes in page 1

	// Cold straddling write + read.
	if f := mem.Write(straddle, 8, 0x1122334455667788); f != nil {
		t.Fatal(f)
	}
	v, f := mem.Read(straddle, 8)
	if f != nil || v != 0x1122334455667788 {
		t.Fatalf("cold straddle read = %#x (%v)", v, f)
	}

	// Warm both pages' TLB entries, then repeat: the fast path must
	// reject the straddle (off+size > pageSize) and fall back.
	if _, f := mem.Read(0x100FF0, 8); f != nil {
		t.Fatal(f)
	}
	if _, f := mem.Read(0x101000, 8); f != nil {
		t.Fatal(f)
	}
	if f := mem.Write(straddle, 8, 0x8877665544332211); f != nil {
		t.Fatal(f)
	}
	v, f = mem.Read(straddle, 8)
	if f != nil || v != 0x8877665544332211 {
		t.Fatalf("warm straddle read = %#x (%v)", v, f)
	}
	// Byte-level check of the split: low bytes land at the end of page 0.
	lo, _ := mem.Read(straddle, 1)
	hi, _ := mem.Read(straddle+7, 1)
	if lo != 0x11 || hi != 0x88 {
		t.Fatalf("straddle bytes = %#x..%#x, want 0x11..0x88", lo, hi)
	}
}

// TestMisalignedAccessParity: misaligned in-page accesses are legal on
// both the cold (byte-loop) and warm (LittleEndian) paths and must agree
// bit-for-bit.
func TestMisalignedAccessParity(t *testing.T) {
	for _, size := range []uint8{2, 4, 8} {
		mem := mappedMem(t)
		const addr = 0x100801 // odd address, well inside a page
		val := uint64(0x1122334455667788) & (1<<(8*uint(size)) - 1)
		if size == 8 {
			val = 0x1122334455667788
		}
		// Cold: slow path (byte loop) both directions.
		if f := mem.Write(addr, size, val); f != nil {
			t.Fatal(f)
		}
		cold, f := mem.Read(addr, size)
		if f != nil {
			t.Fatal(f)
		}
		// Warm: the same page is now in the TLB; the fast path must see
		// the identical bytes.
		warm, f := mem.Read(addr, size)
		if f != nil {
			t.Fatal(f)
		}
		if cold != val || warm != val {
			t.Fatalf("size %d: cold=%#x warm=%#x want %#x", size, cold, warm, val)
		}
	}
}

// TestFastPathMatchesSlowPath: with the page in the TLB, readFast and
// writeFast serve every access whose 8-byte word stays in the page,
// masking or merging that word. At every offset and size, Read and Write
// must agree with readSlow and writeSlow on the value and on every byte
// around the access, including the page's last 7 bytes, which the fast
// path leaves to the slow path.
func TestFastPathMatchesSlowPath(t *testing.T) {
	const page = 0x101000
	fast, slow := mappedMem(t), mappedMem(t)
	rng := rand.New(rand.NewSource(1))
	for _, size := range []uint8{1, 2, 4, 8} {
		for off := uint64(0); off+uint64(size) <= pageSize; off++ {
			addr, v := page+off, rng.Uint64()
			if f := fast.Write(addr, size, v); f != nil {
				t.Fatal(f)
			}
			if f := slow.writeSlow(addr, size, v); f != nil {
				t.Fatal(f)
			}
			if _, ok := fast.readFast(addr, size); ok != (off <= pageSize-8) {
				t.Fatalf("size %d off %#x: readFast ok=%v", size, off, ok)
			}
			got, f1 := fast.Read(addr, size)
			want, f2 := slow.readSlow(addr, size)
			if f1 != nil || f2 != nil || got != want {
				t.Fatalf("size %d off %#x: Read=%#x (%v), readSlow=%#x (%v)", size, off, got, f1, want, f2)
			}
			lo := addr - 8
			var a, b [24]byte
			if err := fast.ReadBytes(lo, a[:]); err != nil {
				t.Fatal(err)
			}
			if err := slow.ReadBytes(lo, b[:]); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a[:], b[:]) {
				t.Fatalf("size %d off %#x: bytes around the write\nfast %x\nslow %x", size, off, a, b)
			}
		}
	}
}

// TestPartialPageNotCached: a region that covers only part of a page must
// never enter the TLB — a cached entry would let accesses inside the page
// but outside the region slip past the permission check.
func TestPartialPageNotCached(t *testing.T) {
	mem := NewMemory()
	// Region occupying the middle of one page.
	if _, err := mem.Map("sliver", 0x5800, 0x400, PermR|PermW); err != nil {
		t.Fatal(err)
	}
	if f := mem.Write(0x5800, 8, 42); f != nil {
		t.Fatal(f)
	}
	if v, f := mem.Read(0x5800, 8); f != nil || v != 42 {
		t.Fatalf("in-region read = %d (%v)", v, f)
	}
	// Same page, before the region: must fault even though the page was
	// just touched (the slow path must not have cached it).
	if _, f := mem.Read(0x5400, 8); f == nil || f.Kind != FaultUnmapped {
		t.Fatalf("out-of-region read in the same page: got %v, want unmapped fault", f)
	}
	// Access straddling the region end: the fault address is the first
	// out-of-range byte.
	if _, f := mem.Read(0x5BFC, 8); f == nil || f.Kind != FaultUnmapped || f.Addr != 0x5BFC+7 {
		t.Fatalf("region-end straddle: got %v, want unmapped at %#x", f, 0x5BFC+7)
	}
}

// TestFaultMessageParityFastSlow: the formatted fault for a denied access
// must be identical whether or not the page is resident in the TLB — the
// fast path may only succeed, never produce a different failure.
func TestFaultMessageParityFastSlow(t *testing.T) {
	// Cold machine: write to the read-only region.
	memA := mappedMem(t)
	fCold := memA.Write(0x200010, 8, 1)

	// Warm machine: read the page first so the TLB holds it (with R-only
	// perm), then write — the fast path sees perm&W == 0 and must fall
	// back to the identical slow-path fault.
	memB := mappedMem(t)
	if _, f := memB.Read(0x200010, 8); f != nil {
		t.Fatal(f)
	}
	fWarm := memB.Write(0x200010, 8, 1)

	if fCold == nil || fWarm == nil {
		t.Fatalf("read-only write must fault: cold=%v warm=%v", fCold, fWarm)
	}
	if *fCold != *fWarm {
		t.Fatalf("fault mismatch: cold=%+v warm=%+v", *fCold, *fWarm)
	}
	if fCold.Error() != fWarm.Error() {
		t.Fatalf("fault message mismatch:\ncold: %s\nwarm: %s", fCold.Error(), fWarm.Error())
	}
	if fCold.Kind != FaultPerm {
		t.Fatalf("want perm fault, got %v", fCold)
	}

	// Unmapped accesses: cold vs after unrelated TLB traffic.
	fColdU := memA.Write(0x900000, 8, 1)
	fWarmU := memB.Write(0x900000, 8, 1)
	if fColdU == nil || fWarmU == nil || *fColdU != *fWarmU || fColdU.Kind != FaultUnmapped {
		t.Fatalf("unmapped fault parity: cold=%v warm=%v", fColdU, fWarmU)
	}
}

// TestDigestIgnoresUntouchedPages: reading freshly-mapped (all-zero)
// memory allocates pages lazily but must not change the digest.
func TestDigestIgnoresUntouchedPages(t *testing.T) {
	mem := mappedMem(t)
	if f := mem.Write(0x100010, 8, 0xDEAD); f != nil {
		t.Fatal(f)
	}
	d0 := mem.Digest()
	if _, f := mem.Read(0x101000, 8); f != nil { // allocates a zero page
		t.Fatal(f)
	}
	if d1 := mem.Digest(); d1 != d0 {
		t.Fatalf("digest changed after reading untouched memory: %#x -> %#x", d0, d1)
	}
	if f := mem.Write(0x101000, 1, 1); f != nil {
		t.Fatal(f)
	}
	if d2 := mem.Digest(); d2 == d0 {
		t.Fatal("digest did not change after a real write")
	}
}
