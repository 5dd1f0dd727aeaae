package machine

import (
	"sync"
	"sync/atomic"

	"confllvm/internal/asm"
)

// codeTrace is the decoded code of one executable region: a snapshot of
// the region's bytes plus a dense run index, runs[off] being the
// flattened superblock entered at lo+off (nil = not yet built; see
// superblock.go). The fetch path is one range check against the
// memoized lastTrace, one bounds check and an atomic pointer load — no
// map probe.
//
// Blocks are decoded lazily, straight into their runs, on first entry:
// the instruction stream is variable-length and interleaves data (magic
// sequences), so linear pre-decode from the region base would misalign.
// An offset in the middle of another instruction's encoding simply stays
// unbuilt unless control flow actually lands there — which mirrors the
// hardware, where any byte offset is a potential instruction start.
//
// A trace is read-only once made, apart from filling its run index and
// the chain links inside its runs, both published with atomic pointers
// and built under mu. That is what lets one trace serve several machines
// at once: every machine loaded from the same image references the
// trace its first load built (Machine.ShareCode, Machine.AttachCode).
// Nothing ever rewrites a trace in place. A machine whose code bytes are
// patched (Memory.WriteBytesUnchecked) or whose trusted-handler range
// changes drops its references instead (flushTraces), and its next fetch
// builds a private trace from its own memory.
type codeTrace struct {
	lo   uint64
	size uint64
	code []byte // immutable snapshot of the region's bytes

	// hndLo, hndHi is the trusted-handler range the runs are built for:
	// no run spans, and no chain link targets, a PC inside it. It always
	// equals the range of every machine referencing the trace.
	hndLo, hndHi uint64

	mu   sync.Mutex // serializes builds; readers never take it
	runs []atomic.Pointer[blockRun]

	// insts and pcs are buildBlock's decode scratch, guarded by mu.
	insts []asm.Inst
	pcs   []uint64
}

func newCodeTrace(mem *Memory, r *Region, hndLo, hndHi uint64) *codeTrace {
	tr := &codeTrace{
		lo:    r.Lo,
		size:  r.Size,
		code:  make([]byte, r.Size),
		hndLo: hndLo,
		hndHi: hndHi,
		runs:  make([]atomic.Pointer[blockRun], r.Size),
	}
	mem.copyOut(r.Lo, tr.code)
	return tr
}

// traceFor returns the decode trace covering pc, building one on first
// entry into an executable region. Fetching from guard space or a
// non-executable region faults.
func (m *Machine) traceFor(pc uint64) (*codeTrace, *Fault) {
	for _, tr := range m.traces {
		if pc-tr.lo < tr.size {
			return tr, nil
		}
	}
	r := m.Mem.Find(pc)
	if r == nil {
		return nil, &Fault{Kind: FaultUnmapped, Addr: pc, Msg: "fetch from guard space"}
	}
	if r.Perm&PermX == 0 {
		return nil, &Fault{Kind: FaultNX, Addr: pc, Msg: "fetch from " + r.Name}
	}
	tr := newCodeTrace(m.Mem, r, m.hndLo, m.hndHi)
	m.traces = append(m.traces, tr)
	return tr, nil
}

// RegisterCode eagerly builds the machine's private decode trace for the
// executable region containing addr (decode itself stays lazy, per
// block). The loader calls this, once the image bytes are in place, when
// no shared code could be attached, so the first fetch does not pay the
// region snapshot.
func (m *Machine) RegisterCode(addr uint64) *Fault {
	_, f := m.traceFor(addr)
	return f
}

// SharedCode is the decoded code of one executable region, built from one
// machine and referenced by every machine that attaches it, on any
// goroutine.
type SharedCode struct {
	tr *codeTrace
}

// ShareCode returns the decode trace of the executable region containing
// addr, built from m's current bytes and trusted-handler range if m has
// none yet, for other machines to AttachCode. m keeps using it.
func (m *Machine) ShareCode(addr uint64) (*SharedCode, *Fault) {
	tr, f := m.traceFor(addr)
	if f != nil {
		return nil, f
	}
	return &SharedCode{tr: tr}, nil
}

// AttachCode makes m execute its code region through c, and reports
// whether it did. It attaches only when m has an executable region with
// exactly c's bounds and bytes and m's trusted-handler range is the one
// c was built for — call RefreshHandlers first. Any trace m held before
// is dropped.
func (m *Machine) AttachCode(c *SharedCode) bool {
	tr := c.tr
	r := m.Mem.Find(tr.lo)
	if r == nil || r.Lo != tr.lo || r.Size != tr.size || r.Perm&PermX == 0 ||
		m.hndLo != tr.hndLo || m.hndHi != tr.hndHi || !m.Mem.equal(tr.lo, tr.code) {
		return false
	}
	m.flushTraces()
	m.traces = append(m.traces, tr)
	return true
}

// flushTraces drops the machine's reference to every decode trace, and
// each thread's bite-resume point, which lives inside one. Code patches
// and trusted-handler range changes call it; the traces themselves are
// left untouched, since other machines may still share them.
func (m *Machine) flushTraces() {
	m.traces = nil
	m.lastTrace = nil
	for _, t := range m.Threads {
		t.resume = nil
	}
}
