// Package scenario is the traffic engine that sits between the bench
// workloads and the parallel matrix: it turns a declarative Spec (request
// mix, key-space size, hit/miss ratio, value-size distribution, request
// multiplier, client count) into a concrete, fully deterministic request
// stream — the wire packets a workload program consumes through the
// trusted runtime's recv — plus the exact scalar outputs the program must
// produce when it serves that stream.
//
// Determinism is the contract the whole bench story rests on: the same
// Spec (including Seed) always yields byte-identical wire packets and the
// same expected outputs, on any host, under any matrix scheduling. The
// generator therefore uses its own splitmix64 streams (one per simulated
// client, derived from Spec.Seed) and never touches math/rand, time, or
// any global state. Distinct seeds yield distinct streams.
//
// The engine also predicts the workload's observable outcome: while
// emitting requests it simulates the server's state (which keys are
// present, which handshakes resume), so Traffic returns the expected
// output vector alongside the packets and the bench harness can check the
// run end to end, not just fault-freedom.
package scenario

import "fmt"

// Workload family names understood by Traffic.
const (
	// WorkloadKV is the confidential key-value store: private-partition
	// values, public wire buffers, get/put/delete/scan over T's handlers.
	WorkloadKV = "kv"
	// WorkloadTLSH is the TLS-ish handshake: nonce exchange, key-schedule
	// mixing in private memory, transcript hash on the public side.
	WorkloadTLSH = "tlsh"
	// WorkloadMerkleFS is the confidential merkle block store: private
	// block contents, public per-block integrity hashes over the wire
	// ciphertext, read/write over T's handlers.
	WorkloadMerkleFS = "merklefs"
)

// MaxValueLen is the largest value a KV request may carry; it must match
// the MAXV capacity of the miniC store's private value buffers.
const MaxValueLen = 128

// Spec declares one traffic scenario. The zero value of most fields is
// normalized to a sensible default (see normalized); Name, Workload and
// Seed are the caller's responsibility.
type Spec struct {
	// Name labels the scenario in tables, test names and JSON rows.
	Name string
	// Workload selects the family: WorkloadKV or WorkloadTLSH.
	Workload string
	// Seed drives every random choice. Same seed, same stream — always.
	Seed uint64
	// Requests is the base request count per client.
	Requests int
	// Multiplier scales the request count (the 1x/10x/100x sweeps).
	Multiplier int
	// Clients is the number of interleaved client streams. Each client
	// has its own derived RNG; requests are interleaved round-robin, so
	// the client count changes the stream deterministically.
	Clients int

	// KeySpace is the KV key universe [0, KeySpace). Miss traffic draws
	// keys that are absent by construction but congruent mod KVBuckets
	// with the present range, so misses still walk hash chains.
	KeySpace uint64
	// Preload emits this many puts of distinct keys before the measured
	// mix, so hit targeting is meaningful from the first request.
	Preload int
	// HitPct targets the hit ratio: for KV it is the percent of gets
	// aimed at present keys; for TLSH it is the session-resumption rate.
	HitPct int
	// GetPct/PutPct/DelPct is the KV op mix in percent; the remainder is
	// scans.
	GetPct, PutPct, DelPct int
	// ValueMin/ValueMax bound the KV value-size distribution (bytes).
	ValueMin, ValueMax int
	// ScanSpan is the key width of one scan request.
	ScanSpan uint64
}

// normalized fills defaulted fields and clamps the ones with hard limits.
func (s Spec) normalized() Spec {
	if s.Requests < 0 {
		s.Requests = 0
	}
	if s.Multiplier < 1 {
		s.Multiplier = 1
	}
	if s.Clients < 1 {
		s.Clients = 1
	}
	if s.HitPct < 0 {
		s.HitPct = 0
	}
	if s.HitPct > 100 {
		s.HitPct = 100
	}
	if s.Workload == WorkloadMerkleFS {
		if s.KeySpace == 0 || s.KeySpace > MFSBlocks {
			s.KeySpace = MFSBlocks
		}
		if s.ValueMin <= 0 {
			s.ValueMin = 8
		}
		if s.ValueMax < s.ValueMin {
			s.ValueMax = s.ValueMin
		}
		if s.ValueMax > MFSMaxBlock {
			s.ValueMax = MFSMaxBlock
		}
		if s.Preload < 0 {
			s.Preload = 0
		}
		// Preload probes linearly for unwritten blocks, same discipline
		// as the KV preload.
		if s.Preload > int(s.KeySpace)/2 {
			s.Preload = int(s.KeySpace) / 2
		}
		if s.PutPct < 0 || s.PutPct > 100 {
			s.PutPct = 30
		}
	}
	if s.Workload == WorkloadKV {
		if s.KeySpace == 0 {
			s.KeySpace = 256
		}
		if s.ValueMin <= 0 {
			s.ValueMin = 8
		}
		if s.ValueMax < s.ValueMin {
			s.ValueMax = s.ValueMin
		}
		if s.ValueMax > MaxValueLen {
			s.ValueMax = MaxValueLen
		}
		if s.ScanSpan == 0 {
			s.ScanSpan = 8
		}
		if s.Preload < 0 {
			s.Preload = 0
		}
		// Preload probes linearly for absent keys; keep it under half the
		// key space so it always terminates quickly.
		if s.Preload > int(s.KeySpace)/2 {
			s.Preload = int(s.KeySpace) / 2
		}
		if s.GetPct < 0 {
			s.GetPct = 0
		}
		if s.PutPct < 0 {
			s.PutPct = 0
		}
		if s.DelPct < 0 {
			s.DelPct = 0
		}
		if s.GetPct+s.PutPct+s.DelPct > 100 {
			// Degenerate mixes fall back to the default.
			s.GetPct, s.PutPct, s.DelPct = 60, 25, 5
		}
	}
	return s
}

// TotalRequests is the number of wire requests the scenario emits — the
// req/s scale of its table cells.
func (s Spec) TotalRequests() int {
	s = s.normalized()
	n := s.Requests * s.Multiplier * s.Clients
	if s.Workload == WorkloadKV || s.Workload == WorkloadMerkleFS {
		n += s.Preload
	}
	return n
}

// Traffic generates the scenario's request stream: the wire packets (in
// send order) and the expected output vector of the serving program. Both
// are pure functions of the Spec.
//
// Expected-output layout:
//
//	WorkloadKV:       [processed, getHits, getMisses, puts, delHits, scanHits]
//	WorkloadTLSH:     [done, fullHandshakes, resumedHandshakes, transcript]
//	WorkloadMerkleFS: [processed, writes, readHits, readMisses, rootAcc, readAcc]
func Traffic(s Spec) (wire [][]byte, expect []int64, err error) {
	switch s.Workload {
	case WorkloadKV:
		wire, expect = kvTraffic(s.normalized())
		return wire, expect, nil
	case WorkloadTLSH:
		wire, expect = tlshTraffic(s.normalized())
		return wire, expect, nil
	case WorkloadMerkleFS:
		wire, expect = mfsTraffic(s.normalized())
		return wire, expect, nil
	default:
		return nil, nil, fmt.Errorf("scenario: unknown workload family %q (want %q, %q or %q)",
			s.Workload, WorkloadKV, WorkloadTLSH, WorkloadMerkleFS)
	}
}

// ---- Deterministic randomness ----

// rng is a splitmix64 stream: tiny, fast, and — unlike math/rand — a
// frozen algorithm, so streams can never drift across Go releases.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n). The modulo bias is irrelevant for
// traffic shaping and keeps the stream definition trivial.
func (r *rng) intn(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return r.next() % n
}

// mix derives a child seed from a parent seed and a tag path, so every
// client stream and every grid cell gets an independent stream while
// remaining a pure function of the base seed.
func mix(vals ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h ^= v
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		h *= 0xc4ceb9fe1a85ec53
		h ^= h >> 29
	}
	return h
}

// clientRNGs builds one derived stream per simulated client.
func clientRNGs(s Spec) []*rng {
	rs := make([]*rng, s.Clients)
	for i := range rs {
		rs[i] = newRNG(mix(s.Seed, 1, uint64(i)))
	}
	return rs
}
