package bench

import (
	"fmt"

	"confllvm"
	"confllvm/internal/machine"
	"confllvm/internal/obs"
	"confllvm/internal/scenario"
)

// Workload is one named, compilable benchmark program together with its
// input world: the unit that the figure tables, confbench's superblock
// on/off sweep, and the differential-execution tests all iterate over.
type Workload struct {
	// Key is the artifact-cache key, stable across parameterizations of
	// the same program (CompileCached adds variant and taint mode).
	Key string
	// Name labels this parameterization in tables and test names.
	Name string
	// Prog builds the compilation request; some workloads (the Privado
	// classifier) compile differently per variant.
	Prog func(confllvm.Variant) confllvm.Program
	// World builds a fresh input world (worlds are consumed by runs).
	World func() *confllvm.World
	// Check validates the observable outcome beyond fault-freedom (nil =
	// fault-free is enough).
	Check func(*confllvm.Result) error
}

// Run compiles (cached) and executes the workload under a variant with an
// optional machine configuration (nil = the default cost model, which has
// superblock dispatch enabled).
func (wl *Workload) Run(v confllvm.Variant, mconf *machine.Config) (*Measurement, error) {
	art, err := CompileCached(wl.Key, v, wl.Prog(v))
	if err != nil {
		return nil, err
	}
	res, hostNS, err := timedRun(art, wl.World(), mconf)
	if err != nil {
		return nil, err
	}
	if res.Fault != nil {
		return nil, fmt.Errorf("%s [%v]: %v", wl.Name, v, res.Fault)
	}
	if wl.Check != nil {
		if err := wl.Check(res); err != nil {
			return nil, fmt.Errorf("%s [%v]: %w", wl.Name, v, err)
		}
	}
	m := &Measurement{Variant: v, Wall: res.WallCycles, Stats: res.Stats,
		Outputs: res.Outputs, Res: res, HostNS: hostNS}
	if res.Profile != nil {
		m.Profile = obs.FlattenProfile(res.Profile, art.Image)
	}
	return m, nil
}

// SPECWorkload wraps one SPEC-like kernel with explicit input parameters.
func SPECWorkload(k SPECKernel, params []int64) Workload {
	return Workload{
		Key:  "spec-" + k.Name,
		Name: k.Name,
		Prog: func(confllvm.Variant) confllvm.Program {
			return confllvm.Program{
				Sources: []confllvm.Source{
					{Name: k.Name + ".c", Code: k.Src},
					{Name: "ulib.c", Code: ULib},
				},
				Strict: true, // SPEC has no private data; strict mode is free
			}
		},
		World: func() *confllvm.World {
			w := confllvm.NewWorld()
			w.Params = params
			return w
		},
	}
}

// WebWorkload wraps the NGINX analogue serving nReqs requests of fileSize
// bytes.
func WebWorkload(nReqs, fileSize int) Workload {
	return Workload{
		Key:  "webserver",
		Name: fmt.Sprintf("webserver-%dx%dB", nReqs, fileSize),
		Prog: func(confllvm.Variant) confllvm.Program {
			return confllvm.Program{Sources: []confllvm.Source{
				{Name: "webserver.c", Code: WebServerSrc},
				{Name: "ulib.c", Code: ULib},
			}}
		},
		World: func() *confllvm.World { return WebWorld(nReqs, fileSize) },
		Check: func(res *confllvm.Result) error {
			if len(res.Outputs) != 1 || res.Outputs[0] != int64(nReqs) {
				return fmt.Errorf("served %v of %d requests", res.Outputs, nReqs)
			}
			return nil
		},
	}
}

// LDAPWorkload wraps the directory server issuing queries with the given
// miss rate (percent).
func LDAPWorkload(queries, missRate int) Workload {
	return Workload{
		Key:  "ldap",
		Name: fmt.Sprintf("ldap-%dq", queries),
		Prog: func(confllvm.Variant) confllvm.Program {
			return confllvm.Program{Sources: []confllvm.Source{
				{Name: "ldap.c", Code: LDAPSrc},
				{Name: "ulib.c", Code: ULib},
			}}
		},
		World: func() *confllvm.World { return LDAPWorld(queries, missRate) },
	}
}

// LDAPWorld builds the directory-server input world.
func LDAPWorld(queries, missRate int) *confllvm.World {
	w := confllvm.NewWorld()
	w.Params = []int64{int64(queries), int64(missRate)}
	return w
}

// ClassifierWorkload wraps the Privado private-inference network
// classifying `images` inputs. The instrumented variants compile in the
// paper's all-private SGX mode.
func ClassifierWorkload(images int) Workload {
	return Workload{
		Key:  "classifier",
		Name: fmt.Sprintf("classifier-%dimg", images),
		Prog: func(v confllvm.Variant) confllvm.Program {
			return confllvm.Program{
				Sources: []confllvm.Source{
					{Name: "classifier.c", Code: ClassifierSrc},
					{Name: "ulib.c", Code: ULib},
				},
				AllPrivate: v != confllvm.VariantBase && v != confllvm.VariantBaseOA,
			}
		},
		World: func() *confllvm.World { return ClassifierWorld(images) },
	}
}

// ClassifierWorld builds the classifier input world: a seeded image and
// three weight matrices, delivered through the private-input channel.
func ClassifierWorld(images int) *confllvm.World {
	w := confllvm.NewWorld()
	w.Params = []int64{int64(images)}
	mk := func(n int, scale float64) []byte {
		vals := make([]float64, n)
		s := int64(99)
		for i := range vals {
			s = s*6364136223846793005 + 1442695040888963407
			vals[i] = (float64(s%1000)/500 - 1) * scale
		}
		return packFloats(vals)
	}
	w.PrivIn[0] = mk(192, 1)      // image (192*8 = 1.5 KB)
	w.PrivIn[1] = mk(192*48, 0.1) // w0
	w.PrivIn[2] = mk(48*48, 0.1)  // wh
	w.PrivIn[3] = mk(48*10, 0.1)  // wo
	return w
}

// MerkleWorkload wraps the multi-threaded integrity-protected read
// library: a fileKB-kilobyte file scanned by nThreads parallel readers.
func MerkleWorkload(fileKB, nThreads int) Workload {
	return Workload{
		Key:  "merkle",
		Name: fmt.Sprintf("merkle-%dKBx%dt", fileKB, nThreads),
		Prog: func(confllvm.Variant) confllvm.Program {
			return confllvm.Program{Sources: []confllvm.Source{
				{Name: "merkle.c", Code: MerkleSrc},
				{Name: "ulib.c", Code: ULib},
			}}
		},
		World: func() *confllvm.World { return MerkleWorld(fileKB, nThreads) },
		Check: func(res *confllvm.Result) error {
			for _, o := range res.Outputs {
				if o < 0 {
					return fmt.Errorf("integrity verification failed (%d)", o)
				}
			}
			return nil
		},
	}
}

// MerkleWorld builds the Merkle-FS input world.
func MerkleWorld(fileKB, nThreads int) *confllvm.World {
	w := confllvm.NewWorld()
	w.Params = []int64{int64(fileKB * 1024), int64(nThreads)}
	data := make([]byte, fileKB*1024)
	for i := range data {
		data[i] = byte(i * 7)
	}
	w.PrivIn[0] = data
	return w
}

// Workloads returns the default parameterization of every benchmark
// program, including the examples' quickstart handler. short selects
// reduced inputs (same code paths, fewer iterations) — the differential
// tests use them even in full mode, since dispatch-mode coverage does not
// grow with iteration count; the golden figures (cmd/confbench/testdata)
// cover the full-scale runs under stepping and superblock dispatch.
func Workloads(short bool) []Workload {
	var wls []Workload
	for _, k := range SPECKernels() {
		wls = append(wls, SPECWorkload(k, k.EffectiveParams(short)))
	}
	reqs, size := 6, 2048
	queries := 300
	images := 2
	fileKB, threads := 64, 3
	if short {
		reqs, size = 3, 512
		queries = 60
		images = 1
		fileKB, threads = 16, 2
	}
	wls = append(wls,
		WebWorkload(reqs, size),
		LDAPWorkload(queries, 50),
		ClassifierWorkload(images),
		MerkleWorkload(fileKB, threads),
		QuickstartWorkload(),
		// The scenario-driven families: seeded traffic from
		// internal/scenario, outputs checked against the generator's
		// predictions. Registering them here puts KV/TLS-ish traffic under
		// the differential and fuzz harnesses with zero extra wiring.
		KVWorkload(scenario.DefaultKV(short)),
		TLSHWorkload(scenario.DefaultTLSH(short)),
		MerkleFSWorkload(scenario.DefaultMerkleFS(short)),
	)
	return wls
}
