package confllvm_test

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"confllvm"
	"confllvm/internal/bench"
	"confllvm/internal/chaos"
	"confllvm/internal/machine"
	"confllvm/internal/scenario"
)

// Every machine Prepare loads from one Artifact shares the image's
// decoded code. These tests check that the sharing is invisible: machines
// running at once on one Artifact, and a machine whose code is corrupted
// after load, leave every other machine's result exactly as it would be
// on an Artifact of its own.

var sharedVariants = []confllvm.Variant{confllvm.VariantBase, confllvm.VariantMPX, confllvm.VariantSeg}

// serveJob is one serve request batch: a scenario family under a variant
// with one traffic seed.
type serveJob struct {
	family  int
	variant int
	spec    scenario.Spec
	wl      bench.Workload
}

func serveJobs(seeds []uint64) []serveJob {
	var jobs []serveJob
	for f, s := range []scenario.Spec{scenario.DefaultKV(true), scenario.DefaultTLSH(true), scenario.DefaultMerkleFS(true)} {
		for v := range sharedVariants {
			for _, seed := range seeds {
				s.Seed = scenario.MixSeed(seed, uint64(f))
				jobs = append(jobs, serveJob{family: f, variant: v, spec: s, wl: bench.ScenarioWorkload(s)})
			}
		}
	}
	return jobs
}

func compileJob(t *testing.T, j serveJob) *confllvm.Artifact {
	t.Helper()
	v := sharedVariants[j.variant]
	art, err := confllvm.Compile(j.wl.Prog(v), v)
	if err != nil {
		t.Fatalf("%s [%v]: %v", j.spec.Name, v, err)
	}
	return art
}

func prepareFinish(art *confllvm.Artifact, w *confllvm.World) (*confllvm.Result, error) {
	p, err := confllvm.Prepare(art, w, nil)
	if err != nil {
		return nil, err
	}
	return p.Finish(), nil
}

// sameResult reports how got differs from want in any observable or
// simulated quantity: exit code, fault, outputs, network output, log,
// architectural stats and wall cycles.
func sameResult(want, got *confllvm.Result) error {
	switch {
	case want.ExitCode != got.ExitCode:
		return fmt.Errorf("exit code %d, want %d", got.ExitCode, want.ExitCode)
	case (want.Fault == nil) != (got.Fault == nil),
		want.Fault != nil && (*want.Fault != *got.Fault || want.Fault.Error() != got.Fault.Error()):
		return fmt.Errorf("fault %v, want %v", got.Fault, want.Fault)
	case !reflect.DeepEqual(want.Outputs, got.Outputs):
		return fmt.Errorf("outputs %v, want %v", got.Outputs, want.Outputs)
	case len(want.NetOut) != len(got.NetOut):
		return fmt.Errorf("%d packets out, want %d", len(got.NetOut), len(want.NetOut))
	case !bytes.Equal(want.Log, got.Log):
		return fmt.Errorf("log %q, want %q", got.Log, want.Log)
	case want.Stats.Arch() != got.Stats.Arch():
		return fmt.Errorf("stats %+v, want %+v", got.Stats.Arch(), want.Stats.Arch())
	case want.WallCycles != got.WallCycles:
		return fmt.Errorf("wall cycles %d, want %d", got.WallCycles, want.WallCycles)
	}
	for i := range want.NetOut {
		if !bytes.Equal(want.NetOut[i], got.NetOut[i]) {
			return fmt.Errorf("packet %d out differs", i)
		}
	}
	return nil
}

// TestSharedCodeConcurrentPrepare: 8 goroutines each serve kv, tlsh and
// merklefs traffic (several seeds) under Base, OurMPX and OurSeg against
// one shared Artifact per program and variant, starting before any of
// them was ever prepared. Every result must equal a sequential run on
// fresh Artifacts, and every machine of one Artifact must have run on the
// same shared code.
func TestSharedCodeConcurrentPrepare(t *testing.T) {
	jobs := serveJobs([]uint64{1, 2, 3})
	want := make([]*confllvm.Result, len(jobs))
	for i, j := range jobs {
		res, err := prepareFinish(compileJob(t, j), j.wl.World())
		if err != nil {
			t.Fatal(err)
		}
		if err := j.wl.Check(res); err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	// One shared Artifact per (family, variant), never prepared yet.
	shared := map[[2]int]*confllvm.Artifact{}
	for _, j := range jobs {
		if k := [2]int{j.family, j.variant}; shared[k] == nil {
			shared[k] = compileJob(t, j)
		}
	}
	const workers = 8
	errs := make(chan error, workers*len(jobs))
	var mu sync.Mutex
	codes := map[[2]int]map[machine.SharedCode]bool{}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := range jobs {
				i := (n + g*len(jobs)/workers) % len(jobs) // stagger the start
				j := jobs[i]
				k := [2]int{j.family, j.variant}
				art := shared[k]
				got, err := prepareFinish(art, j.wl.World())
				if err == nil {
					err = sameResult(want[i], got)
				}
				if err == nil {
					sc, f := got.Machine.ShareCode(art.Image.Layout.CodeBase)
					if f != nil {
						err = f
					} else {
						mu.Lock()
						if codes[k] == nil {
							codes[k] = map[machine.SharedCode]bool{}
						}
						codes[k][*sc] = true
						mu.Unlock()
					}
				}
				if err != nil {
					errs <- fmt.Errorf("worker %d, %s [%v]: %v", g, j.spec.Name, sharedVariants[j.variant], err)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for k, cs := range codes {
		if len(cs) != 1 {
			t.Errorf("family %d [%v]: machines ran on %d decoded codes, want one shared",
				k[0], sharedVariants[k[1]], len(cs))
		}
	}
}

// TestCodeBombStaysInItsMachine corrupts the code of one Prepared machine
// the way the chaos supervisor does — an invalid opcode at a function
// entry, written after load — on an Artifact whose shared code has
// already run that function. The bombed machine must fault on it, and
// the next Prepare of the Artifact must run byte-identical to a pristine
// run on a fresh Artifact.
func TestCodeBombStaysInItsMachine(t *testing.T) {
	for _, j := range serveJobs([]uint64{1}) {
		v := sharedVariants[j.variant]
		t.Run(fmt.Sprintf("%s/%v", j.spec.Workload, v), func(t *testing.T) {
			pristine, err := prepareFinish(compileJob(t, j), j.wl.World())
			if err != nil {
				t.Fatal(err)
			}
			art := compileJob(t, j)
			warm, err := prepareFinish(art, j.wl.World())
			if err != nil {
				t.Fatal(err)
			}
			if err := sameResult(pristine, warm); err != nil {
				t.Fatalf("first run on the shared Artifact: %v", err)
			}

			p, err := confllvm.Prepare(art, j.wl.World(), nil)
			if err != nil {
				t.Fatal(err)
			}
			main := art.Image.Func("main")
			if f := p.Machine().Mem.WriteBytesUnchecked(main.Entry, []byte{chaos.InvalidOpcode}); f != nil {
				t.Fatal(f)
			}
			bombed := p.Finish()
			if bombed.Fault == nil || bombed.Fault.Kind != machine.FaultDecode || bombed.Fault.PC != main.Entry {
				t.Fatalf("bombed machine: fault %v, want a decode fault at main (%#x)", bombed.Fault, main.Entry)
			}

			after, err := prepareFinish(art, j.wl.World())
			if err != nil {
				t.Fatal(err)
			}
			if err := sameResult(pristine, after); err != nil {
				t.Fatalf("run after the code bomb: %v", err)
			}
			// Both clean machines ran on the Artifact's shared code.
			a, fa := warm.Machine.ShareCode(art.Image.Layout.CodeBase)
			b, fb := after.Machine.ShareCode(art.Image.Layout.CodeBase)
			if fa != nil || fb != nil || *a != *b {
				t.Fatal("the machines prepared from one Artifact do not share its decoded code")
			}
		})
	}
}
