package bench

import (
	"testing"

	"confllvm"
)

// TestSPECKernelsCrossVariant runs every kernel under Base and the two
// ablation variants Figure 5 does not render, OurMPX-Sep and Our1Mem, and
// requires bit-identical outputs: the instrumentation must never change
// program semantics. The other five configurations are checked against
// Base, at the same full-size inputs, by the Figure 5 render itself
// (checkFig5 in cmd/confbench, run by TestGoldenFigures/5).
func TestSPECKernelsCrossVariant(t *testing.T) {
	for _, k := range SPECKernels() {
		k := k
		k.Params = k.EffectiveParams(testing.Short())
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel() // kernels are independent (workload, variant) cells
			var golden []int64
			for _, v := range []confllvm.Variant{confllvm.VariantBase,
				confllvm.VariantMPXSep, confllvm.VariantOneMem} {
				m, err := RunSPEC(k, v)
				if err != nil {
					t.Fatalf("[%v] %v", v, err)
				}
				if len(m.Outputs) == 0 {
					t.Fatalf("[%v] no output", v)
				}
				if golden == nil {
					golden = m.Outputs
					continue
				}
				if len(m.Outputs) != len(golden) {
					t.Fatalf("[%v] output arity mismatch", v)
				}
				for i := range golden {
					if m.Outputs[i] != golden[i] {
						t.Errorf("[%v] output[%d] = %d, want %d (semantics changed by instrumentation)",
							v, i, m.Outputs[i], golden[i])
					}
				}
			}
		})
	}
}

// TestSPECKernelsPassVerifyGate compiles every kernel under the
// deployable (verifiable) variants and runs the binary verifier on each.
// Regression for a check-coalescing soundness bug: reloading a spilled
// pointer into a scratch register used to leave the register's coalesced
// MPX-check entry live, so the reloaded pointer was dereferenced on
// another pointer's bound check — miscompiled code that the
// verify-before-load gate rejected.
func TestSPECKernelsPassVerifyGate(t *testing.T) {
	for _, k := range SPECKernels() {
		wl := SPECWorkload(k, k.EffectiveParams(true))
		for _, v := range []confllvm.Variant{confllvm.VariantMPX, confllvm.VariantSeg} {
			art, err := confllvm.Compile(wl.Prog(v), v)
			if err != nil {
				t.Fatalf("[%v/%s] compile: %v", v, k.Name, err)
			}
			if !art.Verifiable() {
				t.Fatalf("[%v/%s] expected a verifiable configuration", v, k.Name)
			}
			if err := confllvm.Verify(art); err != nil {
				t.Errorf("[%v/%s] verifier rejected compiler output: %v", v, k.Name, err)
			}
		}
	}
}
