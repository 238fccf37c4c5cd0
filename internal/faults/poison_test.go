package faults

import (
	"math"
	"testing"
)

func sampleParams(n int, scale float32) []float32 {
	p := make([]float32, n)
	for i := range p {
		p[i] = scale * float32(i%7-3)
	}
	return p
}

func l2(p []float32) float64 {
	var s float64
	for _, v := range p {
		s += float64(float64(v) * float64(v))
	}
	return math.Sqrt(s)
}

func TestPoisonerSignFlipRaw(t *testing.T) {
	p := &Poisoner{} // zero value sign-flips
	params := sampleParams(32, 1)
	orig := append([]float32(nil), params...)
	p.Corrupt(params, nil, 1, 0)
	for i := range params {
		if params[i] != -orig[i] {
			t.Fatalf("index %d: %v, want %v", i, params[i], -orig[i])
		}
	}
}

// The delta semantics: with a reference, sign-flip reflects the model
// through the reference, so the contribution params-ref is exactly
// negated and the reference itself is a fixed point.
func TestPoisonerSignFlipDelta(t *testing.T) {
	p := &Poisoner{}
	ref := sampleParams(32, 2)
	params := sampleParams(32, 1)
	orig := append([]float32(nil), params...)
	p.Corrupt(params, ref, 1, 0)
	for i := range params {
		want := 2*ref[i] - orig[i]
		if math.Abs(float64(params[i]-want)) > 1e-6 {
			t.Fatalf("index %d: %v, want %v", i, params[i], want)
		}
	}
	same := append([]float32(nil), ref...)
	p.Corrupt(same, ref, 1, 0)
	for i := range same {
		if same[i] != ref[i] {
			t.Fatalf("a zero contribution must stay at the reference, index %d: %v vs %v",
				i, same[i], ref[i])
		}
	}
}

func TestPoisonerScale(t *testing.T) {
	p := &Poisoner{Kind: AttackScale, Lambda: -2}
	ref := sampleParams(32, 2)
	params := sampleParams(32, 1)
	orig := append([]float32(nil), params...)
	p.Corrupt(params, ref, 3, 5)
	for i := range params {
		want := ref[i] + float32((orig[i]-ref[i])*(-2))
		if math.Abs(float64(params[i]-want)) > 1e-5 {
			t.Fatalf("index %d: %v, want %v", i, params[i], want)
		}
	}
}

func TestPoisonerRefLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Corrupt accepted a mismatched reference")
		}
	}()
	(&Poisoner{}).Corrupt(make([]float32, 4), make([]float32, 3), 1, 0)
}

// Corrupt must be a pure function of (Seed, round, client): replaying the
// same coordinates yields bit-identical corruption, and different rounds
// or clients yield different noise.
func TestPoisonerNoiseDeterminism(t *testing.T) {
	p := &Poisoner{Kind: AttackNoise, Sigma: 0.5, Seed: 11}
	a := sampleParams(64, 1)
	b := sampleParams(64, 1)
	p.Corrupt(a, nil, 4, 2)
	p.Corrupt(b, nil, 4, 2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("noise replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := sampleParams(64, 1)
	p.Corrupt(c, nil, 5, 2) // different round
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("noise stream identical across rounds")
	}
}

// Drift is the coordinated attack: every colluder in a round pushes the
// same direction, scaled to Lambda times its own honest contribution's
// norm.
func TestPoisonerDriftCoordination(t *testing.T) {
	p := &Poisoner{Kind: AttackDrift, Lambda: 2, Seed: 7}
	a := sampleParams(128, 1)
	b := sampleParams(128, 3) // different honest update, 3x the norm
	origA, origB := l2(a), l2(b)
	p.Corrupt(a, nil, 9, 0)
	p.Corrupt(b, nil, 9, 5)

	// Same direction regardless of client: cosine similarity exactly 1
	// up to float32 rounding.
	var dot float64
	for i := range a {
		dot += float64(float64(a[i]) * float64(b[i]))
	}
	cos := dot / (l2(a) * l2(b))
	if cos < 1-1e-6 {
		t.Fatalf("colluders diverged: cosine %v", cos)
	}
	if got := l2(a); math.Abs(got-2*origA) > 1e-3*origA {
		t.Fatalf("drift norm %v, want %v", got, 2*origA)
	}
	if got := l2(b); math.Abs(got-2*origB) > 1e-3*origB {
		t.Fatalf("drift norm %v, want %v", got, 2*origB)
	}

	// A different round drifts somewhere else.
	c := sampleParams(128, 1)
	p.Corrupt(c, nil, 10, 0)
	dot = 0
	for i := range a {
		dot += float64(float64(a[i]) * float64(c[i]))
	}
	if cos := dot / (l2(a) * l2(c)); cos > 0.99 {
		t.Fatalf("drift direction identical across rounds: cosine %v", cos)
	}
}

// With a reference, the drift contribution is measured and re-based
// against it: ||corrupted - ref|| = Lambda * ||orig - ref||.
func TestPoisonerDriftDelta(t *testing.T) {
	p := &Poisoner{Kind: AttackDrift, Lambda: 2, Seed: 7}
	ref := sampleParams(128, 5)
	params := append([]float32(nil), ref...)
	for i := range params {
		params[i] += float32(float32(i%3) * 0.5) // a small honest contribution
	}
	var orig float64
	for i := range params {
		d := float64(params[i]) - float64(ref[i])
		orig += float64(d * d)
	}
	orig = math.Sqrt(orig)
	p.Corrupt(params, ref, 2, 1)
	var got float64
	for i := range params {
		d := float64(params[i]) - float64(ref[i])
		got += float64(d * d)
	}
	got = math.Sqrt(got)
	if math.Abs(got-2*orig) > 1e-2*orig {
		t.Fatalf("drift contribution norm %v, want %v", got, 2*orig)
	}
}

func TestPoisonerDriftZeroUpdate(t *testing.T) {
	p := &Poisoner{Kind: AttackDrift, Lambda: 2, Seed: 1}
	params := make([]float32, 16)
	p.Corrupt(params, nil, 1, 0)
	if got := l2(params); math.Abs(got-2) > 1e-3 {
		t.Fatalf("zero update must drift at norm Lambda x 1, got %v", got)
	}
}

func TestParseAttackRoundTrip(t *testing.T) {
	specs := map[string]string{
		"signflip":  "signflip",
		"scale":     "scale:-2",
		"scale:3.5": "scale:3.5",
		"noise":     "noise:1",
		"noise:0.1": "noise:0.1",
		"drift":     "drift:2",
		"drift:1.5": "drift:1.5",
	}
	for spec, want := range specs {
		p, err := ParseAttack(spec)
		if err != nil {
			t.Fatalf("ParseAttack(%q): %v", spec, err)
		}
		if got := p.String(); got != want {
			t.Fatalf("ParseAttack(%q).String() = %q, want %q", spec, got, want)
		}
	}
	for _, spec := range []string{"", "grad", "signflip:2", "scale:x", "noise:y", "drift:"} {
		if _, err := ParseAttack(spec); err == nil {
			t.Fatalf("ParseAttack(%q) accepted a bad spec", spec)
		}
	}
}

func TestColluders(t *testing.T) {
	a := Colluders(42, 10, 0.4)
	b := Colluders(42, 10, 0.4)
	if len(a) != 4 {
		t.Fatalf("len = %d, want 4", len(a))
	}
	for id := range a {
		if !b[id] {
			t.Fatal("Colluders not deterministic for equal seeds")
		}
		if id < 0 || id >= 10 {
			t.Fatalf("colluder id %d out of range", id)
		}
	}
	if len(Colluders(42, 10, 0)) != 0 {
		t.Fatal("frac 0 must pick nobody")
	}
	if len(Colluders(42, 10, 1)) != 10 {
		t.Fatal("frac 1 must pick everyone")
	}
}
