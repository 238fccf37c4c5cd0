package faults

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// Adversarial-client injection. The Transport/Middleware side of this
// package breaks the *channel*; a Poisoner breaks the *content*: it turns
// an honest client into a Byzantine one by mutating its locally trained
// update just before upload. The attacks are the standard model-poisoning
// repertoire, and every one is parameterized so chaos tests can dial the
// strength until a mean-based aggregator demonstrably fails while a
// robust one holds.
//
// Attacks target the client's *learning contribution* — the delta between
// its trained model and the global reference it downloaded — not the raw
// parameter vector. Sign-flipping a whole model would be trivially
// detectable (and would mostly cancel itself); sign-flipping the delta is
// the canonical stealthy attack: the upload stays model-shaped, finite,
// and norm-plausible, yet every poisoned coordinate pulls training
// backwards. Callers that have no reference pass nil and the delta
// degenerates to the raw vector.
//
// All randomness is derived from (Seed, round, client), so a poisoning
// run replays exactly; the Drift attack deliberately keys its direction
// on (Seed, round) only, which is what makes a colluding set coordinated
// — every colluder pushes the *same* adversarial vector.

// AttackKind selects the poisoning strategy.
type AttackKind int

// The supported attacks.
const (
	// AttackSignFlip negates the client's contribution (untargeted model
	// poisoning at unchanged norm — it sails through any norm gate).
	AttackSignFlip AttackKind = iota
	// AttackScale multiplies the contribution by Lambda; a negative
	// Lambda is the classic "scaled sign-flip" that drags a mean-based
	// aggregate past the reference, actively unlearning each round.
	AttackScale
	// AttackNoise adds i.i.d. Gaussian noise with standard deviation
	// Sigma to every parameter (per-client randomness).
	AttackNoise
	// AttackDrift replaces the contribution with a shared pseudorandom
	// direction scaled to Lambda times the honest contribution's norm:
	// the coordinated same-direction attack of a colluding set.
	AttackDrift
)

// Poisoner mutates client updates in place. The zero value sign-flips.
type Poisoner struct {
	Kind AttackKind
	// Lambda is the scale factor (AttackScale) or the drift magnitude as
	// a multiple of the honest update's norm (AttackDrift).
	Lambda float64
	// Sigma is the noise standard deviation (AttackNoise).
	Sigma float64
	// Seed makes the attack sequence deterministic and replayable.
	Seed int64
}

// String renders the attack as the spec ParseAttack accepts.
func (p *Poisoner) String() string {
	switch p.Kind {
	case AttackScale:
		return "scale:" + strconv.FormatFloat(p.Lambda, 'g', -1, 64)
	case AttackNoise:
		return "noise:" + strconv.FormatFloat(p.Sigma, 'g', -1, 64)
	case AttackDrift:
		return "drift:" + strconv.FormatFloat(p.Lambda, 'g', -1, 64)
	default:
		return "signflip"
	}
}

// Corrupt applies the attack to params in place. ref is the global model
// the client trained from: the attack corrupts the contribution
// params-ref and re-bases the result on ref, so the upload remains a
// plausible full model. A nil ref attacks the raw vector (zero
// reference). round and client key the deterministic random streams;
// colluding clients calling Corrupt with the same round produce identical
// Drift vectors regardless of client.
func (p *Poisoner) Corrupt(params, ref []float32, round, client int) {
	if ref != nil && len(ref) != len(params) {
		panic("faults: Corrupt reference length mismatch")
	}
	at := func(i int) float64 {
		if ref == nil {
			return 0
		}
		return float64(ref[i])
	}
	switch p.Kind {
	case AttackScale:
		l := p.Lambda
		for i, v := range params {
			r := at(i)
			params[i] = float32(r + float64((float64(v)-r)*l))
		}
	case AttackNoise:
		rng := attackRNG(p.Seed, round, client)
		for i, v := range params {
			params[i] = v + float32(float64(rng.NormFloat64()*p.Sigma))
		}
	case AttackDrift:
		var orig float64
		for i, v := range params {
			d := float64(v) - at(i)
			orig += float64(d * d)
		}
		orig = math.Sqrt(orig)
		if orig == 0 {
			orig = 1 // a zero contribution still drifts somewhere
		}
		// Direction keyed on the round only: every colluder pushes the
		// same vector, the worst case for a mean-based aggregator.
		rng := attackRNG(p.Seed, round, -1)
		dir := make([]float64, len(params))
		var gnorm float64
		for i := range dir {
			g := rng.NormFloat64()
			dir[i] = g
			gnorm += float64(g * g)
		}
		gnorm = math.Sqrt(gnorm)
		if gnorm == 0 {
			return
		}
		s := p.Lambda * orig / gnorm
		for i := range params {
			params[i] = float32(at(i) + float64(dir[i]*s))
		}
	default: // AttackSignFlip
		for i, v := range params {
			r := at(i)
			params[i] = float32(r - (float64(v) - r))
		}
	}
}

// attackRNG derives the deterministic stream for one (round, client)
// poisoning decision. The mixers are arbitrary odd constants, distinct
// from fedcore.ClientRNG's so an attack never replays a training stream.
func attackRNG(seed int64, round, client int) *rand.Rand {
	h := seed
	h ^= (int64(round) + 1) * 0x5851F42D4C957F2D
	h ^= (int64(client) + 2) * -0x61C8864680B583EB
	return rand.New(rand.NewSource(h))
}

// ParseAttack resolves an attack spec:
//
//	signflip          negate the update
//	scale:L           multiply by L (negative L flips and scales)
//	noise:S           add Gaussian noise with stddev S (default 1)
//	drift:L           coordinated drift at L times the honest norm (default 2)
//
// The caller seeds the returned Poisoner.
func ParseAttack(spec string) (*Poisoner, error) {
	name, arg, hasArg := strings.Cut(spec, ":")
	parse := func(dflt float64) (float64, error) {
		if !hasArg {
			return dflt, nil
		}
		v, err := strconv.ParseFloat(arg, 64)
		if err != nil {
			return 0, fmt.Errorf("faults: bad attack parameter in %q", spec)
		}
		return v, nil
	}
	switch name {
	case "signflip":
		if hasArg {
			return nil, fmt.Errorf("faults: signflip takes no parameter (got %q)", spec)
		}
		return &Poisoner{Kind: AttackSignFlip}, nil
	case "scale":
		l, err := parse(-2)
		if err != nil {
			return nil, err
		}
		return &Poisoner{Kind: AttackScale, Lambda: l}, nil
	case "noise":
		s, err := parse(1)
		if err != nil {
			return nil, err
		}
		return &Poisoner{Kind: AttackNoise, Sigma: s}, nil
	case "drift":
		l, err := parse(2)
		if err != nil {
			return nil, err
		}
		return &Poisoner{Kind: AttackDrift, Lambda: l}, nil
	}
	return nil, fmt.Errorf("faults: unknown attack %q (want signflip, scale:L, noise:S, drift:L)", spec)
}

// Colluders deterministically picks round(frac*n) of n client ids as the
// colluding poisoned set. The same (seed, n, frac) always yields the same
// set, so a chaos run replays exactly.
func Colluders(seed int64, n int, frac float64) map[int]bool {
	k := int(float64(frac*float64(n)) + 0.5)
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	bad := make(map[int]bool, k)
	for _, id := range perm[:k] {
		bad[id] = true
	}
	return bad
}
