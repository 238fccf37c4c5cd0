package tensor

// saxpyQuad computes, for every j in [0, n4):
//
//	c[j] += float32(av[0] * b0[j])
//	c[j] += float32(av[1] * b1[j])
//	c[j] += float32(av[2] * b2[j])
//	c[j] += float32(av[3] * b3[j])
//
// in exactly that per-element order, with IEEE rounding after every multiply
// and every add. The amd64 implementation vectorizes over j with SSE
// MULPS/ADDPS: each lane is one output element's own serial accumulator
// chain and no FMA is used, so the bits match the scalar loop exactly.
// n4 must be a multiple of 4 and must not exceed the length of any operand.
//
//go:noescape
func saxpyQuad(c, b0, b1, b2, b3 []float32, av *[4]float32, n4 int)
