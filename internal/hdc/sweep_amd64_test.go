package hdc

import "fhdnn/internal/tensor"

// archKernels are the amd64 row-block kernels, widest first.
var archKernels = []namedKernel{
	{"AVX512_8rows", avx512Kernel, skipUnless(tensor.HasAVX512(), "no AVX-512F, or the OS does not save the ZMM state")},
	{"AVX_4rows", avxKernel, skipUnless(tensor.HasAVX(), "no AVX, or the OS does not save the YMM state")},
}

func skipUnless(ok bool, why string) string {
	if ok {
		return ""
	}
	return why
}

// archProjectors are the amd64 projection kernels.
var archProjectors = []namedProjector{
	{"AVX", avxProjector, skipUnless(tensor.HasAVX(), "no AVX, or the OS does not save the YMM state")},
}
