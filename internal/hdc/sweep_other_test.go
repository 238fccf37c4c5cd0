//go:build !amd64

package hdc

// archKernels is empty: without assembly the portable kernel is the only
// row-block kernel.
var archKernels []namedKernel

// archProjectors is empty: without assembly the portable projection
// kernel is the only one.
var archProjectors []namedProjector
