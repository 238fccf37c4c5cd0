//go:build !amd64

package tensor

func allFinite(x []float32) bool { return allFiniteGo(x) }
