package tensor

// tile4x16Go is the portable form of the GEMM microkernel and its
// reference. For r < 4 and j < 16 it computes
//
//	C[r][j] = s + sum_kk float32(a[r*k+kk] * b[kk*16+j])
//
// where C[r][j] is c[r*ldc+j] and s is C[r][j] when accum, +0 otherwise.
// Each sum is one chain in ascending kk, with IEEE rounding after every
// multiply and every add. b is one packed strip: k rows of 16 columns.
func tile4x16Go(c []float32, ldc int, a, b []float32, k int, accum bool) {
	for r := 0; r < tileM; r++ {
		arow := a[r*k : r*k+k]
		crow := (*[tileN]float32)(c[r*ldc:])
		for j := 0; j < tileN; j += 4 {
			var s0, s1, s2, s3 float32
			if accum {
				s0, s1, s2, s3 = crow[j], crow[j+1], crow[j+2], crow[j+3]
			}
			for kk, av := range arow {
				bw := (*[4]float32)(b[kk*tileN+j:])
				s0 += float32(av * bw[0])
				s1 += float32(av * bw[1])
				s2 += float32(av * bw[2])
				s3 += float32(av * bw[3])
			}
			crow[j], crow[j+1], crow[j+2], crow[j+3] = s0, s1, s2, s3
		}
	}
}
