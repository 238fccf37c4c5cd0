package fedcore

// widenAddGo adds every x[i], widened to float64, into sum[i]: Bundle's
// accumulation, and the portable form and reference of widenAddAVX. len(sum)
// must be at least len(x).
func widenAddGo(sum []float64, x []float32) {
	sum = sum[:len(x)]
	for i, v := range x {
		sum[i] += float64(v)
	}
}
