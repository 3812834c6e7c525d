//go:build !amd64

package gemm

func kernel8(cs, arow, b []float32, n int) { strip8(cs, arow, b, n) }
