//go:build !amd64

package nn

func maxInto(dst, src []float32) {
	src = src[:len(dst)]
	for i, v := range src {
		dst[i] = max(dst[i], v)
	}
}

func relu(dst, src []float32) {
	src = src[:len(dst)]
	for i, v := range src {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

func maxSafeQuads(data []float32) bool { return maxSafeScalar(data[:len(data)&^3]) }
