package bench

import (
	"fmt"

	"repro/internal/imagenet"
	"repro/internal/nn"
)

// CalibrateNoise searches for the dataset noise sigma at which the
// reference FP32 pipeline measures the target top-1 error. It is the
// tool that produced imagenet.CalibratedNoiseSigma; rerun it (via
// cmd/calib-noise) whenever the micro network or the dataset geometry
// changes. The search is a bisection over the (empirically monotone)
// sigma-to-error curve.
func CalibrateNoise(targetErr float64, images, iterations int) (sigma float64, achieved float64, err error) {
	if targetErr <= 0 || targetErr >= 1 {
		return 0, 0, fmt.Errorf("bench: target error %g out of (0,1)", targetErr)
	}
	if images < 100 {
		return 0, 0, fmt.Errorf("bench: need >= 100 calibration images, got %d", images)
	}
	lo, hi := 1.0, 128.0
	loErr, err := MeasureErrorAt(lo, images)
	if err != nil {
		return 0, 0, err
	}
	hiErr, err := MeasureErrorAt(hi, images)
	if err != nil {
		return 0, 0, err
	}
	if targetErr < loErr || targetErr > hiErr {
		return 0, 0, fmt.Errorf("bench: target %.3f outside achievable [%.3f, %.3f]", targetErr, loErr, hiErr)
	}
	var mid, midErr float64
	for i := 0; i < iterations; i++ {
		mid = (lo + hi) / 2
		midErr, err = MeasureErrorAt(mid, images)
		if err != nil {
			return 0, 0, err
		}
		if midErr < targetErr {
			lo = mid
		} else {
			hi = mid
		}
	}
	return mid, midErr, nil
}

// MeasureErrorAt runs the reference FP32 pipeline at one noise level
// over the first `images` validation images and returns the top-1
// error.
func MeasureErrorAt(sigma float64, images int) (float64, error) {
	cfg := imagenet.DefaultConfig()
	cfg.NoiseSigma = sigma
	cfg.Images = images
	cfg.Subsets = 1
	ds, err := imagenet.New(cfg)
	if err != nil {
		return 0, err
	}
	net32, err := microNet32(ds)
	if err != nil {
		return 0, err
	}
	preds, err := nn.Classify(images, ds.Preprocessed, nn.Pass{Net: net32, Prec: nn.FP32})
	if err != nil {
		return 0, err
	}
	return float64(wrongLabels(ds, preds[0])) / float64(images), nil
}
