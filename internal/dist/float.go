package dist

import "math"

// NearlyEqual reports whether a and b agree to within a combined
// absolute/relative tolerance of eps: |a-b| <= eps * max(1, |a|, |b|).
// It is the epsilon helper the floateq analyzer points at — quantile and
// CDF math must never compare computed floats with == / != (bisection,
// bucket interpolation, and closed-form inversions all carry rounding
// error). NaN is never nearly equal to anything, matching IEEE ==;
// infinities are nearly equal only to themselves.
func NearlyEqual(a, b, eps float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return math.Float64bits(a) == math.Float64bits(b)
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= eps*scale
}
