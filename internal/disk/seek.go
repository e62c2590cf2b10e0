package disk

import (
	"fmt"
	"math"

	"repro/internal/des"
)

// SeekCurve models arm movement time as a function of cylinder distance:
//
//	t(d) = Alpha + Beta*sqrt(d) + Gamma*d   (d >= 1, in cylinders)
//	t(0) = 0
//
// The square-root term captures the acceleration-limited regime of short
// seeks and the linear term the coast-limited regime of long seeks
// (Ruemmler & Wilkes, "An Introduction to Disk Drive Modeling"). Writes pay
// an additional settle time because the heads must be positioned more
// precisely before writing than before reading.
type SeekCurve struct {
	Alpha, Beta, Gamma float64 // microseconds
	WriteSettle        des.Time
}

// Time returns the seek time for a move of dist cylinders. A zero-distance
// access costs nothing extra (settle for writes is still charged, because
// the head must verify position before writing even without arm movement
// only when it moved; matching the prototype's measured behaviour we charge
// settle only when dist > 0).
func (sc SeekCurve) Time(dist int, write bool) des.Time {
	if dist < 0 {
		dist = -dist
	}
	if dist == 0 {
		return 0
	}
	t := des.Time(sc.Alpha + sc.Beta*math.Sqrt(float64(dist)) + sc.Gamma*float64(dist))
	if write {
		t += sc.WriteSettle
	}
	return t
}

// MeanSqrtDist returns E[sqrt(|i-j|)] for i, j uniform on [0, c), which is
// (8/15)*sqrt(c). Used when fitting a curve to a published average seek.
func MeanSqrtDist(c int) float64 { return 8.0 / 15.0 * math.Sqrt(float64(c)) }

// SolveSeekCurve fits Alpha, Beta, Gamma so that a single-cylinder seek
// takes minT, a full-stroke seek over maxDist cylinders takes maxT, and the
// average seek between two uniformly random cylinders takes avgT. This lets
// a Spec be stated in the terms a datasheet uses.
//
// The three conditions form a linear system:
//
//	Alpha + Beta          + Gamma           = minT
//	Alpha + Beta*(8/15)√C + Gamma*C/3       = avgT
//	Alpha + Beta*√C       + Gamma*C         = maxT
func SolveSeekCurve(minT, avgT, maxT des.Time, maxDist int, writeSettle des.Time) (SeekCurve, error) {
	if maxDist < 4 {
		return SeekCurve{}, fmt.Errorf("disk: maxDist %d too small to fit a seek curve", maxDist)
	}
	if !(minT > 0 && minT < avgT && avgT < maxT) {
		return SeekCurve{}, fmt.Errorf("disk: need 0 < min(%v) < avg(%v) < max(%v)", minT, avgT, maxT)
	}
	c := float64(maxDist)
	m := [3][4]float64{
		{1, 1, 1, float64(minT)},
		{1, MeanSqrtDist(maxDist), c / 3, float64(avgT)},
		{1, math.Sqrt(c), c, float64(maxT)},
	}
	if err := gauss(&m); err != nil {
		return SeekCurve{}, fmt.Errorf("disk: seek curve fit: %v", err)
	}
	sc := SeekCurve{Alpha: m[0][3], Beta: m[1][3], Gamma: m[2][3], WriteSettle: writeSettle}
	// A physical arm can't get faster with distance: require monotonicity
	// over the valid range. With Beta >= 0 and Gamma >= 0 this holds; a
	// negative Gamma can still be monotone, so check the derivative at the
	// far end: dt/dd = Beta/(2√d) + Gamma >= 0 at d = maxDist.
	if sc.Beta < 0 || sc.Beta/(2*math.Sqrt(c))+sc.Gamma < 0 {
		return SeekCurve{}, fmt.Errorf("disk: fitted seek curve not monotone (alpha=%.2f beta=%.2f gamma=%.4f); adjust min/avg/max", sc.Alpha, sc.Beta, sc.Gamma)
	}
	return sc, nil
}

// gauss solves a 3x3 linear system in-place with partial pivoting. The
// right-hand side is column 3; solutions are left in column 3.
func gauss(m *[3][4]float64) error {
	n := 3
	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-12 {
			return fmt.Errorf("singular system")
		}
		m[col], m[pivot] = m[pivot], m[col]
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / m[col][col]
			for k := col; k <= n; k++ {
				m[r][k] -= f * m[col][k]
			}
		}
	}
	for i := 0; i < n; i++ {
		m[i][3] /= m[i][i]
	}
	return nil
}
