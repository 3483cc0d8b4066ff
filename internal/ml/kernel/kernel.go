// Package kernel implements the kernel-based regressors from the paper:
// Kernel Ridge regression (KR), Gaussian Process regression (GP) with
// predictive uncertainty, and epsilon Support Vector Regression (SVR).
//
// All three share the Kernel abstraction and internal feature/target
// standardization. The Gaussian process additionally exposes PredictStd,
// which the uncertainty-sampling active-learning strategy (Algorithm 1)
// relies on.
package kernel

import (
	"fmt"
	"math"

	"parcost/internal/mat"
	"parcost/internal/ml"
	"parcost/internal/stats"
)

// Kernel computes similarity between two (standardized) feature vectors.
type Kernel interface {
	Eval(a, b []float64) float64
	Name() string
}

// RBF is the Gaussian (squared-exponential) kernel
// k(a,b) = exp(-‖a−b‖² / (2ℓ²)).
type RBF struct {
	Length float64 // length scale ℓ
}

// Eval computes the RBF kernel value.
func (k RBF) Eval(a, b []float64) float64 {
	var d2 float64
	for i := range a {
		d := a[i] - b[i]
		d2 += d * d
	}
	return math.Exp(-d2 / (2 * k.Length * k.Length))
}

// Name identifies the kernel.
func (k RBF) Name() string { return "rbf" }

// Poly is the polynomial kernel k(a,b) = (γ·aᵀb + c0)^degree.
type Poly struct {
	Degree int
	Gamma  float64
	Coef0  float64
}

// Eval computes the polynomial kernel value.
func (k Poly) Eval(a, b []float64) float64 {
	return math.Pow(k.Gamma*mat.Dot(a, b)+k.Coef0, float64(k.Degree))
}

// Name identifies the kernel.
func (k Poly) Name() string { return "poly" }

// gram builds the n×n kernel matrix of the rows of x.
func gram(k Kernel, x [][]float64) *mat.Dense {
	n := len(x)
	g := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		g.Set(i, i, k.Eval(x[i], x[i]))
		for j := i + 1; j < n; j++ {
			v := k.Eval(x[i], x[j])
			g.Set(i, j, v)
			g.Set(j, i, v)
		}
	}
	return g
}

// KernelRidge is kernel ridge regression: it solves (K + αI)a = y in the
// kernel-induced space and predicts with f(x) = Σ aᵢ k(xᵢ, x). The paper
// lists it as model "KR".
type KernelRidge struct {
	Kernel Kernel
	Alpha  float64

	scaler   *stats.StandardScaler
	tScale   *stats.TargetScaler
	xTrain   [][]float64
	planeIdx []int // plane row indices of xTrain when fitted via FitPlane
	dual     []float64
}

// NewKernelRidge returns a kernel ridge regressor.
func NewKernelRidge(k Kernel, alpha float64) *KernelRidge {
	return &KernelRidge{Kernel: k, Alpha: alpha}
}

// Name returns the model identifier.
func (m *KernelRidge) Name() string { return "kernelridge" }

// Fit solves the dual system (K + αI)a = y on standardized data.
func (m *KernelRidge) Fit(x [][]float64, y []float64) error {
	if _, err := ml.CheckXY(x, y); err != nil {
		return err
	}
	m.scaler = stats.FitScaler(x)
	m.xTrain = m.scaler.Transform(x)
	m.planeIdx = nil // a plain fit invalidates any earlier plane binding
	m.tScale = stats.FitTargetScaler(y)
	ys := m.tScale.Transform(y)

	g := gram(m.Kernel, m.xTrain)
	return m.solve(g, ys)
}

// FitPlane solves the dual system against a sub-gram sliced from a shared
// distance plane: the training rows are plane rows trainIdx, standardized by
// the plane's dataset-level scaler, and the gram costs one elementwise map
// over cached distances instead of a pairwise kernel pass.
func (m *KernelRidge) FitPlane(p *DistancePlane, trainIdx []int, y []float64) error {
	ys := m.bindPlane(p, trainIdx, y)
	// The plane's gram is shared and read-only; the ridge solve shifts the
	// diagonal, so work on a copy.
	return m.solve(p.Slice(trainIdx, trainIdx).Gram(m.Kernel).Clone(), ys)
}

// FitPlaneSpectral solves (K + αI)a = y through the plane's shared
// eigensystem: one O(n³) factorization per (kernel point, fold) serves every
// alpha on the shift axis with an O(n²) solve — no per-candidate gram clone,
// no per-candidate Cholesky. Ill-conditioned shifts fall back to the FitPlane
// reference path (Cholesky with jitter), whose selections the parity tests
// pin against this one.
func (m *KernelRidge) FitPlaneSpectral(p *DistancePlane, trainIdx []int, y []float64) error {
	ys := m.bindPlane(p, trainIdx, y)
	if es, err := p.Slice(trainIdx, trainIdx).EigSystem(m.Kernel); err == nil && es.ShiftOK(m.Alpha) {
		if dual, err := es.ShiftSolve(m.Alpha, ys); err == nil {
			m.dual = dual
			return nil
		}
	}
	return m.solve(p.Slice(trainIdx, trainIdx).Gram(m.Kernel).Clone(), ys)
}

// bindPlane points the model's fitted state at the shared plane's rows and
// scaler and returns the standardized targets.
func (m *KernelRidge) bindPlane(p *DistancePlane, trainIdx []int, y []float64) []float64 {
	m.scaler = p.Scaler()
	m.xTrain = p.Rows(trainIdx)
	m.planeIdx = trainIdx
	m.tScale = stats.FitTargetScaler(y)
	return m.tScale.Transform(y)
}

func (m *KernelRidge) solve(g *mat.Dense, ys []float64) error {
	g.AddScaledIdentity(m.Alpha)
	dual, err := mat.SolveSPD(g, ys)
	if err != nil {
		return fmt.Errorf("kernel: KRR solve failed: %w", err)
	}
	m.dual = dual
	return nil
}

// PredictPlane predicts for plane rows testIdx through the shared plane's
// cached cross-gram, on the original target scale.
func (m *KernelRidge) PredictPlane(p *DistancePlane, testIdx []int) []float64 {
	if m.dual == nil || m.planeIdx == nil {
		panic("kernel: KernelRidge.PredictPlane before FitPlane")
	}
	cross := p.Slice(testIdx, m.planeIdx).Gram(m.Kernel)
	out := make([]float64, len(testIdx))
	for i := range out {
		out[i] = m.tScale.InverseOne(mat.Dot(cross.Row(i), m.dual))
	}
	return out
}

// Predict evaluates f(x) = Σ aᵢ k(xᵢ, x) on the original target scale.
func (m *KernelRidge) Predict(x [][]float64) []float64 {
	if m.dual == nil {
		panic("kernel: KernelRidge.Predict before Fit")
	}
	out := make([]float64, len(x))
	for i, row := range x {
		rs := m.scaler.TransformRow(row)
		var s float64
		for j, xt := range m.xTrain {
			s += m.dual[j] * m.Kernel.Eval(xt, rs)
		}
		out[i] = m.tScale.InverseOne(s)
	}
	return out
}

// GaussianProcess is GP regression with a fixed kernel and observation noise
// variance. It exposes both the posterior mean and standard deviation. The
// paper lists it as model "GP" and uses it as the surrogate in
// uncertainty-sampling active learning.
type GaussianProcess struct {
	Kernel Kernel
	Noise  float64 // observation noise variance (on standardized targets)

	scaler   *stats.StandardScaler
	tScale   *stats.TargetScaler
	xTrain   [][]float64
	planeIdx []int            // plane row indices of xTrain when fitted via FitPlane
	chol     *mat.Cholesky    // Cholesky of K+σ²I (nil after a spectral fit)
	eig      *mat.EigSym      // shared spectral factorization of K (spectral fits only)
	eigSolve *mat.ShiftSolver // prepared (K+σ²I) solver off eig (spectral fits only)
	alpha    []float64        // (K+σ²I)⁻¹ y
	autoLen  bool
}

// medianDistance returns the median pairwise Euclidean distance among the
// rows of x (capped-sample for large n), the classic kernel length-scale
// heuristic. Returns 0 if fewer than two distinct points.
func medianDistance(x [][]float64) float64 {
	n := len(x)
	if n < 2 {
		return 0
	}
	// Subsample pairs to keep this O(sampleCap²) for large sets.
	const sampleCap = 200
	m := n
	stride := 1
	if n > sampleCap {
		stride = n / sampleCap
		m = sampleCap
	}
	dists := make([]float64, 0, m*(m-1)/2)
	idx := make([]int, 0, m)
	for i := 0; i < n && len(idx) < m; i += stride {
		idx = append(idx, i)
	}
	for a := 0; a < len(idx); a++ {
		for b := a + 1; b < len(idx); b++ {
			var d2 float64
			ra, rb := x[idx[a]], x[idx[b]]
			for k := range ra {
				d := ra[k] - rb[k]
				d2 += d * d
			}
			dists = append(dists, math.Sqrt(d2))
		}
	}
	if len(dists) == 0 {
		return 0
	}
	return stats.Quantile(dists, 0.5)
}

// NewGaussianProcess returns a GP regressor.
func NewGaussianProcess(k Kernel, noise float64) *GaussianProcess {
	return &GaussianProcess{Kernel: k, Noise: noise}
}

// Name returns the model identifier.
func (g *GaussianProcess) Name() string { return "gp" }

// AutoLength, when set, overrides an RBF kernel's length scale at Fit time
// with the median pairwise distance of the standardized training features
// (the "median heuristic"). This adapts the kernel to the data the way
// scikit-learn's GP does by maximizing the marginal likelihood, without the
// cost of a full optimization.
func (g *GaussianProcess) AutoLength(on bool) *GaussianProcess {
	g.autoLen = on
	return g
}

// Fit factorizes (K + σ²I) and precomputes the predictive weights.
func (g *GaussianProcess) Fit(x [][]float64, y []float64) error {
	if _, err := ml.CheckXY(x, y); err != nil {
		return err
	}
	g.scaler = stats.FitScaler(x)
	g.xTrain = g.scaler.Transform(x)
	g.planeIdx = nil // a plain fit invalidates any earlier plane binding
	g.tScale = stats.FitTargetScaler(y)
	ys := g.tScale.Transform(y)

	g.applyAutoLength()
	return g.factorize(gram(g.Kernel, g.xTrain), ys)
}

// FitPlane factorizes against a sub-gram sliced from a shared distance
// plane. The training rows are plane rows trainIdx, standardized by the
// plane's dataset-level scaler; the gram is derived from cached distances.
func (g *GaussianProcess) FitPlane(p *DistancePlane, trainIdx []int, y []float64) error {
	ys := g.bindPlane(p, trainIdx, y)
	// The plane's gram is shared and read-only; the noise shift below needs
	// a copy.
	return g.factorize(p.Slice(trainIdx, trainIdx).Gram(g.Kernel).Clone(), ys)
}

// FitPlaneSpectral fits through the plane's shared eigensystem of K: the
// predictive weights come from an O(n²) shifted solve (the noise variance is
// the diagonal shift), and log|K+σ²I| is an O(n) read off the spectrum (see
// LogDet). Every noise candidate of the same (kernel point, fold) shares one
// O(n³) factorization. Ill-conditioned shifts fall back to the Cholesky
// reference path.
func (g *GaussianProcess) FitPlaneSpectral(p *DistancePlane, trainIdx []int, y []float64) error {
	ys := g.bindPlane(p, trainIdx, y)
	if es, err := p.Slice(trainIdx, trainIdx).EigSystem(g.Kernel); err == nil && es.ShiftOK(g.Noise) {
		if sv, err := es.PrepareShift(g.Noise); err == nil {
			sv.SolveInto(ys) // ys is this fit's own transformed copy
			g.eig, g.eigSolve, g.chol = es, sv, nil
			g.alpha = ys
			return nil
		}
	}
	return g.factorize(p.Slice(trainIdx, trainIdx).Gram(g.Kernel).Clone(), ys)
}

// bindPlane points the model's fitted state at the shared plane's rows and
// scaler, resolves AutoLength, and returns the standardized targets.
func (g *GaussianProcess) bindPlane(p *DistancePlane, trainIdx []int, y []float64) []float64 {
	g.scaler = p.Scaler()
	g.xTrain = p.Rows(trainIdx)
	g.planeIdx = trainIdx
	g.tScale = stats.FitTargetScaler(y)
	g.applyAutoLength()
	return g.tScale.Transform(y)
}

// applyAutoLength resolves the median-heuristic length scale against the
// standardized training rows when AutoLength is enabled.
func (g *GaussianProcess) applyAutoLength() {
	if !g.autoLen {
		return
	}
	if rbf, ok := g.Kernel.(RBF); ok {
		if l := medianDistance(g.xTrain); l > 0 {
			rbf.Length = l
			g.Kernel = rbf
		}
	}
}

func (g *GaussianProcess) factorize(k *mat.Dense, ys []float64) error {
	k.AddScaledIdentity(g.Noise)
	ch, err := mat.RobustCholesky(k)
	if err != nil {
		return fmt.Errorf("kernel: GP factorization failed: %w", err)
	}
	g.chol = ch
	g.eig, g.eigSolve = nil, nil
	g.alpha = ch.SolveVec(ys)
	return nil
}

// LogDet returns log|K + σ²I| of the fitted training gram — the
// complexity term of the GP log marginal likelihood. After a spectral fit it
// is an O(n) read off the shared spectrum; after a Cholesky fit it is the
// factor's 2·Σ log L_ii.
func (g *GaussianProcess) LogDet() float64 {
	switch {
	case g.eig != nil:
		return g.eig.ShiftLogDet(g.Noise)
	case g.chol != nil:
		return g.chol.LogDet()
	}
	panic("kernel: GaussianProcess.LogDet before Fit")
}

// PredictPlane returns posterior-mean predictions for plane rows testIdx
// through the shared plane's cached cross-gram.
func (g *GaussianProcess) PredictPlane(p *DistancePlane, testIdx []int) []float64 {
	if g.alpha == nil || g.planeIdx == nil {
		panic("kernel: GaussianProcess.PredictPlane before FitPlane")
	}
	cross := p.Slice(testIdx, g.planeIdx).Gram(g.Kernel)
	out := make([]float64, len(testIdx))
	for i := range out {
		out[i] = g.tScale.InverseOne(mat.Dot(cross.Row(i), g.alpha))
	}
	return out
}

// Predict returns posterior-mean predictions on the original scale,
// bit-identical to PredictStd's mean, without the variance's per-row
// solve.
func (g *GaussianProcess) Predict(x [][]float64) []float64 {
	mean, _ := g.predict(x, false)
	return mean
}

// PredictStd returns the posterior mean and standard deviation for each
// input, on the original target scale. The variance is
// k** − k*ᵀ(K+σ²I)⁻¹k*, computed stably via the Cholesky factor when one is
// held, or via the shared spectral factorization after a spectral fit.
func (g *GaussianProcess) PredictStd(x [][]float64) (mean, std []float64) {
	return g.predict(x, true)
}

// predict computes the posterior mean of each row, and its standard
// deviation when withStd is set (std is nil otherwise).
func (g *GaussianProcess) predict(x [][]float64, withStd bool) (mean, std []float64) {
	if g.chol == nil && g.eig == nil {
		panic("kernel: GaussianProcess prediction before Fit")
	}
	mean = make([]float64, len(x))
	// One k* and one solve buffer serve every prediction row.
	kStar := make([]float64, len(g.xTrain))
	var v []float64
	if withStd {
		std = make([]float64, len(x))
		v = make([]float64, len(g.xTrain))
	}
	for i, row := range x {
		rs := g.scaler.TransformRow(row)
		for j, xt := range g.xTrain {
			kStar[j] = g.Kernel.Eval(xt, rs)
		}
		// Posterior mean (standardized), then inverse-transformed.
		mean[i] = g.tScale.InverseOne(mat.Dot(kStar, g.alpha))
		if !withStd {
			continue
		}
		kxx := g.Kernel.Eval(rs, rs)
		var varStd float64
		if g.chol != nil {
			// Posterior variance: kxx − v·v where v = L⁻¹ k*.
			g.chol.LSolveVecInto(v, kStar)
			varStd = kxx - mat.Dot(v, v)
		} else {
			// Spectral route: kxx − k*ᵀ(K+σ²I)⁻¹k*, through the solver
			// prepared once at fit time (no per-row allocation).
			copy(v, kStar)
			g.eigSolve.SolveInto(v)
			varStd = kxx - mat.Dot(kStar, v)
		}
		if varStd < 0 {
			varStd = 0
		}
		// Scale variance back to the original target units.
		std[i] = math.Sqrt(varStd) * g.tScale.Std
	}
	return mean, std
}

var (
	_ ml.Regressor       = (*KernelRidge)(nil)
	_ ml.StdPredictor    = (*GaussianProcess)(nil)
	_ PlaneModel         = (*KernelRidge)(nil)
	_ PlaneModel         = (*GaussianProcess)(nil)
	_ PlaneModel         = (*SVR)(nil)
	_ SpectralPlaneModel = (*KernelRidge)(nil)
	_ SpectralPlaneModel = (*GaussianProcess)(nil)
)
