package kernel

import (
	"math"
	"testing"

	"parcost/internal/rng"
)

// spectralHarness builds a plane plus fold-ish index sets over synthetic
// smooth regression data.
func spectralHarness(t *testing.T, n, d int, seed uint64) (*DistancePlane, []int, []int, []float64) {
	t.Helper()
	r := rng.New(seed)
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, d)
		for j := range row {
			row[j] = r.Uniform(-2, 2)
		}
		x[i] = row
		y[i] = math.Sin(row[0]) + 0.5*row[1%d] + 0.1*r.Normal()
	}
	p := NewDistancePlane(x)
	split := n * 3 / 4
	train := make([]int, split)
	test := make([]int, n-split)
	for i := range train {
		train[i] = i
	}
	for i := range test {
		test[i] = split + i
	}
	yTr := make([]float64, split)
	copy(yTr, y[:split])
	return p, train, test, yTr
}

// TestKernelRidgeSpectralParity pins the spectral fit against the Cholesky
// reference fit across the registry's alpha grid: same dual weights and same
// predictions to tight tolerance.
func TestKernelRidgeSpectralParity(t *testing.T) {
	p, train, test, yTr := spectralHarness(t, 120, 3, 31)
	for _, alpha := range []float64{1e-3, 1e-2, 1e-1, 1, 10} {
		ref := NewKernelRidge(RBF{Length: 1.2}, alpha)
		if err := ref.FitPlane(p, train, yTr); err != nil {
			t.Fatalf("alpha=%g reference: %v", alpha, err)
		}
		spec := NewKernelRidge(RBF{Length: 1.2}, alpha)
		if err := spec.FitPlaneSpectral(p, train, yTr); err != nil {
			t.Fatalf("alpha=%g spectral: %v", alpha, err)
		}
		for i := range ref.dual {
			if math.Abs(ref.dual[i]-spec.dual[i]) > 1e-7*(1+math.Abs(ref.dual[i])) {
				t.Fatalf("alpha=%g: dual mismatch at %d: %v vs %v", alpha, i, ref.dual[i], spec.dual[i])
			}
		}
		pr, ps := ref.PredictPlane(p, test), spec.PredictPlane(p, test)
		for i := range pr {
			if math.Abs(pr[i]-ps[i]) > 1e-7*(1+math.Abs(pr[i])) {
				t.Fatalf("alpha=%g: prediction mismatch at %d: %v vs %v", alpha, i, pr[i], ps[i])
			}
		}
	}
}

// TestGaussianProcessSpectralParity does the same for GP across the noise
// grid, including the posterior standard deviation and the spectral log-det.
func TestGaussianProcessSpectralParity(t *testing.T) {
	p, train, test, yTr := spectralHarness(t, 110, 3, 32)
	rows := p.Rows(test)
	queries := make([][]float64, len(rows))
	for i, row := range rows {
		// Plane rows are standardized; PredictStd expects raw features, so
		// invert the scaling to build equivalent query rows.
		raw := make([]float64, len(row))
		sc := p.Scaler()
		for j, v := range row {
			raw[j] = v*sc.Stds[j] + sc.Means[j]
		}
		queries[i] = raw
	}
	for _, noise := range []float64{1e-4, 1e-3, 1e-2, 1e-1} {
		ref := NewGaussianProcess(RBF{Length: 1.5}, noise)
		if err := ref.FitPlane(p, train, yTr); err != nil {
			t.Fatalf("noise=%g reference: %v", noise, err)
		}
		spec := NewGaussianProcess(RBF{Length: 1.5}, noise)
		if err := spec.FitPlaneSpectral(p, train, yTr); err != nil {
			t.Fatalf("noise=%g spectral: %v", noise, err)
		}
		if spec.eig == nil {
			t.Fatalf("noise=%g: spectral fit fell back unexpectedly", noise)
		}
		pr, ps := ref.PredictPlane(p, test), spec.PredictPlane(p, test)
		for i := range pr {
			if math.Abs(pr[i]-ps[i]) > 1e-6*(1+math.Abs(pr[i])) {
				t.Fatalf("noise=%g: mean mismatch at %d: %v vs %v", noise, i, pr[i], ps[i])
			}
		}
		mr, sr := ref.PredictStd(queries)
		msp, ssp := spec.PredictStd(queries)
		for i := range mr {
			if math.Abs(mr[i]-msp[i]) > 1e-6*(1+math.Abs(mr[i])) {
				t.Fatalf("noise=%g: PredictStd mean mismatch at %d", noise, i)
			}
			if math.Abs(sr[i]-ssp[i]) > 1e-5*(1+math.Abs(sr[i])) {
				t.Fatalf("noise=%g: PredictStd std mismatch at %d: %v vs %v", noise, i, sr[i], ssp[i])
			}
		}
		ldRef, ldSpec := ref.LogDet(), spec.LogDet()
		if math.Abs(ldRef-ldSpec) > 1e-6*(1+math.Abs(ldRef)) {
			t.Fatalf("noise=%g: LogDet %v (chol) vs %v (spectral)", noise, ldRef, ldSpec)
		}
	}
}

// TestEigSystemMemoized verifies the plane computes one eigensystem per
// (kernel point, slice) and hands the same instance back.
func TestEigSystemMemoized(t *testing.T) {
	p, train, _, _ := spectralHarness(t, 60, 2, 33)
	s := p.Slice(train, train)
	k := RBF{Length: 0.8}
	e1, err := s.EigSystem(k)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := s.EigSystem(k)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Fatal("EigSystem was not memoized for an identical (kernel, slice) pair")
	}
	e3, err := s.EigSystem(RBF{Length: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	if e3 == e1 {
		t.Fatal("different kernel points shared an eigensystem")
	}
}

// TestEigSystemAsymmetricPanics pins the symmetric-slice contract.
func TestEigSystemAsymmetricPanics(t *testing.T) {
	p, train, test, _ := spectralHarness(t, 40, 2, 34)
	defer func() {
		if recover() == nil {
			t.Fatal("EigSystem of an asymmetric slice did not panic")
		}
	}()
	_, _ = p.Slice(test, train).EigSystem(RBF{Length: 1})
}

// TestSpectralFallbackIllConditioned drives a shift far below the spectrum's
// conditioning floor and checks the fit still succeeds via the Cholesky
// fallback, with predictions matching the reference path.
func TestSpectralFallbackIllConditioned(t *testing.T) {
	// Duplicated rows make the RBF gram exactly rank-deficient, so a tiny
	// alpha is ill-conditioned relative to the spectrum and must route to
	// the jittered Cholesky fallback.
	n := 40
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{float64(i % 5), float64((i % 5) * 2)}
		y[i] = float64(i % 5)
	}
	p := NewDistancePlane(x)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	spec := NewKernelRidge(RBF{Length: 1}, 1e-18)
	if err := spec.FitPlaneSpectral(p, idx, y); err != nil {
		t.Fatalf("spectral fit with fallback failed: %v", err)
	}
	ref := NewKernelRidge(RBF{Length: 1}, 1e-18)
	if err := ref.FitPlane(p, idx, y); err != nil {
		t.Fatalf("reference fit failed: %v", err)
	}
	pr, ps := ref.PredictPlane(p, idx), spec.PredictPlane(p, idx)
	for i := range pr {
		if pr[i] != ps[i] {
			t.Fatalf("fallback path diverged from reference at %d: %v vs %v", i, pr[i], ps[i])
		}
	}
}

// TestGPPredictIsPredictStdMean: Predict, which skips the variance, returns
// PredictStd's mean bit for bit after a Cholesky fit (plain and plane) and
// after a spectral fit.
func TestGPPredictIsPredictStdMean(t *testing.T) {
	p, train, _, yTr := spectralHarness(t, 110, 3, 32)
	r := rng.New(33)
	queries := make([][]float64, 40)
	for i := range queries {
		queries[i] = []float64{r.Uniform(-3, 3), r.Uniform(-3, 3), r.Uniform(-3, 3)}
	}
	fits := map[string]func(g *GaussianProcess) error{
		"cholesky": func(g *GaussianProcess) error {
			x, y := smoothData(rng.New(34), 80, 0.05)
			for i := range x {
				x[i] = append(x[i], x[i][0]*x[i][1])
			}
			return g.Fit(x, y)
		},
		"cholesky plane": func(g *GaussianProcess) error { return g.FitPlane(p, train, yTr) },
		"spectral":       func(g *GaussianProcess) error { return g.FitPlaneSpectral(p, train, yTr) },
	}
	for name, fit := range fits {
		g := NewGaussianProcess(RBF{Length: 1.5}, 1e-2)
		if err := fit(g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if (g.eig != nil) != (name == "spectral") {
			t.Fatalf("%s: spectral factorization held: %v", name, g.eig != nil)
		}
		got := g.Predict(queries)
		want, _ := g.PredictStd(queries)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: row %d: Predict %v, PredictStd mean %v", name, i, got[i], want[i])
			}
		}
	}
}
