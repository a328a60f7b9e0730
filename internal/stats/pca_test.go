package stats

import (
	"math"
	"math/rand"
	"testing"
)

// corrData generates n observations of d features where the first two
// features are strongly correlated and the rest are small noise.
func corrData(n, d int, r *rand.Rand) *Matrix {
	m := NewMatrix(n, d)
	for i := 0; i < n; i++ {
		base := r.NormFloat64() * 10
		row := m.Row(i)
		row[0] = base + r.NormFloat64()*0.1
		row[1] = 2*base + r.NormFloat64()*0.1
		for j := 2; j < d; j++ {
			row[j] = r.NormFloat64() * 0.01
		}
	}
	return m
}

func TestFitPCAExplainsVariance(t *testing.T) {
	r := rand.New(rand.NewSource(60))
	data := corrData(2000, 5, r)
	p, err := FitPCA(data, PCAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ratios := p.ExplainedVarianceRatio()
	if ratios[0] < 0.99 {
		t.Errorf("first component explains %g, want > 0.99", ratios[0])
	}
	approx(t, Sum(ratios), 1, 1e-9, "ratios sum to 1")
	if k := p.ComponentsFor(0.95); k != 1 {
		t.Errorf("ComponentsFor(0.95) = %d, want 1", k)
	}
	if k := p.ComponentsFor(1.0); k != 5 {
		t.Errorf("ComponentsFor(1.0) = %d, want 5", k)
	}
}

func TestPCATransformInverse(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	data := corrData(500, 4, r)
	p, err := FitPCA(data, PCAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Full-rank round trip must reconstruct exactly.
	proj, err := p.Transform(data, 4)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := p.InverseTransform(proj)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < data.Rows; i++ {
		for j := 0; j < data.Cols; j++ {
			if math.Abs(rec.At(i, j)-data.At(i, j)) > 1e-8 {
				t.Fatalf("full-rank reconstruction error at (%d,%d)", i, j)
			}
		}
	}
	// Rank-1 reconstruction should still be close (data is ~rank 1).
	proj1, err := p.Transform(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec1, err := p.InverseTransform(proj1)
	if err != nil {
		t.Fatal(err)
	}
	var num, den float64
	for i := 0; i < data.Rows; i++ {
		for j := 0; j < data.Cols; j++ {
			d := rec1.At(i, j) - data.At(i, j)
			num += d * d
			den += data.At(i, j) * data.At(i, j)
		}
	}
	if num/den > 0.01 {
		t.Errorf("rank-1 reconstruction relative error %g, want < 0.01", num/den)
	}
}

func TestPCAStandardize(t *testing.T) {
	// With standardization, a feature with huge units should not dominate.
	r := rand.New(rand.NewSource(62))
	n := 1000
	data := NewMatrix(n, 2)
	for i := 0; i < n; i++ {
		data.Set(i, 0, r.NormFloat64()*1e9) // bytes-scale feature
		data.Set(i, 1, r.NormFloat64())     // utilization-scale feature
	}
	p, err := FitPCA(data, PCAOptions{Standardize: true})
	if err != nil {
		t.Fatal(err)
	}
	ratios := p.ExplainedVarianceRatio()
	// Independent standardized features: both ~0.5.
	if ratios[0] > 0.6 {
		t.Errorf("standardized PCA dominated by one feature: %v", ratios)
	}
}

func TestPCAErrors(t *testing.T) {
	if _, err := FitPCA(NewMatrix(1, 3), PCAOptions{}); err == nil {
		t.Error("single-row PCA should fail")
	}
	r := rand.New(rand.NewSource(63))
	data := corrData(50, 3, r)
	p, err := FitPCA(data, PCAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Transform(NewMatrix(5, 2), 1); err == nil {
		t.Error("feature mismatch should fail")
	}
	if _, err := p.Transform(data, 0); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := p.Transform(data, 4); err == nil {
		t.Error("k>d should fail")
	}
	if _, err := p.InverseTransform(NewMatrix(5, 4)); err == nil {
		t.Error("too many components in inverse should fail")
	}
}
