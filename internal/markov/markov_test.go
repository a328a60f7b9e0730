package markov

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dcmodel/internal/stats"
)

func rowsStochastic(t *testing.T, m *stats.Matrix) {
	t.Helper()
	for i := 0; i < m.Rows; i++ {
		var sum float64
		for _, v := range m.Row(i) {
			if v < 0 {
				t.Fatalf("negative transition probability in row %d", i)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %g, want 1", i, sum)
		}
	}
}

func TestTrainBasic(t *testing.T) {
	// Deterministic cycle 0 -> 1 -> 2 -> 0.
	seq := []int{0, 1, 2, 0, 1, 2, 0, 1, 2, 0}
	c, err := Train([][]int{seq}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	rowsStochastic(t, c.Trans)
	if c.Trans.At(0, 1) != 1 || c.Trans.At(1, 2) != 1 || c.Trans.At(2, 0) != 1 {
		t.Errorf("cycle transitions not learned: %v", c.Trans.Data)
	}
	if c.Initial[0] != 1 {
		t.Errorf("initial = %v, want state 0", c.Initial)
	}
	if c.Visits[0] != 4 || c.Visits[1] != 3 {
		t.Errorf("visits = %v", c.Visits)
	}
}

func TestTrainSmoothing(t *testing.T) {
	seq := []int{0, 1, 0, 1}
	c, err := Train([][]int{seq}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	rowsStochastic(t, c.Trans)
	// Smoothing gives unseen transitions positive mass.
	if c.Trans.At(0, 2) <= 0 {
		t.Error("smoothed unseen transition should be positive")
	}
	// State 2 unvisited: uniform row via smoothing.
	for j := 0; j < 3; j++ {
		if math.Abs(c.Trans.At(2, j)-1.0/3) > 1e-12 {
			t.Errorf("unvisited state row = %v", c.Trans.Row(2))
		}
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, 3, 0); err == nil {
		t.Error("no data should fail")
	}
	if _, err := Train([][]int{{0, 5}}, 3, 0); err == nil {
		t.Error("out-of-range state should fail")
	}
	if _, err := Train([][]int{{0}}, 0, 0); err == nil {
		t.Error("zero states should fail")
	}
	if _, err := Train([][]int{{0}}, 2, -1); err == nil {
		t.Error("negative smoothing should fail")
	}
}

func TestTrainRowsStochasticProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		seq := make([]int, 50+r.Intn(100))
		for i := range seq {
			seq[i] = r.Intn(n)
		}
		c, err := Train([][]int{seq}, n, r.Float64())
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			var sum float64
			for _, v := range c.Trans.Row(i) {
				if v < 0 {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStationaryIsFixedPoint(t *testing.T) {
	r := rand.New(rand.NewSource(80))
	seq := make([]int, 5000)
	for i := 1; i < len(seq); i++ {
		// Sticky random walk over 4 states.
		if r.Float64() < 0.7 {
			seq[i] = seq[i-1]
		} else {
			seq[i] = r.Intn(4)
		}
	}
	c, err := Train([][]int{seq}, 4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := c.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range pi {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("stationary sums to %g", sum)
	}
	// pi P = pi.
	for j := 0; j < 4; j++ {
		var v float64
		for i := 0; i < 4; i++ {
			v += pi[i] * c.Trans.At(i, j)
		}
		if math.Abs(v-pi[j]) > 1e-9 {
			t.Errorf("stationary not a fixed point at %d: %g vs %g", j, v, pi[j])
		}
	}
}

func TestSimulateVisitsMatchStationary(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	// Two-state chain with known stationary: P(0->1)=0.1, P(1->0)=0.3 →
	// pi = (0.75, 0.25).
	c := &Chain{
		N:       2,
		Trans:   stats.NewMatrix(2, 2),
		Initial: []float64{1, 0},
		Visits:  []int64{1, 1},
	}
	c.Trans.Set(0, 0, 0.9)
	c.Trans.Set(0, 1, 0.1)
	c.Trans.Set(1, 0, 0.3)
	c.Trans.Set(1, 1, 0.7)
	seq := c.Simulate(200000, r)
	var ones int
	for _, s := range seq {
		ones += s
	}
	frac := float64(ones) / float64(len(seq))
	if math.Abs(frac-0.25) > 0.01 {
		t.Errorf("simulated occupancy of state 1 = %g, want 0.25", frac)
	}
	pi, err := c.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pi[0]-0.75) > 1e-9 {
		t.Errorf("stationary = %v, want [0.75 0.25]", pi)
	}
}

func TestSimulateLengths(t *testing.T) {
	c, _ := Train([][]int{{0, 1, 0, 1}}, 2, 0.5)
	if c.Simulate(0, rand.New(rand.NewSource(1))) != nil {
		t.Error("zero-length simulate should be nil")
	}
	if got := len(c.Simulate(17, rand.New(rand.NewSource(1)))); got != 17 {
		t.Errorf("simulate length = %d, want 17", got)
	}
}

func TestLogLikelihood(t *testing.T) {
	c, _ := Train([][]int{{0, 1, 2, 0, 1, 2, 0}}, 3, 0)
	// The training cycle is certain under the model.
	if ll := c.LogLikelihood([]int{0, 1, 2, 0}); ll != 0 {
		t.Errorf("loglik of certain path = %g, want 0", ll)
	}
	if ll := c.LogLikelihood([]int{0, 0}); !math.IsInf(ll, -1) {
		t.Errorf("impossible path loglik = %g, want -Inf", ll)
	}
	if ll := c.LogLikelihood(nil); ll != 0 {
		t.Errorf("empty path loglik = %g, want 0", ll)
	}
}

func TestRetrainRecoversChain(t *testing.T) {
	// Train a chain, simulate, re-train on the synthetic sequence: the two
	// chains must be close in total variation. This is the core invariant
	// the Markov subsystem models rely on.
	r := rand.New(rand.NewSource(82))
	orig := make([]int, 20000)
	for i := 1; i < len(orig); i++ {
		switch orig[i-1] {
		case 0:
			if r.Float64() < 0.8 {
				orig[i] = 0
			} else {
				orig[i] = 1
			}
		case 1:
			orig[i] = r.Intn(3)
		default:
			if r.Float64() < 0.5 {
				orig[i] = 0
			} else {
				orig[i] = 2
			}
		}
	}
	c1, err := Train([][]int{orig}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	synth := c1.Simulate(20000, r)
	c2, err := Train([][]int{synth}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	tv, err := c1.TotalVariation(c2)
	if err != nil {
		t.Fatal(err)
	}
	if tv > 0.02 {
		t.Errorf("retrained chain TV distance = %g, want < 0.02", tv)
	}
}

func TestTotalVariationErrors(t *testing.T) {
	a, _ := Train([][]int{{0, 1}}, 2, 0.1)
	b, _ := Train([][]int{{0, 1, 2}}, 3, 0.1)
	if _, err := a.TotalVariation(b); err == nil {
		t.Error("state-count mismatch should fail")
	}
}

func TestNumParams(t *testing.T) {
	c, _ := Train([][]int{{0, 1, 0}}, 4, 0.1)
	if got := c.NumParams(); got != 4*3+3 {
		t.Errorf("NumParams = %d, want 15", got)
	}
}

// stationaryRowByRow is the reference power iteration Stationary must
// match to the bit: one pass over next per row with mass.
func stationaryRowByRow(c *Chain) []float64 {
	pi := make([]float64, c.N)
	for i := range pi {
		pi[i] = 1 / float64(c.N)
	}
	next := make([]float64, c.N)
	for iter := 0; iter < 100000; iter++ {
		for j := range next {
			next[j] = 0
		}
		for i := 0; i < c.N; i++ {
			if pi[i] == 0 {
				continue
			}
			for j, p := range c.Trans.Row(i) {
				next[j] += pi[i] * p
			}
		}
		var diff float64
		for j := range pi {
			diff += math.Abs(next[j] - pi[j])
		}
		copy(pi, next)
		if diff < 1e-12 {
			return pi
		}
	}
	return nil
}

func TestStationaryMatchesRowByRowReference(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	for _, n := range []int{1, 3, 4, 7, 32, 33} {
		for _, zeroCols := range []int{0, n / 3} {
			m := stats.NewMatrix(n, n)
			for i := 0; i < n; i++ {
				var sum float64
				for j := 0; j < n; j++ {
					// States below zeroCols are never entered, so their
					// mass drops to zero and their rows are skipped.
					if j < zeroCols {
						continue
					}
					v := r.Float64()
					m.Set(i, j, v)
					sum += v
				}
				for j := 0; j < n; j++ {
					m.Set(i, j, m.At(i, j)/sum)
				}
			}
			c := &Chain{N: n, Trans: m}
			got, err := c.Stationary()
			if err != nil {
				t.Fatalf("n=%d zeroCols=%d: %v", n, zeroCols, err)
			}
			want := stationaryRowByRow(c)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("n=%d zeroCols=%d: pi[%d] = %v, reference %v", n, zeroCols, j, got[j], want[j])
				}
			}
		}
	}
}
