package stats

import (
	"fmt"
	"math"
	"sort"
)

// Minimal dense linear algebra needed by PCA and the queueing solvers: a
// row-major matrix, a symmetric eigen-solver (cyclic Jacobi) and a
// linear-system solver (Gaussian elimination with partial pivoting).

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zeroed rows x cols matrix. It panics on non-positive
// dimensions (a programming error).
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic("stats: matrix dimensions must be positive")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// MatrixFrom builds a matrix from row slices, which must be rectangular.
func MatrixFrom(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, ErrEmpty
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			return nil, fmt.Errorf("stats: ragged matrix row %d: %d cols, want %d", i, len(r), m.Cols)
		}
		copy(m.Data[i*m.Cols:], r)
	}
	return m, nil
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec returns m * v for a vector v of length m.Cols.
func (m *Matrix) MulVec(v []float64) ([]float64, error) {
	if m.Cols != len(v) {
		return nil, fmt.Errorf("stats: matvec dimension mismatch %dx%d * %d", m.Rows, m.Cols, len(v))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for j, x := range v {
			s += row[j] * x
		}
		out[i] = s
	}
	return out, nil
}

// Eigen holds the result of a symmetric eigendecomposition: Values sorted
// descending, Vectors column k being the eigenvector of Values[k].
type Eigen struct {
	Values  []float64
	Vectors *Matrix
}

// EigenSym computes the eigendecomposition of the symmetric matrix a using
// the cyclic Jacobi method. Only the lower/upper symmetric content is used.
func EigenSym(a *Matrix) (Eigen, error) {
	if a.Rows != a.Cols {
		return Eigen{}, fmt.Errorf("stats: eigensym needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	w := a.Clone()
	v := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}
	for sweep := 0; sweep < 100; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w.At(i, j) * w.At(i, j)
			}
		}
		if off < 1e-22 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				// Rotate rows/cols p and q of w.
				for k := 0; k < n; k++ {
					wkp, wkq := w.At(k, p), w.At(k, q)
					w.Set(k, p, c*wkp-s*wkq)
					w.Set(k, q, s*wkp+c*wkq)
				}
				for k := 0; k < n; k++ {
					wpk, wqk := w.At(p, k), w.At(q, k)
					w.Set(p, k, c*wpk-s*wqk)
					w.Set(q, k, s*wpk+c*wqk)
				}
				// Accumulate eigenvectors.
				for k := 0; k < n; k++ {
					vkp, vkq := v.At(k, p), v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}
	// Extract and sort descending.
	type pair struct {
		val float64
		idx int
	}
	pairs := make([]pair, n)
	for i := 0; i < n; i++ {
		pairs[i] = pair{w.At(i, i), i}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].val > pairs[j].val })
	values := make([]float64, n)
	vectors := NewMatrix(n, n)
	for k, p := range pairs {
		values[k] = p.val
		for i := 0; i < n; i++ {
			vectors.Set(i, k, v.At(i, p.idx))
		}
	}
	return Eigen{Values: values, Vectors: vectors}, nil
}

// SolveLinear solves a x = b by Gaussian elimination with partial pivoting.
// a must be square and is not modified.
func SolveLinear(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("stats: solve needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if len(b) != a.Rows {
		return nil, fmt.Errorf("stats: solve rhs length %d, want %d", len(b), a.Rows)
	}
	return solveLU(a, b)
}

// solveLU performs Gaussian elimination with partial pivoting.
func solveLU(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	w := a.Clone()
	x := make([]float64, n)
	copy(x, b)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for col := 0; col < n; col++ {
		piv := col
		maxAbs := math.Abs(w.At(col, col))
		for r := col + 1; r < n; r++ {
			if abs := math.Abs(w.At(r, col)); abs > maxAbs {
				maxAbs, piv = abs, r
			}
		}
		if maxAbs < 1e-14 {
			return nil, fmt.Errorf("stats: singular matrix in solve (pivot %d)", col)
		}
		if piv != col {
			wc, wp := w.Row(col), w.Row(piv)
			for j := 0; j < n; j++ {
				wc[j], wp[j] = wp[j], wc[j]
			}
			x[col], x[piv] = x[piv], x[col]
		}
		inv := 1 / w.At(col, col)
		for r := col + 1; r < n; r++ {
			f := w.At(r, col) * inv
			if f == 0 {
				continue
			}
			wr, wc := w.Row(r), w.Row(col)
			for j := col; j < n; j++ {
				wr[j] -= f * wc[j]
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for r := n - 1; r >= 0; r-- {
		s := x[r]
		wr := w.Row(r)
		for j := r + 1; j < n; j++ {
			s -= wr[j] * x[j]
		}
		x[r] = s / wr[r]
	}
	return x, nil
}
