package stats

import (
	"fmt"
	"math"
	"math/rand"
)

// Clustering: k-means. KOOZA uses it to discretize continuous features
// (e.g. CPU utilization levels) into Markov states; Abrahao et al.
// categorize CPU utilization patterns similarly.

// KMeansResult is the outcome of a k-means run.
type KMeansResult struct {
	// Centroids has one row per cluster.
	Centroids *Matrix
	// Assign maps each observation to its cluster index.
	Assign []int
	// Inertia is the total within-cluster sum of squared distances.
	Inertia float64
	// Iters is the number of iterations performed.
	Iters int
}

// KMeans clusters the rows of data into k clusters using Lloyd's algorithm
// with k-means++ seeding. r drives the seeding; maxIter bounds iteration.
func KMeans(data *Matrix, k int, r *rand.Rand, maxIter int) (KMeansResult, error) {
	n, d := data.Rows, data.Cols
	if k < 1 {
		return KMeansResult{}, fmt.Errorf("stats: kmeans k=%d must be positive", k)
	}
	if n < k {
		return KMeansResult{}, fmt.Errorf("stats: kmeans needs >= k=%d observations, got %d", k, n)
	}
	if maxIter < 1 {
		maxIter = 100
	}
	centroids := kmeansppSeed(data, k, r)
	assign := make([]int, n)
	var inertia float64
	iters := 0
	for ; iters < maxIter; iters++ {
		// Assignment step.
		changed := false
		inertia = 0
		for i := 0; i < n; i++ {
			row := data.Row(i)
			best, bestD := 0, math.Inf(1)
			for c := 0; c < k; c++ {
				dd := sqDist(row, centroids.Row(c))
				if dd < bestD {
					best, bestD = c, dd
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
			inertia += bestD
		}
		if !changed && iters > 0 {
			break
		}
		// Update step.
		counts := make([]int, k)
		next := NewMatrix(k, d)
		for i := 0; i < n; i++ {
			c := assign[i]
			counts[c]++
			row := data.Row(i)
			cr := next.Row(c)
			for j, x := range row {
				cr[j] += x
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// Re-seed an empty cluster at the point farthest from its
				// centroid.
				far, farD := 0, -1.0
				for i := 0; i < n; i++ {
					dd := sqDist(data.Row(i), centroids.Row(assign[i]))
					if dd > farD {
						far, farD = i, dd
					}
				}
				copy(next.Row(c), data.Row(far))
				counts[c] = 1
				continue
			}
			cr := next.Row(c)
			for j := range cr {
				cr[j] /= float64(counts[c])
			}
		}
		centroids = next
	}
	return KMeansResult{Centroids: centroids, Assign: assign, Inertia: inertia, Iters: iters}, nil
}

func kmeansppSeed(data *Matrix, k int, r *rand.Rand) *Matrix {
	n, d := data.Rows, data.Cols
	centroids := NewMatrix(k, d)
	first := r.Intn(n)
	copy(centroids.Row(0), data.Row(first))
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = sqDist(data.Row(i), centroids.Row(0))
	}
	for c := 1; c < k; c++ {
		total := Sum(dist)
		var idx int
		if total <= 0 {
			idx = r.Intn(n)
		} else {
			target := r.Float64() * total
			var cum float64
			for i, dd := range dist {
				cum += dd
				if cum >= target {
					idx = i
					break
				}
			}
		}
		copy(centroids.Row(c), data.Row(idx))
		for i := range dist {
			if dd := sqDist(data.Row(i), centroids.Row(c)); dd < dist[i] {
				dist[i] = dd
			}
		}
	}
	return centroids
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
