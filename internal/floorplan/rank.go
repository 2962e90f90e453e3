package floorplan

import "slices"

// ranked is a list that sorts itself on demand: items[:sorted] is the
// head of the list in its final order, and every item past it ranks
// after all of them. Readers ask for rank i with has, which sorts one
// more chunk, twice as long as the last, whenever i runs past the
// sorted head. The greedy planner reads a few hundred of several
// thousand candidates, and the shortfall fill a few dozen, so most of
// the list is never sorted.
//
// order must be a total order, and key its primary key: order(a, b) < 0
// whenever key(a) < key(b). A chunk is every unsorted item whose key
// is at most a threshold, ties at the threshold included, so it holds
// exactly the items that rank first among the rest, and sorting it
// alone yields the order a sort of the whole list would. Keys must not
// be NaN; -0 and +0 tie, as they do in order.
type ranked[T any] struct {
	items  []T
	sorted int
	chunk  int       // length of the next chunk, positive
	keys   []float64 // selection scratch, allocated on the first chunk
	key    func(T) float64
	order  func(a, b T) int
}

// has reports whether rank i exists, sorting up to it when needed.
func (r *ranked[T]) has(i int) bool {
	for i >= r.sorted && i < len(r.items) {
		tail := r.items[r.sorted:]
		m := len(tail)
		if r.chunk < m {
			if r.keys == nil {
				r.keys = make([]float64, m)
			}
			m = selectChunk(tail, r.chunk, r.key, r.keys[:m])
		}
		slices.SortFunc(tail[:m], r.order)
		r.sorted += m
		r.chunk *= 2
	}
	return i < len(r.items)
}

// selectChunk moves every item of a whose key is at most the k-th
// smallest key, 0 < k < len(a), to the front, ties with that threshold
// included, and returns their count m ≥ k. keys is scratch space of
// len(a).
func selectChunk[T any](a []T, k int, key func(T) float64, keys []float64) int {
	for i := range a {
		keys[i] = key(a[i])
	}
	t := kthSmallest(keys, k-1)
	m := 0
	for i := range a {
		if key(a[i]) <= t {
			a[i], a[m] = a[m], a[i]
			m++
		}
	}
	return m
}

// kthSmallest returns the k-th smallest of v (0-based), reordering v:
// Hoare's FIND with a median-of-three pivot, which splits runs of
// equal values evenly.
func kthSmallest(v []float64, k int) float64 {
	lo, hi := 0, len(v)-1
	for lo < hi {
		x := median3(v[lo], v[lo+(hi-lo)/2], v[hi])
		i, j := lo, hi
		for i <= j {
			for v[i] < x {
				i++
			}
			for x < v[j] {
				j--
			}
			if i <= j {
				v[i], v[j] = v[j], v[i]
				i++
				j--
			}
		}
		if j < k {
			lo = i
		}
		if k < i {
			hi = j
		}
	}
	return v[k]
}

func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		return a
	}
	return b
}
