package linalg

import (
	"runtime"
	"sync"
)

// parallelThreshold is the approximate number of fused multiply-adds below
// which a product runs serially: goroutine fan-out costs more than it saves
// on the small per-fold Grams the scoring pipeline mostly sees.
const parallelThreshold = 1 << 20

// minFlopsPerWorker keeps each goroutine busy enough to amortise its spawn.
const minFlopsPerWorker = 1 << 17

// kernelWorkers picks the fan-out width for a kernel costing flops fused
// multiply-adds. It returns 1 (serial) below the threshold or on a single-P
// machine, and never hands a worker less than minFlopsPerWorker of work.
func kernelWorkers(flops int) int {
	// Size first: runtime.GOMAXPROCS takes the scheduler lock, which the
	// small kernels every scoring worker runs per candidate must not share.
	if flops < parallelThreshold {
		return 1
	}
	w := runtime.GOMAXPROCS(0)
	if w <= 1 {
		return 1
	}
	if cap := flops / minFlopsPerWorker; w > cap {
		w = cap
	}
	if w < 1 {
		w = 1
	}
	return w
}

// extraWorkerTokens bounds the machine-wide number of extra kernel
// goroutines. Kernels can be called from inside an already-parallel pool
// (Engine.Rank runs one scoring worker per core); without a global cap,
// nested fan-out would oversubscribe the machine GOMAXPROCS-fold. Each
// parallel call try-acquires tokens for its extra workers and degrades to
// fewer workers (down to serial) when the pool is already saturated —
// results are identical either way, only the partition changes.
var extraWorkerTokens = make(chan struct{}, maxInt(0, runtime.GOMAXPROCS(0)-1))

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// acquireWorkers converts a requested fan-out width into a granted one by
// try-acquiring tokens for the extra goroutines. Callers must pass the
// returned grant to releaseWorkers when done.
func acquireWorkers(want int) (granted int) {
	granted = 1
	for granted < want {
		select {
		case extraWorkerTokens <- struct{}{}:
			granted++
		default:
			return granted
		}
	}
	return granted
}

func releaseWorkers(granted int) {
	for i := 1; i < granted; i++ {
		<-extraWorkerTokens
	}
}

// parallelRows splits [0, n) into contiguous chunks, one per worker, and
// runs work on each chunk. workers <= 1 runs inline. Each output row is
// owned by exactly one worker, so kernels that accumulate per output cell in
// a fixed (ascending-k) order produce bitwise-identical results at any
// worker count — the determinism contract the engine's tests rely on.
func parallelRows(n, workers int, work func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers > 1 {
		workers = acquireWorkers(workers)
		defer releaseWorkers(workers)
	}
	if workers <= 1 || n <= 1 {
		work(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := chunk; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			work(lo, hi)
		}(lo, hi)
	}
	work(0, chunk) // first chunk on the calling goroutine
	wg.Wait()
}

// parallelTriangleRows partitions [0, n) for upper-triangular kernels where
// row i costs n-i operations: even row chunks would give the first worker
// ~2x the average load, so chunk boundaries equalise triangle area instead.
// Partitioning only changes which goroutine owns a row, never a cell's
// summation order, so results stay bitwise identical to any other split.
func parallelTriangleRows(n, workers int, work func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers > 1 {
		workers = acquireWorkers(workers)
		defer releaseWorkers(workers)
	}
	if workers <= 1 || n <= 1 {
		work(0, n)
		return
	}
	total := float64(n) * float64(n+1) / 2
	per := total / float64(workers)
	var wg sync.WaitGroup
	firstHi := 0
	lo := 0
	var acc float64
	for w := 0; w < workers && lo < n; w++ {
		hi := lo
		target := per * float64(w+1)
		for hi < n && (acc < target || hi == lo) {
			acc += float64(n - hi)
			hi++
		}
		if w == workers-1 {
			hi = n
		}
		if w == 0 {
			firstHi = hi // run the heaviest chunk on the calling goroutine
		} else {
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				work(lo, hi)
			}(lo, hi)
		}
		lo = hi
	}
	work(0, firstHi)
	wg.Wait()
}

// kBlock is the tile size over the shared (summation) dimension. Blocking
// keeps a tile of b's rows hot in cache while several output rows consume
// it; iterating tiles in ascending order preserves the exact per-cell
// summation order of the untiled loop.
const kBlock = 128

// mulRange computes out[lo:hi] = a[lo:hi] * b for row-major a (n x k) and
// b (k x q). Per output cell the summation runs over k ascending, exactly
// like the naive ikj loop.
func mulRange(a, b, out *Matrix, lo, hi int) {
	for k0 := 0; k0 < a.Cols; k0 += kBlock {
		k1 := k0 + kBlock
		if k1 > a.Cols {
			k1 = a.Cols
		}
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			orow := out.Row(i)
			k := k0
			for ; k+3 < k1; k += 4 {
				v0, v1, v2, v3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
				if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
					continue
				}
				b0 := b.Row(k)[:len(orow)]
				b1 := b.Row(k + 1)[:len(orow)]
				b2 := b.Row(k + 2)[:len(orow)]
				b3 := b.Row(k + 3)[:len(orow)]
				for j := range orow {
					orow[j] += v0*b0[j] + v1*b1[j] + v2*b2[j] + v3*b3[j]
				}
			}
			for ; k < k1; k++ {
				aik := arow[k]
				if aik == 0 {
					continue
				}
				brow := b.Row(k)
				for j, bkj := range brow {
					orow[j] += aik * bkj
				}
			}
		}
	}
}

// mulTRange computes rows [lo, hi) of out = a^T * b, i.e. output row i is
// column i of a dotted with every column of b. The k loop ascends so each
// cell's summation order matches the serial kernel.
func mulTRange(a, b, out *Matrix, lo, hi int) {
	n := a.Rows
	k := 0
	for ; k+3 < n; k += 4 {
		a0, a1, a2, a3 := a.Row(k), a.Row(k+1), a.Row(k+2), a.Row(k+3)
		b0, b1, b2, b3 := b.Row(k), b.Row(k+1), b.Row(k+2), b.Row(k+3)
		for i := lo; i < hi; i++ {
			v0, v1, v2, v3 := a0[i], a1[i], a2[i], a3[i]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			orow := out.Row(i)
			c0 := b0[:len(orow)]
			c1 := b1[:len(orow)]
			c2 := b2[:len(orow)]
			c3 := b3[:len(orow)]
			for j := range orow {
				orow[j] += v0*c0[j] + v1*c1[j] + v2*c2[j] + v3*c3[j]
			}
		}
	}
	for ; k < n; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i := lo; i < hi; i++ {
			aki := arow[i]
			if aki == 0 {
				continue
			}
			orow := out.Row(i)
			for j, bkj := range brow {
				orow[j] += aki * bkj
			}
		}
	}
}

// gramRange fills rows [lo, hi) of the upper triangle of out = m^T * m.
// Rows of m are consumed four at a time (register blocking): each output
// row is revisited a quarter as often and the inner loop runs four fused
// multiply-adds per element. The per-cell summation regroups as
// (k)+(k+1)+(k+2)+(k+3) per block — deterministic at any worker count,
// within float64 rounding of the naive ascending-k loop.
func gramRange(m, out *Matrix, lo, hi int) {
	n := m.Rows
	k := 0
	for ; k+3 < n; k += 4 {
		r0, r1, r2, r3 := m.Row(k), m.Row(k+1), m.Row(k+2), m.Row(k+3)
		for i := lo; i < hi; i++ {
			v0, v1, v2, v3 := r0[i], r1[i], r2[i], r3[i]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			orow := out.Row(i)[i:]
			a0 := r0[i:][:len(orow)]
			a1 := r1[i:][:len(orow)]
			a2 := r2[i:][:len(orow)]
			a3 := r3[i:][:len(orow)]
			for j := range orow {
				orow[j] += v0*a0[j] + v1*a1[j] + v2*a2[j] + v3*a3[j]
			}
		}
	}
	for ; k < n; k++ {
		row := m.Row(k)
		for i := lo; i < hi; i++ {
			vi := row[i]
			if vi == 0 {
				continue
			}
			orow := out.Row(i)[i:]
			rj := row[i:][:len(orow)]
			for j := range orow {
				orow[j] += vi * rj[j]
			}
		}
	}
}

// gramOuterRange fills rows [lo, hi) of the upper triangle of out = m * m^T.
// Dot products run with four independent accumulators to break the FMA
// dependency chain.
func gramOuterRange(m, out *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		ri := m.Row(i)
		orow := out.Row(i)
		for j := i; j < m.Rows; j++ {
			orow[j] = dot(ri, m.Row(j))
		}
	}
}

// dot computes the inner product of equal-length vectors with four
// accumulators.
func dot(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	k := 0
	b = b[:len(a)]
	for ; k+3 < len(a); k += 4 {
		s0 += a[k] * b[k]
		s1 += a[k+1] * b[k+1]
		s2 += a[k+2] * b[k+2]
		s3 += a[k+3] * b[k+3]
	}
	for ; k < len(a); k++ {
		s0 += a[k] * b[k]
	}
	return (s0 + s1) + (s2 + s3)
}
