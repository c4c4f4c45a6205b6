package linalg

// MomentBlock is the second-moment summary of a block of rows of a paired
// design X (n x p) and target Y (n x q): the row count, the column means,
// and the scatter of the rows about those means. It is everything a ridge
// fit or an explained-variance evaluation needs from the rows, and it is
// additive — Merge combines the summaries of disjoint row blocks into the
// summary of their union — so one pass over the data serves every
// train/validation split that can be written as a union of blocks.
//
// The scatter is kept *centred on the block's own mean*, and merging adds
// the between-block term n_g(m_g − m)(m_g − m)ᵀ. Every contribution to a
// diagonal entry is therefore non-negative: unlike raw ΣxxT bookkeeping, or
// subtracting one block from a grand total, no step can cancel a large
// shared component against itself, however unevenly the variance is spread
// over the blocks.
//
// Means are kept *relative to the block's own reference point*, the raw
// values of its first row. Rows are shifted by the reference before they
// are summed, so a column riding on a huge offset (mean 1e9, unit noise)
// loses no digits — and because the reference is local, neither does a
// block that sits far from the rest of the data: a column flat at 0 in
// every training block and bursting to 1e9 in the held-out one still has
// training means, and a training variance, of exactly 0. (One reference
// shared by all blocks, such as the global mean, would push those flat rows
// to −1e8 and bury their spread under that number's rounding.) Distances
// between block means are taken as (ref_a − ref_b) + (mean_a − mean_b),
// each difference between numbers of like size.
type MomentBlock struct {
	N int
	// RefX and RefY are the reference point (raw column values); MeanX and
	// MeanY are the column means measured from it, so the raw mean of X
	// column j is RefX[j] + MeanX[j].
	RefX, RefY   []float64
	MeanX, MeanY []float64
	XX           Matrix    // p x p, Σ(x − mx)(x − mx)ᵀ, symmetric
	XY           Matrix    // p x q, Σ(x − mx)(y − my)ᵀ
	YY           []float64 // q, Σ(y − my)² per target column

	buf []float64 // backing array of every field above
}

// reset zeroes b as the summary of no rows of a p-feature, q-target pair,
// carving every field out of one reused backing array.
func (b *MomentBlock) reset(p, q int) {
	b.buf = growFloats(b.buf, 2*p+3*q+p*p+p*q)
	clear(b.buf)
	buf := b.buf
	carve := func(n int) []float64 {
		out := buf[:n:n]
		buf = buf[n:]
		return out
	}
	b.N = 0
	b.RefX, b.RefY = carve(p), carve(q)
	b.MeanX, b.MeanY, b.YY = carve(p), carve(q), carve(q)
	b.XX = Matrix{Rows: p, Cols: p, Data: carve(p * p)}
	b.XY = Matrix{Rows: p, Cols: q, Data: carve(p * q)}
}

// mirrorUpper copies the upper triangle of the square matrix m into its
// lower triangle.
func mirrorUpper(m *Matrix) {
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < i; j++ {
			m.Data[i*m.Cols+j] = m.Data[j*m.Cols+i]
		}
	}
}

// MeanXFrom returns the mean of X column j over b's rows minus its mean
// over o's rows.
func (b *MomentBlock) MeanXFrom(o *MomentBlock, j int) float64 {
	return (b.RefX[j] - o.RefX[j]) + (b.MeanX[j] - o.MeanX[j])
}

// MeanYFrom is MeanXFrom for Y column j.
func (b *MomentBlock) MeanYFrom(o *MomentBlock, j int) float64 {
	return (b.RefY[j] - o.RefY[j]) + (b.MeanY[j] - o.MeanY[j])
}

// Merge sets b to the summary of the union of the disjoint row blocks in
// parts, all of one (X, Y) pair; its reference point is that of the first
// non-empty part. Empty parts are skipped; b must not be one of parts.
func (b *MomentBlock) Merge(parts []*MomentBlock) {
	if len(parts) == 0 {
		b.reset(0, 0)
		return
	}
	p, q := len(parts[0].MeanX), len(parts[0].MeanY)
	b.reset(p, q)
	for _, g := range parts {
		if b.N == 0 && g.N > 0 {
			copy(b.RefX, g.RefX)
			copy(b.RefY, g.RefY)
		}
		b.N += g.N
	}
	if b.N == 0 {
		return
	}
	// The merged mean is the weighted mean of the parts' means, each first
	// re-measured from b's reference point.
	inv := 1 / float64(b.N)
	for _, g := range parts {
		if g.N == 0 {
			continue
		}
		w := float64(g.N) * inv
		for j := range b.MeanX {
			b.MeanX[j] += w * ((g.RefX[j] - b.RefX[j]) + g.MeanX[j])
		}
		for j := range b.MeanY {
			b.MeanY[j] += w * ((g.RefY[j] - b.RefY[j]) + g.MeanY[j])
		}
	}
	for _, g := range parts {
		if g.N == 0 {
			continue
		}
		n := float64(g.N)
		for i := 0; i < p; i++ {
			ndi := n * g.MeanXFrom(b, i)
			dst, src := b.XX.Row(i), g.XX.Row(i)
			for j := i; j < p; j++ {
				dst[j] += src[j] + ndi*g.MeanXFrom(b, j)
			}
			dst, src = b.XY.Row(i), g.XY.Row(i)
			for j := range dst {
				dst[j] += src[j] + ndi*g.MeanYFrom(b, j)
			}
		}
		for j, v := range g.YY {
			d := g.MeanYFrom(b, j)
			b.YY[j] += v + n*d*d
		}
	}
	mirrorUpper(&b.XX)
}

// TargetBlock is the target's half of the MomentBlocks over one row
// segment [From, To) of Y: the reference row, the means measured from it,
// the centred rows, and the per-column scatter. It depends on Y alone, so
// one TargetBlock serves every candidate X scored against the same target
// over the same rows — Block pairs it with a candidate without touching Y
// again. Once Reset it is only read, and is safe to share between
// goroutines.
type TargetBlock struct {
	From, To    int
	RefY, MeanY []float64
	// YY is Σ(y − my)² per column as Block's blocked path sums it (one
	// running sum per column). For a one-column target YY is left empty and
	// YYDot holds the scatter as the 1 x 1 path's four-accumulator dot
	// product sums it; the two round differently, so a one-column target
	// against a wider candidate gets the running sum from Block
	// (yyRunning), the kernel that shape picks.
	YY    []float64
	YYDot float64
	ty    Matrix // the centred rows, n x q
}

// Reset summarizes rows [from, to) of y.
func (t *TargetBlock) Reset(y *Matrix, from, to int) {
	q, n := y.Cols, max(to-from, 0)
	t.From, t.To = from, to
	t.RefY = growFloats(t.RefY, q)
	t.MeanY = growFloats(t.MeanY, q)
	clear(t.RefY)
	clear(t.MeanY)
	t.YY, t.YYDot = t.YY[:0], 0
	t.ty.Rows, t.ty.Cols, t.ty.Data = n, q, growFloats(t.ty.Data, n*q)
	if n == 0 {
		return
	}
	yd := y.Data[from*q : to*q]
	copy(t.RefY, yd[:q])
	sumShifted(t.MeanY, yd, t.RefY)
	inv := 1 / float64(n)
	for j := range t.MeanY {
		t.MeanY[j] *= inv
	}
	centreInto(t.ty.Data, yd, t.RefY, t.MeanY)
	if q == 1 {
		t.YYDot = dot(t.ty.Data, t.ty.Data)
		return
	}
	t.YY = growFloats(t.YY, q)
	clear(t.YY)
	yyRunning(t.YY, t.ty.Data)
}

// yyRunning adds the per-column sums of squares of the row-major rows data
// to yy, one running sum per column.
func yyRunning(yy, data []float64) {
	for j, i := 0, 0; i < len(data); i++ {
		yy[j] += data[i] * data[i]
		if j++; j == len(yy) {
			j = 0
		}
	}
}

// Block fills b with the summary of x's rows [t.From, t.To) paired with
// the target t summarizes, referenced to the first of those rows. Two
// passes over x's block: the means, then the scatter of the mean-centred
// rows — written once into the tile tx so the register-blocked Gram and
// cross-product kernels do the O(n·p²) and O(n·p·q) work. Serial by design:
// blocks are a fold's worth of rows, and callers already run one scoring
// worker per core.
func (t *TargetBlock) Block(x *Matrix, b *MomentBlock, tx *Matrix) {
	p, q, n := x.Cols, len(t.RefY), t.To-t.From
	b.reset(p, q)
	if n <= 0 {
		return
	}
	b.N = n
	xd := x.Data[t.From*p : t.To*p]
	copy(b.RefX, xd[:p])
	copy(b.RefY, t.RefY)
	copy(b.MeanY, t.MeanY)
	sumShifted(b.MeanX, xd, b.RefX)
	inv := 1 / float64(n)
	for j := range b.MeanX {
		b.MeanX[j] *= inv
	}
	tile := tx.Resize(n, p)
	centreInto(tile.Data, xd, b.RefX, b.MeanX)
	if p == 1 && q == 1 {
		// One series against one series — the bulk of any candidate set —
		// is three dot products; the blocked kernels' per-tile set-up
		// would outweigh the arithmetic.
		b.XX.Data[0] = dot(tile.Data, tile.Data)
		b.XY.Data[0] = dot(tile.Data, t.ty.Data)
		b.YY[0] = t.YYDot
		return
	}
	if q == 1 {
		yyRunning(b.YY, t.ty.Data)
	} else {
		copy(b.YY, t.YY)
	}
	gramRange(tile, &b.XX, 0, p)
	mirrorUpper(&b.XX)
	mulTRange(tile, &t.ty, &b.XY, 0, p)
}

// Lane is Block for a one-column candidate given as its column x (every
// row of it, not just the segment's): it returns the candidate's reference
// value, mean and scatter over the segment and writes its cross-scatter
// with each target column into xy (length q), by the very kernels Block
// runs at p = 1 — so the values are Block's, bit for bit, without a
// MomentBlock to carve. tile is work space of at least To − From values.
func (t *TargetBlock) Lane(x, tile, xy []float64) (ref, mean, xx float64) {
	n := t.To - t.From
	xd := x[t.From:t.To]
	ref = xd[0]
	for _, v := range xd {
		mean += v - ref
	}
	mean *= 1 / float64(n)
	tile = tile[:n]
	for i, v := range xd {
		tile[i] = (v - ref) - mean
	}
	if len(xy) == 1 {
		xy[0] = dot(tile, t.ty.Data)
		return ref, mean, dot(tile, tile)
	}
	tx := Matrix{Rows: n, Cols: 1, Data: tile}
	gram := Matrix{Rows: 1, Cols: 1, Data: []float64{0}}
	gramRange(&tx, &gram, 0, 1)
	clear(xy)
	mulTRange(&tx, &t.ty, &Matrix{Rows: 1, Cols: len(xy), Data: xy}, 0, 1)
	return ref, mean, gram.Data[0]
}

// sumShifted adds, per column, the entries of the row-major block data
// minus the column's reference: sums[j] += data[i*len(sums)+j] − ref[j].
// One flat loop with a running column index — for the single-column
// matrices that dominate candidate sets, a per-row inner loop would spend
// its time on loop set-up.
func sumShifted(sums, data, ref []float64) {
	ref = ref[:len(sums)]
	j := 0
	for _, v := range data {
		sums[j] += v - ref[j]
		if j++; j == len(sums) {
			j = 0
		}
	}
}

// centreInto writes dst = (data − ref) − mean, column-wise on row-major
// blocks. The reference is removed first so that a large common offset
// never meets the (small) block mean in one subtraction.
func centreInto(dst, data, ref, mean []float64) {
	dst, ref = dst[:len(data)], ref[:len(mean)]
	j := 0
	for i, v := range data {
		dst[i] = (v - ref[j]) - mean[j]
		if j++; j == len(mean) {
			j = 0
		}
	}
}
