package cmplxmat

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
)

// Matrix is a dense row-major complex matrix.
type Matrix struct {
	rows, cols int
	data       []complex128
}

// New returns a zero rows x cols matrix.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("cmplxmat: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]complex128, rows*cols)}
}

// View returns a rows x cols matrix over data, row-major, without
// copying: the matrix and data alias each other. It lets callers run
// the package's kernels on storage they own, such as a local array.
func View(rows, cols int, data []complex128) Matrix {
	if rows <= 0 || cols <= 0 || len(data) != rows*cols {
		panic(fmt.Sprintf("cmplxmat: View of %d elements as %dx%d", len(data), rows, cols))
	}
	return Matrix{rows: rows, cols: cols, data: data}
}

// Diagonal returns a square matrix with d on the diagonal.
func Diagonal(d ...complex128) *Matrix {
	m := New(len(d), len(d))
	for i, v := range d {
		m.data[i*m.cols+i] = v
	}
	return m
}

// RandomGaussian returns a rows x cols matrix with i.i.d. circularly
// symmetric complex Gaussian CN(0,1) entries drawn from rng. This is the
// standard Rayleigh flat-fading channel model.
func RandomGaussian(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	fillCN(m.data, rng)
	return m
}

// fillCN overwrites dst with i.i.d. CN(0,1) samples drawn from rng in
// index order, each the real part's normal draw, then the imaginary
// part's.
func fillCN(dst []complex128, rng *rand.Rand) {
	for i := range dst {
		dst[i] = complex(rng.NormFloat64()/math.Sqrt2, rng.NormFloat64()/math.Sqrt2)
	}
}

// BlendGaussianInPlace overwrites m with keep*m + scale*W, where W is a
// fresh CN(0,1) matrix drawn from rng. It consumes the same draws as
// RandomGaussian and is bitwise m.Scale(keep).Add(RandomGaussian(rng,
// rows, cols).Scale(scale)), without allocating.
func (m *Matrix) BlendGaussianInPlace(rng *rand.Rand, keep, scale complex128) {
	for i := range m.data {
		w := complex(rng.NormFloat64()/math.Sqrt2, rng.NormFloat64()/math.Sqrt2)
		m.data[i] = complex128(keep*m.data[i]) + complex128(scale*w)
	}
}

// FillGaussian overwrites m with scale*W, where W is a fresh CN(0,1)
// matrix drawn from rng. It consumes the same draws as RandomGaussian
// and is bitwise RandomGaussian(rng, rows, cols).Scale(scale), without
// allocating.
func (m *Matrix) FillGaussian(rng *rand.Rand, scale complex128) {
	for i := range m.data {
		w := complex(rng.NormFloat64()/math.Sqrt2, rng.NormFloat64()/math.Sqrt2)
		m.data[i] = scale * w
	}
}

// SetNoisy overwrites m with h + scale*W, where W is a fresh CN(0,1)
// matrix drawn from rng: bitwise h.Add(RandomGaussian(rng, rows,
// cols).Scale(scale)), without allocating. m and h must have the same
// shape; m may be h.
func (m *Matrix) SetNoisy(h *Matrix, rng *rand.Rand, scale complex128) {
	m.mustSameShape(h)
	for i := range m.data {
		w := complex(rng.NormFloat64()/math.Sqrt2, rng.NormFloat64()/math.Sqrt2)
		m.data[i] = h.data[i] + complex128(scale*w)
	}
}

// CopyFrom overwrites m with the entries of b, which must have the same
// shape.
func (m *Matrix) CopyFrom(b *Matrix) {
	m.mustSameShape(b)
	copy(m.data, b.data)
}

// RandomGaussianVector returns an n-vector with i.i.d. CN(0,1) entries.
func RandomGaussianVector(rng *rand.Rand, n int) Vector {
	v := NewVector(n)
	fillCN(v, rng)
	return v
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) complex128 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// SetAt sets the element at row i, column j.
func (m *Matrix) SetAt(i, j int, v complex128) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("cmplxmat: index (%d,%d) out of range for %dx%d", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// colInto writes column j of m into dst, which has m.Rows() entries.
func (m *Matrix) colInto(dst Vector, j int) {
	for i := 0; i < m.rows; i++ {
		dst[i] = m.data[i*m.cols+j]
	}
}

// Add returns m + b. It panics if shapes differ.
func (m *Matrix) Add(b *Matrix) *Matrix {
	m.mustSameShape(b)
	out := New(m.rows, m.cols)
	Vector(m.data).addInto(out.data, b.data)
	return out
}

// Sub returns m - b. It panics if shapes differ.
func (m *Matrix) Sub(b *Matrix) *Matrix {
	out := New(m.rows, m.cols)
	m.SubInto(out, b)
	return out
}

// SubInto overwrites dst with m - b, into caller-owned storage. All
// three must have the same shape.
func (m *Matrix) SubInto(dst, b *Matrix) {
	m.mustSameShape(b)
	m.mustSameShape(dst)
	Vector(m.data).subInto(dst.data, b.data)
}

// Scale returns s*m.
func (m *Matrix) Scale(s complex128) *Matrix {
	out := New(m.rows, m.cols)
	Vector(m.data).ScaleInto(out.data, s)
	return out
}

// Mul returns the matrix product m*b. It panics if inner dimensions differ.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	out := New(m.rows, b.cols)
	m.MulInto(out, b)
	return out
}

// MulInto overwrites dst with the product m*b, into caller-owned
// storage. dst must be m.Rows() x b.Cols() and must not share storage
// with m or b.
func (m *Matrix) MulInto(dst, b *Matrix) {
	if m.cols != b.rows || dst.rows != m.rows || dst.cols != b.cols {
		panic(fmt.Sprintf("cmplxmat: MulInto shape mismatch %dx%d * %dx%d into %dx%d", m.rows, m.cols, b.rows, b.cols, dst.rows, dst.cols))
	}
	clear(dst.data)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.data[i*m.cols+k]
			if a == 0 {
				continue
			}
			for j := 0; j < b.cols; j++ {
				dst.data[i*b.cols+j] += a * b.data[k*b.cols+j]
			}
		}
	}
}

// DiagScaleInto overwrites dst with diag(r) * m * diag(t), or with
// diag(r) * m^T * diag(t) when transpose is set, reading m in place:
// dst_ij = 0 + (0 + r_i m_ij) t_j, every product rounded. dst must be
// len(r) x len(t) and must not share storage with m.
//
// On finite operands these are the bits of the two MulInto products
// through diagonal matrices: in a cleared sum, each product by an
// off-diagonal zero adds ±0 to a value that is +0 or nonzero, and
// MulInto's skipped zero factors add nothing. With an Inf or a NaN, or
// an overflowing r_i m_ij, MulInto's zero products are NaN; here the
// non-finite value stays in its own entry.
func (m *Matrix) DiagScaleInto(dst *Matrix, r, t []complex128, transpose bool) {
	rows, cols := m.rows, m.cols
	rs, cs := m.cols, 1 // m's strides along dst's rows and columns
	if transpose {
		rows, cols = cols, rows
		rs, cs = 1, m.cols
	}
	if rows != len(r) || cols != len(t) || dst.rows != rows || dst.cols != cols {
		panic(fmt.Sprintf("cmplxmat: DiagScaleInto shape mismatch diag(%d) * %dx%d (transpose %v) * diag(%d) into %dx%d", len(r), m.rows, m.cols, transpose, len(t), dst.rows, dst.cols))
	}
	for i, ri := range r {
		for j, tj := range t {
			dst.data[i*dst.cols+j] = 0 + Mul(0+Mul(ri, m.data[i*rs+j*cs]), tj)
		}
	}
}

// MulVec returns m*v. It panics if dimensions differ.
func (m *Matrix) MulVec(v Vector) Vector {
	out := NewVector(m.rows)
	m.MulVecInto(out, v)
	return out
}

// MulVecInto writes m*v into dst, which must have m.Rows() entries and
// must not share storage with v.
func (m *Matrix) MulVecInto(dst, v Vector) {
	if m.cols != len(v) || m.rows != len(dst) {
		panic(fmt.Sprintf("cmplxmat: MulVec shape mismatch %dx%d * %d into %d", m.rows, m.cols, len(v), len(dst)))
	}
	mulVecData(m.data, m.rows, m.cols, v, dst)
}

// mulVecData is the y = H v kernel over flat row-major storage: the one
// loop behind MulVec, MulVecWS and MulVecInto. Taking the storage as
// slices keeps the hot loop off the matrix header's fields.
func mulVecData(h []complex128, rows, cols int, v, y []complex128) {
	if rows == 2 && cols == 2 {
		// The loop below unrolled (mulVec2, also behind Apply2), with
		// its operation order and its leading zero (which turns a -0
		// first product into +0).
		v, y := v[:2], y[:2]
		y[0], y[1] = mulVec2(h, v[0], v[1])
		return
	}
	for i := 0; i < rows; i++ {
		var s complex128
		for j := 0; j < cols; j++ {
			s += h[i*cols+j] * v[j]
		}
		y[i] = s
	}
}

// MulHVecInto writes m^H v into dst with the operations of
// m.H().MulVec(v), without materializing m^H. dst must have
// m.Cols() entries and must not share storage with v.
func (m *Matrix) MulHVecInto(dst, v Vector) {
	if m.rows != len(v) || m.cols != len(dst) {
		panic(fmt.Sprintf("cmplxmat: MulHVecInto shape mismatch (%dx%d)^H * %d into %d", m.rows, m.cols, len(v), len(dst)))
	}
	for i := 0; i < m.cols; i++ {
		var s complex128
		for j := 0; j < m.rows; j++ {
			s += cmplx.Conj(m.data[j*m.cols+i]) * v[j]
		}
		dst[i] = s
	}
}

// T returns the (unconjugated) transpose of m. Channel reciprocity (Eq. 8
// of the paper) relates the downlink channel to the transpose, not the
// conjugate transpose, of the uplink channel.
func (m *Matrix) T() *Matrix {
	out := New(m.cols, m.rows)
	m.transposeInto(out, false)
	return out
}

// H returns the conjugate (Hermitian) transpose of m.
func (m *Matrix) H() *Matrix {
	out := New(m.cols, m.rows)
	m.transposeInto(out, true)
	return out
}

// transposeInto writes the transpose of m into dst (m.Cols() x
// m.Rows()), conjugating each entry when conj is set.
func (m *Matrix) transposeInto(dst *Matrix, conj bool) {
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			x := m.data[i*m.cols+j]
			if conj {
				x = cmplx.Conj(x)
			}
			dst.data[j*dst.cols+i] = x
		}
	}
}

// Trace returns the sum of the diagonal entries of a square matrix.
func (m *Matrix) Trace() complex128 {
	m.mustSquare()
	var s complex128
	for i := 0; i < m.rows; i++ {
		s += m.data[i*m.cols+i]
	}
	return s
}

// FrobeniusNorm returns sqrt(sum |m_ij|^2). The paper's reciprocity
// experiment (Fig. 16) measures fractional error in this norm.
func (m *Matrix) FrobeniusNorm() float64 { return Vector(m.data).Norm() }

// MaxAbs returns the largest entry magnitude.
func (m *Matrix) MaxAbs() float64 { return maxAbs(m.data) }

// maxAbs is MaxAbs over a flat slice. An entry whose magnitude bound
// shows it cannot raise the running maximum skips its Hypot.
func maxAbs(data []complex128) float64 {
	var s float64
	for _, v := range data {
		if boundBelow(v, s) {
			continue
		}
		if a := cmplx.Abs(v); a > s {
			s = a
		}
	}
	return s
}

// maxPart returns max(|real(z)|, |imag(z)|), or NaN if either part is
// NaN. It brackets cmplx.Abs(z) = Hypot(real(z), imag(z)): Hypot
// rounds p*sqrt(1+r^2), with p this value and r <= 1, to at least p
// and at most about 1.4143*p, so maxPart(z) <= |z| <= 2*maxPart(z)
// whenever the parts are not NaN.
func maxPart(z complex128) float64 {
	return max(math.Abs(real(z)), math.Abs(imag(z)))
}

// boundBelow reports whether |z| <= s is certain from z's parts alone,
// so that a running maximum s cannot be raised by |z| (a > s fails on
// equality too). A NaN part always answers false: Hypot may still
// make such an entry +Inf.
func boundBelow(z complex128, s float64) bool { return 2*maxPart(z) <= s }

func (m *Matrix) mustSameShape(b *Matrix) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("cmplxmat: shape mismatch %dx%d vs %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
}

func (m *Matrix) mustSquare() {
	if m.rows != m.cols {
		panic(fmt.Sprintf("cmplxmat: %dx%d matrix is not square", m.rows, m.cols))
	}
}

// String formats m for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteByte('[')
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteString(", ")
			}
			c := m.data[i*m.cols+j]
			fmt.Fprintf(&b, "%.4g%+.4gi", real(c), imag(c))
		}
		b.WriteByte(']')
	}
	return b.String()
}
