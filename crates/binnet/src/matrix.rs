//! A plain row-major `f32` matrix with exactly the products BNN training
//! needs.

use crate::error::BinnetError;

/// A dense row-major matrix of `f32`.
///
/// This is deliberately not a general linear-algebra library: it provides
/// the handful of operations a single-layer network needs — `X·W` forward
/// products, `Xᵀ·G` gradient products, and row access for batch assembly —
/// with simple cache-friendly loops.
///
/// # Examples
///
/// ```
/// use binnet::Matrix;
///
/// # fn main() -> Result<(), binnet::BinnetError> {
/// let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
/// let w = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]])?;
/// let y = x.matmul(&w)?;
/// assert_eq!(y.row(1), &[3.0, 4.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`BinnetError::InvalidConfig`] if `data.len() != rows * cols`
    /// or either dimension is zero.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, BinnetError> {
        if rows == 0 || cols == 0 {
            return Err(BinnetError::InvalidConfig(
                "matrix dimensions must be non-zero".into(),
            ));
        }
        if data.len() != rows * cols {
            return Err(BinnetError::InvalidConfig(format!(
                "flat buffer of length {} cannot fill a {rows}x{cols} matrix",
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`BinnetError::InvalidConfig`] if `rows` is empty or ragged.
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<Self, BinnetError> {
        let r = rows.len();
        if r == 0 {
            return Err(BinnetError::InvalidConfig(
                "matrix needs at least one row".into(),
            ));
        }
        let c = rows[0].len();
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            if row.len() != c {
                return Err(BinnetError::InvalidConfig(format!(
                    "ragged rows: expected {c} columns, found {}",
                    row.len()
                )));
            }
            data.extend_from_slice(row);
        }
        Matrix::from_flat(r, c, data)
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "matrix index out of range");
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "matrix index out of range");
        self.data[r * self.cols + c] = v;
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row index out of range");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[must_use]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row index out of range");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrows the flat row-major buffer.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the flat row-major buffer.
    #[must_use]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reshapes in place to `rows × cols` without preserving contents: the
    /// elements are unspecified (stale or zero) until the caller overwrites
    /// them. Reuses the existing buffer capacity, so once the matrix has
    /// grown to its steady shape, reshaping allocates nothing — this is what
    /// the trainer's scratch buffers lean on for zero-allocation steps.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn reshape(&mut self, rows: usize, cols: usize) {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Matrix product `self · rhs` (`(m×n)·(n×p) → m×p`) using an
    /// ikj loop order so the inner loop streams both operands.
    ///
    /// # Errors
    ///
    /// Returns [`BinnetError::ShapeMismatch`] if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, BinnetError> {
        if self.cols != rhs.rows {
            return Err(BinnetError::ShapeMismatch {
                op: "matmul",
                left: (self.rows, self.cols),
                right: (rhs.rows, rhs.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for (k, &a) in a_row.iter().enumerate() {
                let b_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Transposed product `selfᵀ · rhs` (`(m×n)ᵀ·(m×p) → n×p`) — the
    /// weight-gradient product `Xᵀ·G` of back-propagation, computed without
    /// materializing the transpose.
    ///
    /// # Errors
    ///
    /// Returns [`BinnetError::ShapeMismatch`] if the row counts differ.
    pub fn transpose_matmul(&self, rhs: &Matrix) -> Result<Matrix, BinnetError> {
        self.transpose_matmul_pooled(rhs, &threadpool::ThreadPool::new(1))
    }

    /// [`Matrix::transpose_matmul`] with the output rows fanned out over a
    /// thread pool.
    ///
    /// Threads chunk over the `n` *output* rows while each output element
    /// still accumulates over the shared row index `i` in ascending order,
    /// so the result is **bit-identical** to the sequential product at any
    /// pool width (f32 addition is order-sensitive; the order never
    /// changes).
    ///
    /// # Errors
    ///
    /// Returns [`BinnetError::ShapeMismatch`] if the row counts differ.
    pub fn transpose_matmul_pooled(
        &self,
        rhs: &Matrix,
        pool: &threadpool::ThreadPool,
    ) -> Result<Matrix, BinnetError> {
        if self.rows != rhs.rows {
            return Err(BinnetError::ShapeMismatch {
                op: "transpose_matmul",
                left: (self.rows, self.cols),
                right: (rhs.rows, rhs.cols),
            });
        }
        let p = rhs.cols;
        let mut out = Matrix::zeros(self.cols, p);
        pool.for_each_chunk_mut(&mut out.data, self.cols, p, |out_rows, chunk| {
            for (local, k) in out_rows.enumerate() {
                let out_row = &mut chunk[local * p..(local + 1) * p];
                for i in 0..self.rows {
                    let a = self.data[i * self.cols + k];
                    let b_row = &rhs.data[i * p..(i + 1) * p];
                    for (o, &b) in out_row.iter_mut().zip(b_row) {
                        *o += a * b;
                    }
                }
            }
        });
        Ok(out)
    }

    /// Packs this matrix into a [`PackedMatrix`] if every entry is exactly
    /// `±1.0`, or `None` otherwise (see
    /// [`PackedMatrix::from_bipolar`](crate::packed::PackedMatrix::from_bipolar)).
    ///
    /// [`PackedMatrix`]: crate::packed::PackedMatrix
    #[must_use]
    pub fn pack_bipolar(&self) -> Option<crate::packed::PackedMatrix> {
        crate::packed::PackedMatrix::from_bipolar(self)
    }

    /// Returns the transpose as a new matrix.
    #[must_use]
    pub fn transposed(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Multiplies every element by `factor`.
    pub fn scale(&mut self, factor: f32) {
        for v in &mut self.data {
            *v *= factor;
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: FnMut(f32) -> f32>(&mut self, mut f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Frobenius (`l2`) norm of the whole matrix.
    #[must_use]
    pub fn frobenius_norm(&self) -> f64 {
        self.data
            .iter()
            .map(|v| f64::from(*v) * f64::from(*v))
            .sum::<f64>()
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_and_indexing() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!((m.rows(), m.cols()), (2, 3));
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn constructors_validate() {
        assert!(Matrix::from_rows(&[]).is_err());
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(Matrix::from_flat(2, 2, vec![0.0; 3]).is_err());
        assert!(Matrix::from_flat(0, 2, vec![]).is_err());
    }

    #[test]
    fn matmul_small_known_values() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(BinnetError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn transpose_matmul_matches_explicit_transpose() {
        let x = Matrix::from_rows(&[vec![1.0, -2.0, 0.5], vec![0.0, 3.0, 1.0]]).unwrap();
        let g = Matrix::from_rows(&[vec![0.25, -1.0], vec![2.0, 0.5]]).unwrap();
        let fast = x.transpose_matmul(&g).unwrap();
        let slow = x.transposed().matmul(&g).unwrap();
        assert_eq!(fast, slow);
        assert_eq!((fast.rows(), fast.cols()), (3, 2));
    }

    #[test]
    fn pooled_transpose_matmul_is_bit_identical_across_widths() {
        // awkward magnitudes so any accumulation-order change would show
        let x = Matrix::from_flat(
            3,
            5,
            (0..15)
                .map(|i| (i as f32 * 0.37 - 2.0) * 1e3 + 0.125)
                .collect(),
        )
        .unwrap();
        let g = Matrix::from_flat(3, 4, (0..12).map(|i| 1.0 / (i as f32 + 3.0)).collect()).unwrap();
        let seq = x.transpose_matmul(&g).unwrap();
        for threads in [2, 3, 8] {
            let pooled = x
                .transpose_matmul_pooled(&g, &threadpool::ThreadPool::new(threads))
                .unwrap();
            assert_eq!(pooled, seq, "threads={threads}");
        }
    }

    #[test]
    fn transpose_is_involutive() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn scale_and_map() {
        let mut m = Matrix::from_rows(&[vec![1.0, -2.0]]).unwrap();
        m.scale(2.0);
        assert_eq!(m.row(0), &[2.0, -4.0]);
        m.map_inplace(f32::abs);
        assert_eq!(m.row(0), &[2.0, 4.0]);
    }

    #[test]
    fn reshape_reuses_capacity() {
        let mut m = Matrix::zeros(4, 3);
        let ptr = m.as_slice().as_ptr();
        m.reshape(2, 3);
        assert_eq!((m.rows(), m.cols()), (2, 3));
        m.reshape(4, 3);
        assert_eq!(m.as_slice().len(), 12);
        assert_eq!(m.as_slice().as_ptr(), ptr, "no reallocation within capacity");
    }

    #[test]
    fn frobenius_norm_known_value() {
        let m = Matrix::from_rows(&[vec![3.0, 4.0]]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let m = Matrix::zeros(1, 1);
        let _ = m.get(0, 1);
    }
}
