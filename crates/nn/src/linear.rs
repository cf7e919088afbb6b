//! Fully-connected layer with manual backpropagation.

use crate::{xavier_uniform, NnError, Optimizer, Result};
use rand::Rng;
use sigma_matrix::{CsrMatrix, DenseMatrix};
use sigma_parallel::ThreadPool;

/// A dense linear layer `Y = X·W + b`.
///
/// The layer caches its input during [`Linear::forward`] so that
/// [`Linear::backward`] can compute `dW = Xᵀ·dY`, `db = 1ᵀ·dY` and
/// `dX = dY·Wᵀ`. For the LINKX/SIGMA `MLP(A)` component the input is a
/// sparse adjacency matrix; [`Linear::forward_sparse`] performs the same
/// computation without densifying `A` (the paper stresses this keeps the
/// cost at `O(m·f)`), and [`Linear::backward_sparse`] keeps the backward
/// pass at that cost by skipping the `n × n` input gradient.
///
/// Every matrix product here (`X·W`, `A·W`, `Xᵀ·dY`, `dY·Wᵀ`) runs on the
/// shared [`sigma_parallel::ThreadPool`] via the `sigma-matrix` kernels, and
/// the bias broadcast is row-partitioned on the same pool — all with
/// bitwise-deterministic results, so training is reproducible across
/// `SIGMA_NUM_THREADS` settings. The `db` column reduction stays serial: its
/// accumulation order would otherwise depend on the partition.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: DenseMatrix,
    bias: DenseMatrix,
    grad_weight: DenseMatrix,
    grad_bias: DenseMatrix,
    cached_input: Option<DenseMatrix>,
    cached_sparse_input: Option<CsrMatrix>,
}

impl Linear {
    /// Creates a layer with Xavier-initialised weights and zero bias.
    pub fn new<R: Rng + ?Sized>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        Self {
            weight: xavier_uniform(in_features, out_features, rng),
            bias: DenseMatrix::zeros(1, out_features),
            grad_weight: DenseMatrix::zeros(in_features, out_features),
            grad_bias: DenseMatrix::zeros(1, out_features),
            cached_input: None,
            cached_sparse_input: None,
        }
    }

    /// Rebuilds a layer from exported parameters (snapshot restore path).
    ///
    /// `weight` must be `in × out` and `bias` must be `1 × out`; gradients
    /// and caches start cleared, so the layer is immediately usable for both
    /// inference and further training.
    pub fn from_parts(weight: DenseMatrix, bias: DenseMatrix) -> Result<Self> {
        if bias.rows() != 1 || bias.cols() != weight.cols() {
            return Err(sigma_matrix::MatrixError::DimensionMismatch {
                op: "Linear::from_parts",
                lhs: weight.shape(),
                rhs: bias.shape(),
            }
            .into());
        }
        let (in_features, out_features) = weight.shape();
        Ok(Self {
            weight,
            bias,
            grad_weight: DenseMatrix::zeros(in_features, out_features),
            grad_bias: DenseMatrix::zeros(1, out_features),
            cached_input: None,
            cached_sparse_input: None,
        })
    }

    /// Exports the trainable parameters as `(weight, bias)` clones.
    pub fn export_parts(&self) -> (DenseMatrix, DenseMatrix) {
        (self.weight.clone(), self.bias.clone())
    }

    /// Input dimensionality.
    pub fn in_features(&self) -> usize {
        self.weight.rows()
    }

    /// Output dimensionality.
    pub fn out_features(&self) -> usize {
        self.weight.cols()
    }

    /// Immutable access to the weight matrix.
    pub fn weight(&self) -> &DenseMatrix {
        &self.weight
    }

    /// Immutable access to the bias row vector.
    pub fn bias(&self) -> &DenseMatrix {
        &self.bias
    }

    /// Number of trainable scalar parameters.
    pub fn num_parameters(&self) -> usize {
        self.weight.rows() * self.weight.cols() + self.bias.cols()
    }

    /// Forward pass on a dense input, caching the input for backward.
    pub fn forward(&mut self, input: &DenseMatrix) -> Result<DenseMatrix> {
        let mut out = input.matmul(&self.weight)?;
        self.add_bias(&mut out);
        self.cached_input = Some(input.clone());
        self.cached_sparse_input = None;
        Ok(out)
    }

    /// Forward pass on a sparse input (e.g. the adjacency matrix in
    /// `MLP(A)`), caching the input for backward.
    pub fn forward_sparse(&mut self, input: &CsrMatrix) -> Result<DenseMatrix> {
        let mut out = input.spmm(&self.weight)?;
        self.add_bias(&mut out);
        self.cached_sparse_input = Some(input.clone());
        self.cached_input = None;
        Ok(out)
    }

    /// Forward pass without caching (inference only).
    pub fn forward_inference(&self, input: &DenseMatrix) -> Result<DenseMatrix> {
        let mut out = input.matmul(&self.weight)?;
        self.add_bias(&mut out);
        Ok(out)
    }

    /// Backward pass: accumulates `dW`, `db` and returns `dX = dY·Wᵀ`.
    ///
    /// Returns [`NnError::MissingForwardCache`] if no forward pass preceded
    /// this call.
    pub fn backward(&mut self, grad_output: &DenseMatrix) -> Result<DenseMatrix> {
        self.accumulate_parameter_gradients(grad_output)?;
        // dX = dY·Wᵀ.
        Ok(grad_output.matmul_transpose_other(&self.weight)?)
    }

    /// Backward pass of [`Linear::forward_sparse`]: accumulates `dW = Aᵀ·dY`
    /// and `db` exactly like [`Linear::backward`], but returns no input
    /// gradient. The sparse input is data (the adjacency matrix of
    /// `MLP(A)`), so its gradient — a dense `n × n` matrix for `A` — is
    /// never needed.
    ///
    /// Returns [`NnError::MissingForwardCache`] if no forward pass preceded
    /// this call.
    pub fn backward_sparse(&mut self, grad_output: &DenseMatrix) -> Result<()> {
        self.accumulate_parameter_gradients(grad_output)
    }

    /// Accumulates `dW = Xᵀ·dY` (dense or sparse cached input) and
    /// `db = 1ᵀ·dY` — the parameter half of both backward passes.
    fn accumulate_parameter_gradients(&mut self, grad_output: &DenseMatrix) -> Result<()> {
        let grad_w = if let Some(x) = &self.cached_input {
            x.matmul_transpose_self(grad_output)?
        } else if let Some(a) = &self.cached_sparse_input {
            a.spmm_transpose(grad_output)?
        } else {
            return Err(NnError::MissingForwardCache { layer: "Linear" });
        };
        self.grad_weight.add_assign(&grad_w)?;
        let mut db = DenseMatrix::zeros(1, grad_output.cols());
        for r in 0..grad_output.rows() {
            for (j, &v) in grad_output.row(r).iter().enumerate() {
                db.set(0, j, db.get(0, j) + v);
            }
        }
        self.grad_bias.add_assign(&db)?;
        Ok(())
    }

    /// Clears accumulated gradients and cached activations.
    pub fn zero_grad(&mut self) {
        self.grad_weight.fill_zero();
        self.grad_bias.fill_zero();
    }

    /// Applies the accumulated gradients with `optimizer`. `key_base` must be
    /// unique per layer within a model (each layer consumes two keys).
    pub fn apply_gradients(
        &mut self,
        optimizer: &mut dyn Optimizer,
        key_base: usize,
    ) -> Result<()> {
        optimizer.update(key_base, &mut self.weight, &self.grad_weight)?;
        optimizer.update(key_base + 1, &mut self.bias, &self.grad_bias)?;
        Ok(())
    }

    /// L2 norm of the accumulated weight gradient (diagnostics/tests).
    pub fn grad_norm(&self) -> f32 {
        (self.grad_weight.frobenius_norm().powi(2) + self.grad_bias.frobenius_norm().powi(2)).sqrt()
    }

    /// The bit patterns of the accumulated `dW` and `db`, for bitwise
    /// gradient checks in tests.
    #[cfg(test)]
    pub(crate) fn gradient_bits(&self) -> (Vec<u32>, Vec<u32>) {
        let bits = |m: &DenseMatrix| m.as_slice().iter().map(|x| x.to_bits()).collect();
        (bits(&self.grad_weight), bits(&self.grad_bias))
    }

    fn add_bias(&self, out: &mut DenseMatrix) {
        let bias = self.bias.row(0).to_vec();
        let width = out.cols();
        if width == 0 {
            return;
        }
        // Row-partitioned broadcast: each output row is touched by exactly
        // one thread, so the result matches the serial loop bitwise.
        let broadcast = |_first_row: usize, block: &mut [f32]| {
            for row in block.chunks_exact_mut(width) {
                for (v, b) in row.iter_mut().zip(bias.iter()) {
                    *v += b;
                }
            }
        };
        let pool = ThreadPool::global();
        if pool.should_parallelize(out.rows().saturating_mul(width)) {
            pool.par_row_blocks_mut(out.as_mut_slice(), width, broadcast);
        } else {
            broadcast(0, out.as_mut_slice());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sgd;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn finite_difference_check(
        layer: &mut Linear,
        input: &DenseMatrix,
        row: usize,
        col: usize,
    ) -> (f32, f32) {
        // Loss = sum of outputs. dLoss/dW[row][col] analytically vs numerically.
        let ones = DenseMatrix::filled(input.rows(), layer.out_features(), 1.0);
        layer.zero_grad();
        let _ = layer.forward(input).unwrap();
        let _ = layer.backward(&ones).unwrap();
        let analytic = layer.grad_weight.get(row, col);

        let eps = 1e-3;
        let mut plus = layer.clone();
        plus.weight.set(row, col, plus.weight.get(row, col) + eps);
        let out_plus = plus.forward_inference(input).unwrap().sum();
        let mut minus = layer.clone();
        minus.weight.set(row, col, minus.weight.get(row, col) - eps);
        let out_minus = minus.forward_inference(input).unwrap().sum();
        let numeric = (out_plus - out_minus) / (2.0 * eps);
        (analytic, numeric)
    }

    #[test]
    fn forward_shapes_and_bias() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = Linear::new(3, 2, &mut rng);
        let x = DenseMatrix::filled(4, 3, 0.0);
        let y = layer.forward(&x).unwrap();
        assert_eq!(y.shape(), (4, 2));
        // Zero input means output equals bias (zero-initialised).
        assert!(y.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(layer.num_parameters(), 3 * 2 + 2);
    }

    #[test]
    fn backward_requires_forward() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = Linear::new(3, 2, &mut rng);
        let dy = DenseMatrix::zeros(4, 2);
        assert!(matches!(
            layer.backward(&dy),
            Err(NnError::MissingForwardCache { .. })
        ));
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Linear::new(4, 3, &mut rng);
        let x = DenseMatrix::from_fn(5, 4, |i, j| ((i + 2 * j) as f32).sin());
        for &(r, c) in &[(0, 0), (2, 1), (3, 2)] {
            let (analytic, numeric) = finite_difference_check(&mut layer, &x, r, c);
            assert!(
                (analytic - numeric).abs() < 1e-2,
                "grad mismatch at ({r},{c}): {analytic} vs {numeric}"
            );
        }
    }

    #[test]
    fn sparse_forward_matches_dense_forward() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut layer = Linear::new(3, 2, &mut rng);
        let sparse =
            CsrMatrix::from_triplets(4, 3, &[(0, 1, 1.0), (2, 0, 2.0), (3, 2, -1.0)]).unwrap();
        let dense = sparse.to_dense();
        let y_sparse = layer.forward_sparse(&sparse).unwrap();
        let y_dense = layer.forward(&dense).unwrap();
        for (a, b) in y_sparse.as_slice().iter().zip(y_dense.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn sparse_backward_matches_dense_backward() {
        let mut rng = StdRng::seed_from_u64(6);
        let sparse =
            CsrMatrix::from_triplets(4, 3, &[(0, 1, 1.0), (2, 0, 2.0), (3, 2, -1.0)]).unwrap();
        let dense = sparse.to_dense();
        let dy = DenseMatrix::from_fn(4, 2, |i, j| (i + j) as f32 * 0.5);

        let mut l1 = Linear::new(3, 2, &mut rng);
        let mut l2 = l1.clone();
        l1.forward_sparse(&sparse).unwrap();
        l1.backward(&dy).unwrap();
        l2.forward(&dense).unwrap();
        l2.backward(&dy).unwrap();
        for (a, b) in l1
            .grad_weight
            .as_slice()
            .iter()
            .zip(l2.grad_weight.as_slice())
        {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn backward_sparse_accumulates_the_same_parameter_gradients() {
        let mut rng = StdRng::seed_from_u64(8);
        let sparse =
            CsrMatrix::from_triplets(4, 3, &[(0, 1, 1.0), (2, 0, 2.0), (3, 2, -1.0)]).unwrap();
        let dy = DenseMatrix::from_fn(4, 2, |i, j| (i as f32 - j as f32) * 0.3);
        let mut full = Linear::new(3, 2, &mut rng);
        let mut params_only = full.clone();
        full.forward_sparse(&sparse).unwrap();
        full.backward(&dy).unwrap();
        params_only.forward_sparse(&sparse).unwrap();
        params_only.backward_sparse(&dy).unwrap();
        assert_eq!(full.gradient_bits(), params_only.gradient_bits());
        // Without a forward pass there is nothing to differentiate.
        let mut fresh = Linear::new(3, 2, &mut rng);
        assert!(matches!(
            fresh.backward_sparse(&dy),
            Err(NnError::MissingForwardCache { .. })
        ));
    }

    #[test]
    fn from_parts_round_trip_and_validation() {
        let mut rng = StdRng::seed_from_u64(21);
        let layer = Linear::new(3, 2, &mut rng);
        let (w, b) = layer.export_parts();
        let restored = Linear::from_parts(w.clone(), b.clone()).unwrap();
        let x = DenseMatrix::from_fn(4, 3, |i, j| (i as f32 - j as f32) * 0.5);
        assert_eq!(
            layer.forward_inference(&x).unwrap(),
            restored.forward_inference(&x).unwrap()
        );
        // Mis-shaped bias is rejected.
        assert!(Linear::from_parts(w, DenseMatrix::zeros(1, 5)).is_err());
        assert!(Linear::from_parts(DenseMatrix::zeros(3, 2), DenseMatrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn zero_grad_resets_accumulation() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = Linear::new(2, 2, &mut rng);
        let x = DenseMatrix::filled(3, 2, 1.0);
        let dy = DenseMatrix::filled(3, 2, 1.0);
        layer.forward(&x).unwrap();
        layer.backward(&dy).unwrap();
        assert!(layer.grad_norm() > 0.0);
        layer.zero_grad();
        assert_eq!(layer.grad_norm(), 0.0);
    }

    #[test]
    fn apply_gradients_moves_parameters_downhill() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = Linear::new(2, 1, &mut rng);
        let x = DenseMatrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]).unwrap();
        // Loss = sum(Y), dY = 1 => weights should decrease under SGD.
        let before = layer.weight.clone();
        let mut opt = Sgd::new(0.1);
        layer.forward(&x).unwrap();
        layer.backward(&DenseMatrix::filled(2, 1, 1.0)).unwrap();
        layer.apply_gradients(&mut opt, 0).unwrap();
        assert!(layer.weight.get(0, 0) < before.get(0, 0));
        assert!(layer.weight.get(1, 0) < before.get(1, 0));
    }
}
