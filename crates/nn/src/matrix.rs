//! Dense row-major `f32` matrix used throughout the NN substrate.
//!
//! The matrix is deliberately minimal: it supports exactly the operations the
//! training loops in this workspace need (GEMM, transposed GEMM variants,
//! element-wise maps, row broadcasts and column reductions), with shape checks
//! on every operation. All layouts are row-major, batch-first: a batch of `b`
//! samples with `f` features is a `b × f` matrix.

use crate::activation::Activation;
use crate::kernel::{self, KernelPath};
use serde::{Deserialize, Serialize};
use std::fmt;

/// GEMM micro-tile: accumulates `IB` rows × `JB` columns of the product in
/// registers over the whole depth and stores each element once. `lhs` holds
/// the IB-row block (row-major, `IB × depth`), `out` the matching
/// `IB × n` output block. Per output element the additions happen in
/// ascending-`k` order, independent of `IB`/`JB` — part of the
/// [bit-exactness contract](crate#bit-exactness-contract) every tile size
/// shares.
#[inline(always)]
fn micro_tile<const IB: usize, const JB: usize>(
    lhs: &[f32],
    depth: usize,
    rhs: &[f32],
    n: usize,
    out: &mut [f32],
    j0: usize,
) {
    let mut acc = [[0.0f32; JB]; IB];
    for k in 0..depth {
        let b: &[f32; JB] = rhs[k * n + j0..k * n + j0 + JB]
            .try_into()
            .expect("tile slice has JB elements");
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let a = lhs[r * depth + k];
            for (acc_l, &b_l) in acc_r.iter_mut().zip(b) {
                *acc_l += a * b_l;
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        out[r * n + j0..r * n + j0 + JB].copy_from_slice(acc_r);
    }
}

/// Column sweep of one IB-row block: wide tiles first, then narrower ones,
/// then a scalar tail — every output element of the block is assigned
/// exactly once.
#[inline(always)]
fn gemm_row_block<const IB: usize>(
    lhs: &[f32],
    depth: usize,
    rhs: &[f32],
    n: usize,
    out: &mut [f32],
) {
    let mut j0 = 0;
    while j0 + 32 <= n {
        micro_tile::<IB, 32>(lhs, depth, rhs, n, out, j0);
        j0 += 32;
    }
    while j0 + 16 <= n {
        micro_tile::<IB, 16>(lhs, depth, rhs, n, out, j0);
        j0 += 16;
    }
    while j0 + 8 <= n {
        micro_tile::<IB, 8>(lhs, depth, rhs, n, out, j0);
        j0 += 8;
    }
    for j in j0..n {
        for r in 0..IB {
            let mut acc = 0.0f32;
            for k in 0..depth {
                acc += lhs[r * depth + k] * rhs[k * n + j];
            }
            out[r * n + j] = acc;
        }
    }
}

/// One column panel of a [`PackedWeights`] layout: `width` output columns
/// starting at `j0`, stored k-major (`panel[k * stride + j]`) at `offset`
/// into the packed buffer. `stride` is the *stored* column count: tail
/// panels narrower than a SIMD lane group are zero-padded to `stride = 8`
/// so the vector kernels never need a tail branch (the padded lanes
/// accumulate exact zeros and are simply not copied out).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Panel {
    j0: u32,
    width: u32,
    stride: u32,
    offset: u32,
}

/// A GEMM right-hand side repacked into contiguous column panels matching
/// the micro-tile sweep (32 → 16 → 8 columns → tail).
///
/// In the row-major layout, a `JB`-column micro-tile reads `JB` values at
/// stride `n` per depth step; packing stores each panel's `depth × width`
/// block contiguously (k-major), so the fused kernels stream the weights
/// linearly regardless of the full matrix width. Packing only reorders
/// storage — each output element still accumulates the identical products
/// in ascending-`k` order, so results stay bit-exact with the row-major
/// kernels (see the [bit-exactness
/// contract](crate#bit-exactness-contract)).
///
/// # Examples
///
/// ```
/// use pinnsoc_nn::matrix::{Matrix, PackedWeights};
/// use pinnsoc_nn::Activation;
///
/// let w = Matrix::from_rows(&[&[1.0, -1.0], &[0.5, 2.0]]);
/// let packed = PackedWeights::pack(&w);
/// let x = Matrix::from_rows(&[&[1.0, 1.0]]);
/// let mut out = Matrix::zeros(1, 1);
/// x.matmul_bias_act_into(&packed, &[0.0, 0.0], Activation::Identity, &mut out);
/// assert_eq!(out, x.matmul(&w));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PackedWeights {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
    panels: Vec<Panel>,
}

impl PackedWeights {
    /// Repacks `weight` (a `fan_in × fan_out` GEMM right-hand side) into
    /// column panels. Panel widths mirror the `gemm_row_block` column sweep
    /// exactly, so the fused kernels tile the output identically.
    pub fn pack(weight: &Matrix) -> Self {
        let mut packed = Self {
            rows: 0,
            cols: 0,
            data: Vec::with_capacity(weight.len()),
            panels: Vec::new(),
        };
        packed.pack_into(weight);
        packed
    }

    /// Repacks `weight` into this buffer, reusing its storage — the
    /// training path repacks once per optimizer step, so the panels must
    /// not reallocate in the steady state. Produces exactly the layout of
    /// [`PackedWeights::pack`].
    pub fn pack_into(&mut self, weight: &Matrix) {
        let (rows, cols) = weight.shape();
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.panels.clear();
        let mut j0 = 0usize;
        while j0 < cols {
            let width = match cols - j0 {
                w if w >= 32 => 32,
                w if w >= 16 => 16,
                w if w >= 8 => 8,
                w => w,
            };
            // Lane-aligned storage: a tail narrower than one 8-lane group
            // is padded with zero columns so the SIMD kernels can always
            // run a full strip (the padded lanes sum exact zeros and are
            // discarded on store).
            let stride = width.max(8);
            self.panels.push(Panel {
                j0: j0 as u32,
                width: width as u32,
                stride: stride as u32,
                offset: self.data.len() as u32,
            });
            for k in 0..rows {
                self.data.extend_from_slice(&weight.row(k)[j0..j0 + width]);
                self.data.resize(self.data.len() + (stride - width), 0.0);
            }
            j0 += width;
        }
    }

    /// Fan-in of the packed weight (GEMM depth).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Fan-out of the packed weight (GEMM output width).
    pub fn cols(&self) -> usize {
        self.cols
    }
}

/// Packed-panel micro-tile: accumulates `IB × JB` outputs in registers
/// (ascending-`k`, like [`micro_tile`]) and stores each raw sum once. The
/// `chunks_exact` iteration hands the optimizer a provably-JB-long weight
/// slice per depth step, so the loop vectorizes like the row-major kernel
/// while streaming the packed panel linearly.
#[inline(always)]
fn micro_tile_packed<const IB: usize, const JB: usize>(
    lhs: &[f32],
    depth: usize,
    panel: &[f32],
    n: usize,
    out: &mut [f32],
    j0: usize,
) {
    let mut acc = [[0.0f32; JB]; IB];
    for (k, b) in panel.chunks_exact(JB).take(depth).enumerate() {
        let b: &[f32; JB] = b.try_into().expect("chunk has JB elements");
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let a = lhs[r * depth + k];
            for (acc_l, &b_l) in acc_r.iter_mut().zip(b) {
                *acc_l += a * b_l;
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        out[r * n + j0..r * n + j0 + JB].copy_from_slice(acc_r);
    }
}

/// Fused column sweep of one IB-row block over all packed panels, with the
/// bias-and-activation epilogue applied to the whole `IB × n` block right
/// after its GEMM — while it is still L1-resident — instead of as a second
/// full-matrix pass. Each output element is written as its raw ascending-`k`
/// sum and then rewritten once as `act(sum + bias)`: the identical
/// arithmetic to the unfused `GEMM → sweep` pipeline, per the
/// [bit-exactness contract](crate#bit-exactness-contract).
#[inline(always)]
fn gemm_row_block_fused<const IB: usize, F: Fn(f32) -> f32 + Copy>(
    lhs: &[f32],
    depth: usize,
    packed: &PackedWeights,
    out: &mut [f32],
    bias: &[f32],
    act: F,
) {
    let n = packed.cols;
    for panel in &packed.panels {
        let j0 = panel.j0 as usize;
        let width = panel.width as usize;
        let stride = panel.stride as usize;
        let data = &packed.data[panel.offset as usize..panel.offset as usize + depth * stride];
        match width {
            32 => micro_tile_packed::<IB, 32>(lhs, depth, data, n, out, j0),
            16 => micro_tile_packed::<IB, 16>(lhs, depth, data, n, out, j0),
            8 => micro_tile_packed::<IB, 8>(lhs, depth, data, n, out, j0),
            _ => {
                // Narrow tail panel (< 8 columns, zero-padded to `stride`):
                // scalar per live column, still ascending-`k` per output
                // element.
                for jj in 0..width {
                    for r in 0..IB {
                        let mut acc = 0.0f32;
                        for k in 0..depth {
                            acc += lhs[r * depth + k] * data[k * stride + jj];
                        }
                        out[r * n + j0 + jj] = acc;
                    }
                }
            }
        }
    }
    for r in 0..IB {
        for (o, &b) in out[r * n..r * n + n].iter_mut().zip(bias) {
            *o = act(*o + b);
        }
    }
}

/// A dense, row-major matrix of `f32` values.
///
/// # Examples
///
/// ```
/// use pinnsoc_nn::matrix::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Default for Matrix {
    /// A `1 × 1` zero matrix — the smallest valid shape, for scratch
    /// buffers that are resized on first use.
    fn default() -> Self {
        Matrix::zeros(1, 1)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8;
        for r in 0..self.rows.min(max_rows) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(12) {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}", self[(r, c)])?;
            }
            if self.cols > 12 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        m.data.fill(value);
        m
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or a dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from a slice of equally sized rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows have differing lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "at least one row required");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.len(),
                cols,
                "row {i} has length {} (expected {cols})",
                r.len()
            );
            data.extend_from_slice(r);
        }
        Self::from_vec(rows.len(), cols, data)
    }

    /// Creates a single-row matrix from a feature slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always false: zero-dimension matrices cannot be constructed.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Flat row-major view of the data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrows row `r` as a feature slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterates over column `c` without allocating (row-major storage, so
    /// this is a strided walk).
    pub fn col_iter(&self, c: usize) -> impl Iterator<Item = f32> + '_ {
        assert!(
            c < self.cols,
            "column index {c} out of bounds ({})",
            self.cols
        );
        self.data[c..].iter().step_by(self.cols).copied()
    }

    /// Copies column `c` into `out`, whose length must equal the row
    /// count. The allocation-free replacement for the old
    /// `col(&self) -> Vec<f32>`.
    pub fn col_into(&self, c: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.rows, "column buffer length mismatch");
        for (o, v) in out.iter_mut().zip(self.col_iter(c)) {
            *o = v;
        }
    }

    /// Reuses this matrix's storage as a zeroed `rows × cols` buffer,
    /// reallocating only when the new shape needs more capacity. This is
    /// the allocation-free backbone of the batched inference paths.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Reshapes without zeroing, for callers that assign every element
    /// before reading any (batch-assembly buffers in the serving hot path).
    /// Existing contents become **unspecified** (stale values from earlier
    /// uses); newly grown capacity is still zero-filled (no `unsafe` in
    /// this crate). A steady-state reuse at the same size is free.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn reset_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.reshape_for_overwrite(rows, cols);
    }

    /// Reuses this matrix's buffer as `src`'s shape and copies `src` in —
    /// an allocation-free `clone_from` for cache buffers.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.reshape_for_overwrite(src.rows, src.cols);
        self.data.copy_from_slice(&src.data);
    }

    /// Reshapes without zeroing, for kernels that assign every element.
    /// Newly grown capacity is still zero-filled (no `unsafe` in this
    /// crate); a steady-state reuse at the same size is free.
    fn reshape_for_overwrite(&mut self, rows: usize, cols: usize) {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        let len = rows * cols;
        if self.data.len() < len {
            self.data.resize(len, 0.0);
        } else {
            self.data.truncate(len);
        }
        self.rows = rows;
        self.cols = cols;
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols.max(1));
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Matrix product `self · rhs` written into `out` (resized first),
    /// avoiding the allocation of [`Matrix::matmul`]. Accumulation order is
    /// identical to `matmul`, so results are bit-exact between the two
    /// paths (see the [bit-exactness
    /// contract](crate#bit-exactness-contract)).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        self.matmul_into_with(rhs, out, kernel::active());
    }

    /// [`Matrix::matmul_into`] on an explicit kernel path — the parity
    /// tests and microbenches compare paths without touching the
    /// process-global selection. Paths the host cannot run clamp down to
    /// its best supported one; every path is bit-identical.
    pub fn matmul_into_with(&self, rhs: &Matrix, out: &mut Matrix, path: KernelPath) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        // The kernel assigns every output element, so no zeroing pass.
        out.reshape_for_overwrite(self.rows, rhs.cols);
        let n = rhs.cols;
        let depth = self.cols;
        match path.min(kernel::detect()) {
            #[cfg(target_arch = "x86_64")]
            KernelPath::Avx2 => {
                // The strip-aligned columns run for the whole batch in a
                // single kernel call; the narrow column tail runs the
                // per-block kernel.
                let strips = n / 8;
                if strips > 0 {
                    kernel::x86::gemm_batch(
                        &self.data,
                        self.rows,
                        depth,
                        &rhs.data,
                        n,
                        strips,
                        &mut out.data,
                        n,
                    );
                }
                let j = strips * 8;
                if j < n {
                    let mut i = 0;
                    while i < self.rows {
                        let ib = if self.rows - i >= 8 { 8 } else { 1 };
                        let lhs = &self.data[i * depth..(i + ib) * depth];
                        let out_block = &mut out.data[i * n + j..(i + ib - 1) * n + n];
                        if ib == 8 {
                            kernel::x86::gemm_block::<8>(
                                lhs,
                                depth,
                                &rhs.data[j..],
                                n,
                                n - j,
                                false,
                                out_block,
                                n,
                            );
                        } else {
                            kernel::x86::gemm_block::<1>(
                                lhs,
                                depth,
                                &rhs.data[j..],
                                n,
                                n - j,
                                false,
                                out_block,
                                n,
                            );
                        }
                        i += ib;
                    }
                }
            }
            _ => {
                // Register-blocked scalar GEMM: 4-row blocks swept by the
                // widest micro-tile that fits (32 → 16 → 8 columns →
                // scalar tail), with a 1-row pass for the remainder rows.
                // See [`micro_tile`] for the register-blocking rationale
                // and the bit-parity guarantee.
                const IB: usize = 4;
                let mut i = 0;
                while i + IB <= self.rows {
                    gemm_row_block::<IB>(
                        &self.data[i * depth..(i + IB) * depth],
                        depth,
                        &rhs.data,
                        n,
                        &mut out.data[i * n..(i + IB) * n],
                    );
                    i += IB;
                }
                while i < self.rows {
                    gemm_row_block::<1>(
                        &self.data[i * depth..(i + 1) * depth],
                        depth,
                        &rhs.data,
                        n,
                        &mut out.data[i * n..(i + 1) * n],
                    );
                    i += 1;
                }
            }
        }
    }

    /// Fused dense-layer forward: `out = act(self · packed + bias)` in one
    /// kernel — the GEMM epilogue applies the bias and activation while the
    /// accumulators are still in registers, eliminating the separate
    /// bias-and-activation sweep over the output (`out` is resized first;
    /// every element is assigned exactly once).
    ///
    /// Accumulation order per output element is identical to
    /// [`Matrix::matmul_into`] followed by an elementwise
    /// `act(x + bias)` pass, so the two pipelines are bit-exact — see the
    /// [bit-exactness contract](crate#bit-exactness-contract).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != packed.rows()` or
    /// `bias.len() != packed.cols()`.
    pub fn matmul_bias_act_into(
        &self,
        packed: &PackedWeights,
        bias: &[f32],
        act: Activation,
        out: &mut Matrix,
    ) {
        self.matmul_bias_act_into_with(packed, bias, act, out, kernel::active());
    }

    /// [`Matrix::matmul_bias_act_into`] on an explicit kernel path — see
    /// [`Matrix::matmul_into_with`].
    pub fn matmul_bias_act_into_with(
        &self,
        packed: &PackedWeights,
        bias: &[f32],
        act: Activation,
        out: &mut Matrix,
        path: KernelPath,
    ) {
        assert_eq!(
            self.cols,
            packed.rows(),
            "matmul_bias_act_into shape mismatch: {}x{} · {}x{}",
            self.rows,
            self.cols,
            packed.rows(),
            packed.cols()
        );
        assert_eq!(bias.len(), packed.cols(), "bias length must equal fan_out");
        let path = path.min(kernel::detect());
        // Dispatch on the activation once, monomorphizing the whole kernel
        // per variant: a runtime `Activation` in the epilogue's inner loop
        // would leave a 5-way branch per output element (LLVM refuses to
        // unswitch across the `tanh`/`exp` arms), costing ~10× on the wide
        // tiles. `Activation::apply` on the matching scalar stays the
        // source of truth for each variant's arithmetic.
        match act {
            Activation::Relu => {
                self.fused_gemm_impl(packed, bias, out, |x| Activation::Relu.apply(x), path)
            }
            Activation::Tanh => {
                self.fused_gemm_impl(packed, bias, out, |x| Activation::Tanh.apply(x), path)
            }
            Activation::Sigmoid => {
                self.fused_gemm_impl(packed, bias, out, |x| Activation::Sigmoid.apply(x), path)
            }
            Activation::Identity => {
                self.fused_gemm_impl(packed, bias, out, |x| Activation::Identity.apply(x), path)
            }
            Activation::LeakyRelu => {
                self.fused_gemm_impl(packed, bias, out, |x| Activation::LeakyRelu.apply(x), path)
            }
        }
    }

    fn fused_gemm_impl<F: Fn(f32) -> f32 + Copy>(
        &self,
        packed: &PackedWeights,
        bias: &[f32],
        out: &mut Matrix,
        act: F,
        path: KernelPath,
    ) {
        let n = packed.cols();
        let depth = self.cols;
        out.reshape_for_overwrite(self.rows, n);
        match path {
            #[cfg(target_arch = "x86_64")]
            KernelPath::Avx2 => {
                for panel in &packed.panels {
                    let j0 = panel.j0 as usize;
                    let width = panel.width as usize;
                    let stride = panel.stride as usize;
                    let data =
                        &packed.data[panel.offset as usize..panel.offset as usize + depth * stride];
                    let padded = stride != width;
                    // A full panel's width is a whole number of 8-column
                    // strips, so it runs for the entire batch in one
                    // kernel call; a padded tail panel runs the per-block
                    // kernel.
                    if !padded {
                        kernel::x86::gemm_batch(
                            &self.data,
                            self.rows,
                            depth,
                            data,
                            stride,
                            width / 8,
                            &mut out.data[j0..],
                            n,
                        );
                        continue;
                    }
                    let mut i = 0;
                    while i < self.rows {
                        let ib = if self.rows - i >= 8 { 8 } else { 1 };
                        let lhs = &self.data[i * depth..(i + ib) * depth];
                        let out_block = &mut out.data[i * n + j0..(i + ib - 1) * n + n];
                        if ib == 8 {
                            kernel::x86::gemm_block::<8>(
                                lhs, depth, data, stride, width, padded, out_block, n,
                            );
                        } else {
                            kernel::x86::gemm_block::<1>(
                                lhs, depth, data, stride, width, padded, out_block, n,
                            );
                        }
                        i += ib;
                    }
                }
                // Identical scalar epilogue to the reference kernel: each
                // element is rewritten once as `act(sum + bias)`.
                for row in out.data.chunks_exact_mut(n).take(self.rows) {
                    for (o, &b) in row.iter_mut().zip(bias) {
                        *o = act(*o + b);
                    }
                }
            }
            _ => {
                const IB: usize = 4;
                let mut i = 0;
                while i + IB <= self.rows {
                    gemm_row_block_fused::<IB, F>(
                        &self.data[i * depth..(i + IB) * depth],
                        depth,
                        packed,
                        &mut out.data[i * n..(i + IB) * n],
                        bias,
                        act,
                    );
                    i += IB;
                }
                while i < self.rows {
                    gemm_row_block_fused::<1, F>(
                        &self.data[i * depth..(i + 1) * depth],
                        depth,
                        packed,
                        &mut out.data[i * n..(i + 1) * n],
                        bias,
                        act,
                    );
                    i += 1;
                }
            }
        }
    }

    /// Computes `selfᵀ · rhs` without materializing the transpose.
    ///
    /// Shapes: `self` is `m × n`, `rhs` is `m × p`, result is `n × p`.
    pub fn matmul_tn(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(1, 1);
        self.matmul_tn_into(rhs, &mut out);
        out
    }

    /// [`Matrix::matmul_tn`] into a caller-owned buffer (zeroed and resized
    /// first), avoiding the allocation. Accumulation order is identical, so
    /// the two paths are bit-exact — see the [bit-exactness
    /// contract](crate#bit-exactness-contract).
    pub fn matmul_tn_into(&self, rhs: &Matrix, out: &mut Matrix) {
        self.matmul_tn_into_with(rhs, out, kernel::active());
    }

    /// [`Matrix::matmul_tn_into`] on an explicit kernel path — see
    /// [`Matrix::matmul_into_with`].
    pub fn matmul_tn_into_with(&self, rhs: &Matrix, out: &mut Matrix, path: KernelPath) {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_tn shape mismatch: ({}x{})ᵀ · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        // The rank-1 update sweep accumulates, so start from zeros. Every
        // path applies the identical per-element `+= a * b` updates in
        // ascending-`i` order (SIMD vectorizes across `j`, which holds
        // independent output elements), including the exact-zero skip, so
        // results are bit-exact across paths.
        out.reset(self.cols, rhs.cols);
        let path = path.min(kernel::detect());
        for i in 0..self.rows {
            let lhs_row = &self.data[i * self.cols..(i + 1) * self.cols];
            let rhs_row = &rhs.data[i * rhs.cols..(i + 1) * rhs.cols];
            for (k, &a) in lhs_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[k * rhs.cols..(k + 1) * rhs.cols];
                match path {
                    #[cfg(target_arch = "x86_64")]
                    KernelPath::Avx2 => kernel::x86::axpy_row(a, rhs_row, out_row),
                    _ => {
                        for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                            *o += a * b;
                        }
                    }
                }
            }
        }
    }

    /// Computes `self · rhsᵀ` without materializing the transpose.
    ///
    /// Shapes: `self` is `m × n`, `rhs` is `p × n`, result is `m × p`.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(1, 1);
        self.matmul_nt_into(rhs, &mut out);
        out
    }

    /// [`Matrix::matmul_nt`] into a caller-owned buffer (resized first),
    /// avoiding the allocation. Accumulation order is identical, so the two
    /// paths are bit-exact — see the [bit-exactness
    /// contract](crate#bit-exactness-contract).
    pub fn matmul_nt_into(&self, rhs: &Matrix, out: &mut Matrix) {
        self.matmul_nt_into_with(rhs, out, kernel::active());
    }

    /// [`Matrix::matmul_nt_into`] on an explicit kernel path — see
    /// [`Matrix::matmul_into_with`].
    pub fn matmul_nt_into_with(&self, rhs: &Matrix, out: &mut Matrix, path: KernelPath) {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_nt shape mismatch: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let path = path.min(kernel::detect());
        #[cfg(not(target_arch = "x86_64"))]
        let _ = path;
        #[cfg(target_arch = "x86_64")]
        if path == KernelPath::Avx2 {
            // A dot-product form would need horizontal lane sums, which
            // reorder the accumulation. Instead transpose `rhs` into a
            // thread-local scratch and run the column-vectorized GEMM:
            // each output element still sums `a[i][k] * b[j][k]` in
            // ascending shared-dimension order, bit-exact with the scalar
            // loop below.
            thread_local! {
                static NT_SCRATCH: std::cell::RefCell<Matrix> =
                    std::cell::RefCell::new(Matrix::zeros(1, 1));
            }
            NT_SCRATCH.with(|scratch| {
                let mut rhs_t = scratch.borrow_mut();
                rhs_t.reshape_for_overwrite(rhs.cols, rhs.rows);
                for r in 0..rhs.rows {
                    for c in 0..rhs.cols {
                        rhs_t.data[c * rhs.rows + r] = rhs.data[r * rhs.cols + c];
                    }
                }
                self.matmul_into_with(&rhs_t, out, path);
            });
            return;
        }
        // Every element is assigned from a register accumulator.
        out.reshape_for_overwrite(self.rows, rhs.rows);
        for i in 0..self.rows {
            let lhs_row = &self.data[i * self.cols..(i + 1) * self.cols];
            for j in 0..rhs.rows {
                let rhs_row = &rhs.data[j * rhs.cols..(j + 1) * rhs.cols];
                let mut acc = 0.0;
                for (&a, &b) in lhs_row.iter().zip(rhs_row) {
                    acc += a * b;
                }
                out.data[i * rhs.rows + j] = acc;
            }
        }
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Element-wise sum; shapes must match.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a + b)
    }

    /// Element-wise difference; shapes must match.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product; shapes must match.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a * b)
    }

    /// Element-wise combination of two equal-shaped matrices.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_with(&self, rhs: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "element-wise op shape mismatch: {:?} vs {:?}",
            self.shape(),
            rhs.shape()
        );
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// In-place element-wise accumulate: `self += rhs`.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// In-place scaled accumulate: `self += alpha * rhs`.
    pub fn axpy(&mut self, alpha: f32, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
    }

    /// Element-wise combination written into a caller-owned buffer (resized
    /// first) — the allocation-free sibling of [`Matrix::zip_with`].
    ///
    /// # Panics
    ///
    /// Panics if the input shapes differ.
    pub fn zip_into(&self, rhs: &Matrix, out: &mut Matrix, f: impl Fn(f32, f32) -> f32) {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "element-wise op shape mismatch: {:?} vs {:?}",
            self.shape(),
            rhs.shape()
        );
        out.reshape_for_overwrite(self.rows, self.cols);
        for ((o, &a), &b) in out.data.iter_mut().zip(&self.data).zip(&rhs.data) {
            *o = f(a, b);
        }
    }

    /// Returns a copy with every element transformed by `f`.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Transforms every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Writes `f` applied to every element into a caller-owned buffer
    /// (resized first) — the allocation-free sibling of [`Matrix::map`].
    pub fn map_into(&self, out: &mut Matrix, f: impl Fn(f32) -> f32) {
        out.reshape_for_overwrite(self.rows, self.cols);
        for (o, &x) in out.data.iter_mut().zip(&self.data) {
            *o = f(x);
        }
    }

    /// Returns a copy scaled by `alpha`.
    pub fn scale(&self, alpha: f32) -> Matrix {
        self.map(|x| x * alpha)
    }

    /// Adds a row vector to every row (bias broadcast).
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != self.cols()`.
    pub fn add_row_broadcast(&self, bias: &[f32]) -> Matrix {
        assert_eq!(bias.len(), self.cols, "broadcast length mismatch");
        let mut out = self.clone();
        for r in 0..out.rows {
            for (x, &b) in out.row_mut(r).iter_mut().zip(bias) {
                *x += b;
            }
        }
        out
    }

    /// Sums each column into a length-`cols` vector (bias gradient reduction).
    pub fn column_sums(&self) -> Vec<f32> {
        let mut sums = Vec::new();
        self.column_sums_into(&mut sums);
        sums
    }

    /// [`Matrix::column_sums`] into a caller-owned vector (cleared and
    /// resized first), avoiding the allocation. Accumulation order is
    /// identical, so the two paths are bit-exact.
    pub fn column_sums_into(&self, sums: &mut Vec<f32>) {
        sums.clear();
        sums.resize(self.cols, 0.0);
        for r in 0..self.rows {
            for (s, &x) in sums.iter_mut().zip(self.row(r)) {
                *s += x;
            }
        }
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }

    /// Maximum absolute element value (`0.0` never occurs: matrices are non-empty).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |m, &x| m.max(x.abs()))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Vertically concatenates two matrices with equal column counts.
    pub fn vstack(&self, below: &Matrix) -> Matrix {
        assert_eq!(self.cols, below.cols, "vstack column mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&below.data);
        Matrix::from_vec(self.rows + below.rows, self.cols, data)
    }

    /// Horizontally concatenates two matrices with equal row counts.
    pub fn hstack(&self, right: &Matrix) -> Matrix {
        assert_eq!(self.rows, right.rows, "hstack row mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + right.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(right.row(r));
        }
        out
    }

    /// Extracts a contiguous block of rows `[start, start + count)`.
    pub fn slice_rows(&self, start: usize, count: usize) -> Matrix {
        assert!(start + count <= self.rows, "row slice out of bounds");
        assert!(count > 0, "row slice must be non-empty");
        let data = self.data[start * self.cols..(start + count) * self.cols].to_vec();
        Matrix::from_vec(count, self.cols, data)
    }

    /// Gathers the given rows (in order, repeats allowed) into a new matrix.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(1, 1);
        self.gather_rows_into(indices, &mut out);
        out
    }

    /// [`Matrix::gather_rows`] into a caller-owned buffer (resized first),
    /// avoiding the allocation — the minibatch gather of the steady-state
    /// training step.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or any index is out of bounds.
    pub fn gather_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        assert!(
            !indices.is_empty(),
            "gather_rows requires at least one index"
        );
        out.reshape_for_overwrite(indices.len(), self.cols);
        for (r, &i) in indices.iter().enumerate() {
            out.row_mut(r).copy_from_slice(self.row(i));
        }
    }

    /// Extracts a contiguous block of columns `[start, start + count)`.
    pub fn slice_cols(&self, start: usize, count: usize) -> Matrix {
        assert!(start + count <= self.cols, "column slice out of bounds");
        assert!(count > 0, "column slice must be non-empty");
        let mut out = Matrix::zeros(self.rows, count);
        for r in 0..self.rows {
            out.row_mut(r)
                .copy_from_slice(&self.row(r)[start..start + count]);
        }
        out
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.len(), 6);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_panics() {
        let _ = Matrix::zeros(0, 3);
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.matmul(&Matrix::identity(3)), a);
    }

    #[test]
    fn matmul_known_result() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.5, -1.0], &[2.0, -0.5, 0.0], &[0.0, 1.0, 1.0]]);
        assert_eq!(a.matmul_tn(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[-1.0, 1.0, 0.5]]);
        assert_eq!(a.matmul_nt(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn col_iter_and_col_into_match_strided_walk() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.col_iter(1).collect::<Vec<_>>(), vec![2.0, 5.0]);
        let mut buf = [0.0f32; 2];
        a.col_into(2, &mut buf);
        assert_eq!(buf, [3.0, 6.0]);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 5.0]]);
        assert_eq!(a.add(&b), Matrix::from_rows(&[&[4.0, 7.0]]));
        assert_eq!(b.sub(&a), Matrix::from_rows(&[&[2.0, 3.0]]));
        assert_eq!(a.hadamard(&b), Matrix::from_rows(&[&[3.0, 10.0]]));
    }

    #[test]
    fn broadcast_and_column_sums_roundtrip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let with_bias = m.add_row_broadcast(&[10.0, 20.0]);
        assert_eq!(
            with_bias,
            Matrix::from_rows(&[&[11.0, 22.0], &[13.0, 24.0]])
        );
        assert_eq!(m.column_sums(), vec![4.0, 6.0]);
    }

    #[test]
    fn stacking() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.vstack(&b), Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        assert_eq!(a.hstack(&b), Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]));
    }

    #[test]
    fn slicing_and_gather() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]);
        assert_eq!(m.slice_rows(1, 2).row(0), &[4.0, 5.0, 6.0]);
        assert_eq!(
            m.slice_cols(1, 2),
            Matrix::from_rows(&[&[2.0, 3.0], &[5.0, 6.0], &[8.0, 9.0]])
        );
        assert_eq!(m.gather_rows(&[2, 0]).row(0), &[7.0, 8.0, 9.0]);
    }

    #[test]
    fn norms_and_stats() {
        let m = Matrix::from_rows(&[&[3.0, -4.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
        assert_eq!(m.max_abs(), 4.0);
        assert!((m.mean() + 0.5).abs() < 1e-6);
    }

    #[test]
    fn non_finite_detection() {
        let mut m = Matrix::zeros(1, 2);
        assert!(!m.has_non_finite());
        m[(0, 1)] = f32::NAN;
        assert!(m.has_non_finite());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::from_rows(&[&[1.0, 1.0]]);
        let b = Matrix::from_rows(&[&[2.0, -2.0]]);
        a.axpy(0.5, &b);
        assert_eq!(a, Matrix::from_rows(&[&[2.0, 0.0]]));
    }

    #[test]
    fn matmul_into_reuses_buffer_and_matches_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[-1.0, 0.5]]);
        let b = Matrix::from_rows(&[&[0.5, -1.0, 2.0], &[1.5, 0.0, -0.5]]);
        let mut out = Matrix::zeros(1, 1);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        // Second use with a different shape reuses the same buffer.
        let c = Matrix::identity(2);
        c.matmul_into(&b, &mut out);
        assert_eq!(out, b);
    }

    #[test]
    fn packed_fused_matches_unfused_pipeline_bitwise() {
        // Widths that exercise every tile path: 32-panel, 16, 8, and the
        // scalar tail, plus row counts around the 4-row block boundary.
        for &(m, k, n) in &[
            (1usize, 3usize, 16usize),
            (4, 16, 32),
            (5, 32, 16),
            (7, 16, 1),
            (9, 5, 40),
            (3, 8, 37),
            (6, 4, 7),
        ] {
            let a = Matrix::from_vec(
                m,
                k,
                (0..m * k).map(|i| (i as f32 * 0.37).sin() * 2.0).collect(),
            );
            let w = Matrix::from_vec(
                k,
                n,
                (0..k * n).map(|i| (i as f32 * 0.11).cos() * 1.5).collect(),
            );
            let bias: Vec<f32> = (0..n).map(|i| (i as f32 * 0.71).sin()).collect();
            let packed = PackedWeights::pack(&w);
            assert_eq!((packed.rows(), packed.cols()), (k, n));
            for act in [
                Activation::Relu,
                Activation::Tanh,
                Activation::Identity,
                Activation::LeakyRelu,
            ] {
                let mut fused = Matrix::zeros(1, 1);
                a.matmul_bias_act_into(&packed, &bias, act, &mut fused);
                let mut reference = a.matmul(&w).add_row_broadcast(&bias);
                reference.map_inplace(|x| act.apply(x));
                assert_eq!(fused.shape(), reference.shape());
                for (f, r) in fused.as_slice().iter().zip(reference.as_slice()) {
                    assert_eq!(f.to_bits(), r.to_bits(), "{m}x{k}x{n} {act:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "matmul_bias_act_into shape mismatch")]
    fn fused_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let packed = PackedWeights::pack(&Matrix::zeros(4, 2));
        let mut out = Matrix::zeros(1, 1);
        a.matmul_bias_act_into(&packed, &[0.0, 0.0], Activation::Identity, &mut out);
    }

    #[test]
    fn copy_from_and_reset_for_overwrite_reuse_buffers() {
        let src = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut dst = Matrix::zeros(5, 7);
        dst.copy_from(&src);
        assert_eq!(dst, src);
        dst.reset_for_overwrite(1, 3);
        assert_eq!(dst.shape(), (1, 3));
    }

    #[test]
    fn reset_resizes_and_zeroes() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        m.reset(2, 2);
        assert_eq!(m.shape(), (2, 2));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn serde_roundtrip() {
        let m = Matrix::from_rows(&[&[1.5, -2.5], &[0.0, 3.25]]);
        let json = serde_json::to_string(&m).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
