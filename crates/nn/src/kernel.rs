//! Runtime-dispatched SIMD kernel paths for the GEMM layer: one SIMD
//! implementation per job, with the scalar kernels as the reference for
//! everything else.
//!
//! The scalar micro-tile kernels in [`crate::matrix`] are the universal
//! fallback and the bit-exactness reference. On `x86_64` this module adds
//! hand-written AVX2 f32 kernels that vectorize across the *output
//! column* dimension: each output element still accumulates its products in
//! ascending-`k` order with one multiply and one add per step (no FMA, no
//! tree reductions), so every path produces bit-identical results — the
//! SIMD lanes simply compute eight independent ascending-`k` accumulators
//! side by side. There is no SSE2 f32 kernel: the scalar reference already
//! auto-vectorizes to SSE2, and hand-written SSE2 measured 0.99–1.43× of
//! it per model shape. See the crate-level [bit-exactness
//! contract](crate#bit-exactness-contract).
//!
//! The int8 quantized kernels (serving [`crate::quant`]) run only in the
//! fully quantized chain of an all-ReLU/Identity network: SSE2/AVX2
//! `madd` pair products, upgraded in place to AVX-VNNI `vpdpwssd` and
//! further to AVX-512-VNNI (two 8-column panels per 512-bit accumulate)
//! when the host supports them. Unlike the f32 paths, these sub-variants
//! need no lane-order discipline to agree: every flavor computes the
//! *exact* i32 sum of the same products, and integer addition is
//! associative — so all int8 variants are bit-identical to each other (and
//! to the scalar int8 reference) by construction, just not to f32.
//!
//! What each path runs:
//!
//! | path     | f32 GEMMs | int8 chain                            |
//! |----------|-----------|---------------------------------------|
//! | `scalar` | scalar    | scalar                                |
//! | `sse2`   | scalar    | SSE2 `madd`                           |
//! | `avx2`   | AVX2      | AVX-512-VNNI / AVX-VNNI / AVX2 `madd` |
//!
//! Quantized networks with any other activation (Tanh, Sigmoid,
//! LeakyReLU) run the scalar int8 reference on every path.
//!
//! # Path selection
//!
//! [`active`] resolves the path every GEMM dispatches on:
//!
//! 1. a programmatic override installed with [`force`] (tests, engine
//!    config), else
//! 2. the `PINNSOC_FORCE_KERNEL` environment variable (`scalar` / `sse2` /
//!    `avx2`, read once per process), else
//! 3. the best path the host supports ([`detect`], using
//!    `is_x86_feature_detected!`).
//!
//! Forcing a path the host cannot run clamps down to the best supported
//! one (forcing `avx2` on an SSE2-only host yields `sse2`), so a forced
//! process can never execute illegal instructions. Because every path is
//! bit-identical, forcing is always observably safe — it only changes
//! speed.

use std::str::FromStr;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// One of the implementations the GEMM layer can dispatch to.
///
/// Discriminants are ordered by capability so clamping a forced path to
/// the host's best supported path is a `min`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum KernelPath {
    /// Portable scalar micro-tile kernels (the reference implementation).
    Scalar = 1,
    /// Scalar f32 kernels plus the 128-bit SSE2 int8 chain (SSE2 is the
    /// baseline on every `x86_64`).
    Sse2 = 2,
    /// 256-bit AVX2 kernels (runtime-detected).
    Avx2 = 3,
}

impl KernelPath {
    /// Stable lowercase name, used by bench metadata, observability and
    /// the `PINNSOC_FORCE_KERNEL` variable.
    pub fn as_str(self) -> &'static str {
        match self {
            KernelPath::Scalar => "scalar",
            KernelPath::Sse2 => "sse2",
            KernelPath::Avx2 => "avx2",
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(KernelPath::Scalar),
            2 => Some(KernelPath::Sse2),
            3 => Some(KernelPath::Avx2),
            _ => None,
        }
    }
}

impl std::fmt::Display for KernelPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for KernelPath {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Ok(KernelPath::Scalar),
            "sse2" => Ok(KernelPath::Sse2),
            "avx2" => Ok(KernelPath::Avx2),
            other => Err(format!(
                "unknown kernel path '{other}' (expected scalar, sse2 or avx2)"
            )),
        }
    }
}

/// Best kernel path the host supports.
pub fn detect() -> KernelPath {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            KernelPath::Avx2
        } else {
            // SSE2 is part of the x86_64 baseline.
            KernelPath::Sse2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        KernelPath::Scalar
    }
}

/// Programmatic override: 0 = none, else a `KernelPath` discriminant.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// `PINNSOC_FORCE_KERNEL`, parsed once per process. Unparseable values are
/// ignored (the serving fleet must not crash on a typo'd env).
fn env_force() -> Option<KernelPath> {
    static ENV: OnceLock<Option<KernelPath>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("PINNSOC_FORCE_KERNEL")
            .ok()
            .and_then(|v| v.parse().ok())
    })
}

/// Installs (`Some`) or clears (`None`) the process-wide kernel-path
/// override. Takes precedence over `PINNSOC_FORCE_KERNEL`. Forcing above
/// the host's capability clamps to [`detect`]; since all paths are
/// bit-identical, concurrent forcing only ever changes speed, never
/// results.
pub fn force(path: Option<KernelPath>) {
    FORCED.store(path.map_or(0, |p| p as u8), Ordering::Release);
}

/// The kernel path the next GEMM call will dispatch to: forced override,
/// else `PINNSOC_FORCE_KERNEL`, else the detected best ([`detect`]).
pub fn active() -> KernelPath {
    let detected = detect();
    let requested = KernelPath::from_u8(FORCED.load(Ordering::Acquire))
        .or_else(env_force)
        .unwrap_or(detected);
    requested.min(detected)
}

/// The int8 accumulate flavor the quantized GEMMs will dispatch to under
/// the current [`active`] path — bench/observability metadata only (all
/// flavors are bit-identical; see the module docs). The `Avx2` path
/// sub-dispatches on VNNI support, which `active()` alone cannot express.
pub fn int8_flavor() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        match active() {
            KernelPath::Scalar => "scalar",
            KernelPath::Sse2 => "sse2-madd",
            KernelPath::Avx2 => {
                if x86::vnni512() {
                    "avx512-vnni"
                } else if x86::vnni() {
                    "avx-vnni"
                } else {
                    "avx2-madd"
                }
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "scalar"
    }
}

/// x86_64 SIMD kernels. Each output element accumulates in ascending-`k`
/// order with separate multiply and add instructions, so results are
/// bit-identical to the scalar reference kernels (lanes are independent
/// columns; vectorization never reorders any element's sum).
///
/// All pointer arithmetic is bounds-justified at the call sites in
/// `matrix.rs` and `quant.rs`, which pass slices whose lengths they have
/// already asserted; the `// SAFETY:` comments on each block record the
/// exact obligations.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub(crate) mod x86 {
    use std::arch::x86_64::*;

    /// AVX2 strip kernel, the one f32 GEMM micro-kernel: `IB` rows ×
    /// `strips` consecutive eight-column strips of `out = lhs · b`, each
    /// strip accumulated in one eight-lane register per row over the full
    /// depth and stored once. `b` is any k-major operand (row-major GEMM
    /// rhs or a packed panel) with row stride `b_stride`; the strips start
    /// at `b` itself. The strip loop lives inside the `#[target_feature]`
    /// boundary, so a row block pays the call glue once, not per strip.
    ///
    /// # Safety
    ///
    /// - `lhs` must hold `IB * depth` readable floats (row-major, stride
    ///   `depth`).
    /// - `b` must hold `(depth - 1) * b_stride + strips * 8` readable
    ///   floats.
    /// - `out` must hold `(IB - 1) * out_stride + strips * 8` writable
    ///   floats.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn strips8_avx2<const IB: usize>(
        lhs: *const f32,
        depth: usize,
        b: *const f32,
        b_stride: usize,
        strips: usize,
        out: *mut f32,
        out_stride: usize,
    ) {
        // SAFETY: strip `s` reads lhs `r * depth + k` (r < IB, k < depth),
        // b `k * b_stride + s * 8 + {0..8}` and writes out
        // `r * out_stride + s * 8 + {0..8}` — inside the caller-guaranteed
        // ranges since `s < strips`.
        unsafe {
            for s in 0..strips {
                let bs = b.add(s * 8);
                let os = out.add(s * 8);
                let mut acc = [_mm256_setzero_ps(); IB];
                for k in 0..depth {
                    let w = _mm256_loadu_ps(bs.add(k * b_stride));
                    for (r, acc_r) in acc.iter_mut().enumerate() {
                        let a = _mm256_broadcast_ss(&*lhs.add(r * depth + k));
                        // One multiply, one add per step — no FMA, so each
                        // lane's rounding matches the scalar kernel exactly.
                        *acc_r = _mm256_add_ps(*acc_r, _mm256_mul_ps(a, w));
                    }
                }
                for (r, &acc_r) in acc.iter().enumerate() {
                    _mm256_storeu_ps(os.add(r * out_stride), acc_r);
                }
            }
        }
    }

    /// AVX2 whole-batch GEMM over the strip-aligned columns: eight-row
    /// blocks with a single-row sweep for the remainder, all inside one
    /// `#[target_feature]` call — per-block call glue is measurable
    /// against these small model shapes.
    ///
    /// # Safety
    ///
    /// As [`strips8_avx2`] with `rows` rows: `lhs` must hold
    /// `rows * depth` readable floats and `out` must hold
    /// `(rows - 1) * out_stride + strips * 8` writable floats.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn gemm_batch_avx2(
        lhs: *const f32,
        rows: usize,
        depth: usize,
        b: *const f32,
        b_stride: usize,
        strips: usize,
        out: *mut f32,
        out_stride: usize,
    ) {
        // SAFETY: each block call covers rows `r..r+IB` within the
        // caller-guaranteed `rows`; per-block obligations are documented
        // on `strips8_avx2`.
        unsafe {
            let mut r = 0;
            while r + 8 <= rows {
                strips8_avx2::<8>(
                    lhs.add(r * depth),
                    depth,
                    b,
                    b_stride,
                    strips,
                    out.add(r * out_stride),
                    out_stride,
                );
                r += 8;
            }
            while r < rows {
                strips8_avx2::<1>(
                    lhs.add(r * depth),
                    depth,
                    b,
                    b_stride,
                    strips,
                    out.add(r * out_stride),
                    out_stride,
                );
                r += 1;
            }
        }
    }

    /// Safe wrapper over [`gemm_batch_avx2`]: `out[.., ..strips*8] =
    /// lhs · b` for the whole batch in one kernel call. AVX2-only — the
    /// caller must have verified support (debug-asserted) and fall back
    /// to [`gemm_block`] loops otherwise.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn gemm_batch(
        lhs: &[f32],
        rows: usize,
        depth: usize,
        b: &[f32],
        b_stride: usize,
        strips: usize,
        out: &mut [f32],
        out_stride: usize,
    ) {
        if rows == 0 || strips == 0 {
            return;
        }
        debug_assert!(lhs.len() >= rows * depth);
        debug_assert!(b.len() >= (depth - 1) * b_stride + strips * 8);
        debug_assert!(out.len() >= (rows - 1) * out_stride + strips * 8);
        debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
        // SAFETY: the slice lengths debug-asserted above are exactly the
        // kernel's documented obligations; AVX2 support is the caller's
        // contract (debug-asserted).
        unsafe {
            gemm_batch_avx2(
                lhs.as_ptr(),
                rows,
                depth,
                b.as_ptr(),
                b_stride,
                strips,
                out.as_mut_ptr(),
                out_stride,
            );
        }
    }

    /// Safe wrapper: one `IB`-row block of `out = lhs · b` over `cols`
    /// columns of a k-major operand: full eight-column strips first, then
    /// the tail. A padded operand (`b_padded`: zero columns up to the next
    /// multiple of 8) runs its tail as one more full strip into a stack
    /// buffer; an unpadded tail runs the scalar ascending-`k` loop.
    ///
    /// The caller must have verified AVX2 support (debug-asserted).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn gemm_block<const IB: usize>(
        lhs: &[f32],
        depth: usize,
        b: &[f32],
        b_stride: usize,
        cols: usize,
        b_padded: bool,
        out: &mut [f32],
        out_stride: usize,
    ) {
        debug_assert!(lhs.len() >= IB * depth);
        debug_assert!(out.len() >= (IB - 1) * out_stride + cols);
        debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
        let strips = cols / 8;
        let padded_cols = if b_padded {
            cols.next_multiple_of(8)
        } else {
            strips * 8
        };
        debug_assert!(b.len() >= (depth - 1) * b_stride + padded_cols.max(1));
        if strips > 0 {
            // SAFETY: `strips * 8 <= cols` keeps every read of `b`
            // (k * b_stride + ..strips*8) and write of `out`
            // (r * out_stride + ..strips*8) inside the debug-asserted
            // slice lengths. AVX2 support is the caller's contract.
            unsafe {
                strips8_avx2::<IB>(
                    lhs.as_ptr(),
                    depth,
                    b.as_ptr(),
                    b_stride,
                    strips,
                    out.as_mut_ptr(),
                    out_stride,
                )
            };
        }
        let j = strips * 8;
        // Padded tail: the operand guarantees a full strip of columns
        // (zero-padded), but `out` only has `cols` — compute the full
        // strip for the whole row block into a stack buffer and copy the
        // live lanes out per row.
        if b_padded && j < cols {
            const { assert!(IB <= 8, "tail buffer sized for row blocks of at most 8") };
            let mut buf = [0.0f32; 64];
            // SAFETY: the padded operand holds `padded_cols = j + 8`
            // columns per k-row (caller contract, debug-asserted above);
            // `buf` holds `IB` rows of 8 writable floats at stride 8
            // (IB ≤ 8 by the const assert).
            unsafe {
                strips8_avx2::<IB>(
                    lhs.as_ptr(),
                    depth,
                    b.as_ptr().add(j),
                    b_stride,
                    1,
                    buf.as_mut_ptr(),
                    8,
                );
            }
            for r in 0..IB {
                out[r * out_stride + j..r * out_stride + cols]
                    .copy_from_slice(&buf[r * 8..r * 8 + cols - j]);
            }
        } else {
            // Unpadded scalar tail (row-major rhs narrower than a strip):
            // identical ascending-`k` loop to the scalar reference.
            for jj in j..cols {
                for r in 0..IB {
                    let mut acc = 0.0f32;
                    for k in 0..depth {
                        acc += lhs[r * depth + k] * b[k * b_stride + jj];
                    }
                    out[r * out_stride + jj] = acc;
                }
            }
        }
    }

    /// One depth step of a panel's i32 accumulation: `madd` is the
    /// plain-AVX2 `_mm256_madd_epi16` + `_mm256_add_epi32` pair; `vnni`
    /// fuses both into one `vpdpwssd` (`_mm256_dpwssd_avx_epi32`). Both
    /// compute the exact same i32 value — integer accumulation has no
    /// rounding — so the two generated kernel families below are
    /// bit-identical and VNNI can ride the `Avx2` path invisibly.
    macro_rules! int8_accum {
        (madd, $s:expr, $a:expr, $w:expr) => {
            _mm256_add_epi32($s, _mm256_madd_epi16($a, $w))
        };
        (vnni, $s:expr, $a:expr, $w:expr) => {
            _mm256_dpwssd_avx_epi32($s, $a, $w)
        };
    }

    /// Generates one 256-bit fused int8 kernel family — panel sums, the
    /// fused dequant/bias/activation block and batch driver, and the
    /// quantizing (i16 in → i16 out) block and driver — for one
    /// accumulate flavor (see [`int8_accum`]). Invoked twice: plain AVX2
    /// (`madd`) and AVX-VNNI (`vnni`), selected at runtime by the safe
    /// wrappers via [`vnni()`](self::vnni). Keeping both variants inside
    /// one macro keeps the hot loops a single source of truth, and the
    /// `#[target_feature]` on each generated function is what lets the
    /// VNNI instruction be emitted at all — functions with different
    /// feature sets never cross-inline, so the whole chain is duplicated
    /// per flavor.
    macro_rules! int8_fused_family {
        (
            $feat:literal, $acc:tt,
            $panel_sums:ident, $fused_block:ident, $fused:ident,
            $quant_block:ident, $quant:ident
        ) => {
            /// One panel's i32 accumulators for an `IB`-row block — the
            /// shared GEMM core of the fused int8 kernels. `madd` pairs
            /// each broadcast activation pair with a column's k-pair of
            /// weights (`wpp[kk * 16 + j * 2 + d]`) and adds the two i32
            /// products — integer arithmetic, so any summation order
            /// gives the identical accumulator.
            ///
            /// # Safety
            ///
            /// `q` must hold `IB` rows of `2 * kpairs` readable i16 at
            /// stride `q_stride`; `wpp` must hold `kpairs * 16` readable
            /// i16; the CPU must support this function's target
            /// features.
            #[target_feature(enable = $feat)]
            #[inline]
            unsafe fn $panel_sums<const IB: usize>(
                q: *const i16,
                q_stride: usize,
                kpairs: usize,
                wpp: *const i16,
            ) -> [__m256i; IB] {
                // SAFETY: accesses are exactly the caller-guaranteed
                // ranges above.
                unsafe {
                    let mut sums = [_mm256_setzero_si256(); IB];
                    for kk in 0..kpairs {
                        let w = _mm256_loadu_si256(wpp.add(kk * 16) as *const __m256i);
                        for r in 0..IB {
                            let pair =
                                (q.add(r * q_stride + 2 * kk) as *const i32).read_unaligned();
                            let a = _mm256_set1_epi32(pair);
                            sums[r] = int8_accum!($acc, sums[r], a, w);
                        }
                    }
                    sums
                }
            }

            /// Fused int8 GEMM + dequant epilogue for one `IB`-row block
            /// across *every* panel of a quantized layer: for panel `p`,
            /// accumulates the i32 sums, then converts, scales
            /// (`dequant`), biases and optionally ReLUs in registers and
            /// stores straight to the f32 output — no i32 round-trip
            /// through memory. A ragged last panel (fewer than eight live
            /// columns) spills its accumulators to a stack buffer and
            /// runs the scalar epilogue formula per live lane. Both
            /// epilogues perform the operation sequence of the scalar
            /// int8 reference (exact i32→f32 conversion, one multiply,
            /// one add, `max(v, 0)` / [`crate::quant::relu_exact`]), so
            /// results are bit-identical to it.
            ///
            /// # Safety
            ///
            /// - `q` must hold `IB` rows of `2 * kpairs` readable i16 at
            ///   stride `q_stride`.
            /// - `wp` must hold `panel_count * kpairs * 16` readable
            ///   i16.
            /// - `dequant` and `bias` must hold `fan_out` readable f32,
            ///   with `panel_count == fan_out.div_ceil(8)`.
            /// - `out` must hold `(IB - 1) * out_stride + fan_out`
            ///   writable f32.
            /// - The CPU must support this function's target features.
            #[target_feature(enable = $feat)]
            #[inline]
            #[allow(clippy::too_many_arguments)]
            unsafe fn $fused_block<const IB: usize>(
                q: *const i16,
                q_stride: usize,
                kpairs: usize,
                wp: *const i16,
                panel_count: usize,
                fan_out: usize,
                dequant: *const f32,
                bias: *const f32,
                out: *mut f32,
                out_stride: usize,
                relu: bool,
            ) {
                // SAFETY: panel `p` reads
                // `wp[p*kpairs*16 .. (p+1)*kpairs*16]`;
                // `dequant`/`bias`/`out` column accesses stop at
                // `j0 + live <= fan_out`; `q` reads stay below
                // `r * q_stride + 2 * kpairs` — all caller-guaranteed.
                unsafe {
                    let zero = _mm256_setzero_ps();
                    for p in 0..panel_count {
                        let wpp = wp.add(p * kpairs * 16);
                        let sums = $panel_sums::<IB>(q, q_stride, kpairs, wpp);
                        let j0 = p * 8;
                        if fan_out - j0 >= 8 {
                            let d = _mm256_loadu_ps(dequant.add(j0));
                            let b = _mm256_loadu_ps(bias.add(j0));
                            for r in 0..IB {
                                let v = _mm256_cvtepi32_ps(sums[r]);
                                let v = _mm256_add_ps(_mm256_mul_ps(v, d), b);
                                let v = if relu { _mm256_max_ps(v, zero) } else { v };
                                _mm256_storeu_ps(out.add(r * out_stride + j0), v);
                            }
                        } else {
                            let live = fan_out - j0;
                            let mut buf = [0i32; 8];
                            for r in 0..IB {
                                _mm256_storeu_si256(buf.as_mut_ptr() as *mut __m256i, sums[r]);
                                for (jj, &sum) in buf.iter().enumerate().take(live) {
                                    let v = sum as f32 * *dequant.add(j0 + jj) + *bias.add(j0 + jj);
                                    *out.add(r * out_stride + j0 + jj) =
                                        if relu { crate::quant::relu_exact(v) } else { v };
                                }
                            }
                        }
                    }
                }
            }

            /// Fused int8 forward over a whole batch: eight-row blocks
            /// with a single-row sweep for the remainder, all inside one
            /// call (the per-block call overhead is what used to
            /// dominate these small layers).
            ///
            /// # Safety
            ///
            /// As the block kernel with `rows` rows: `q` must hold
            /// `rows * q_stride` i16 and `out`
            /// `(rows - 1) * out_stride + fan_out` writable f32.
            #[target_feature(enable = $feat)]
            #[allow(clippy::too_many_arguments)]
            unsafe fn $fused(
                q: *const i16,
                q_stride: usize,
                kpairs: usize,
                rows: usize,
                wp: *const i16,
                panel_count: usize,
                fan_out: usize,
                dequant: *const f32,
                bias: *const f32,
                out: *mut f32,
                out_stride: usize,
                relu: bool,
            ) {
                // SAFETY: each block call covers rows `r..r+IB` within
                // the caller-guaranteed `rows`; the per-block
                // obligations are documented on the block kernel.
                unsafe {
                    let mut r = 0;
                    while r + 8 <= rows {
                        $fused_block::<8>(
                            q.add(r * q_stride),
                            q_stride,
                            kpairs,
                            wp,
                            panel_count,
                            fan_out,
                            dequant,
                            bias,
                            out.add(r * out_stride),
                            out_stride,
                            relu,
                        );
                        r += 8;
                    }
                    while r < rows {
                        $fused_block::<1>(
                            q.add(r * q_stride),
                            q_stride,
                            kpairs,
                            wp,
                            panel_count,
                            fan_out,
                            dequant,
                            bias,
                            out.add(r * out_stride),
                            out_stride,
                            relu,
                        );
                        r += 1;
                    }
                }
            }

            /// Fused int8 layer with a *quantizing* epilogue: identical
            /// to the fused block kernel up to the activation, then
            /// instead of storing f32 it immediately quantizes against
            /// the next layer's reciprocal input scale and stores i16 —
            /// a hidden layer's f32 activations never touch memory.
            /// Every quantize lane runs exactly the operation sequence
            /// of [`crate::quant::quantize_activation`] (the same ops as
            /// [`quantize_row_avx2`]), applied to the exact f32 value
            /// the plain epilogue would have stored, so the chained
            /// forward is bit-identical to quantizing the materialized
            /// activations.
            ///
            /// # Safety
            ///
            /// As the fused block kernel, with `q_out` holding
            /// `(IB - 1) * q_out_stride + fan_out` writable i16 instead
            /// of the f32 output.
            #[target_feature(enable = $feat)]
            #[inline]
            #[allow(clippy::too_many_arguments)]
            unsafe fn $quant_block<const IB: usize>(
                q: *const i16,
                q_stride: usize,
                kpairs: usize,
                wp: *const i16,
                panel_count: usize,
                fan_out: usize,
                dequant: *const f32,
                bias: *const f32,
                relu: bool,
                inv_next: f32,
                q_out: *mut i16,
                q_out_stride: usize,
            ) {
                // SAFETY: panel `p` reads
                // `wp[p*kpairs*16 .. (p+1)*kpairs*16]`;
                // `dequant`/`bias`/`q_out` column accesses stop at
                // `j0 + live <= fan_out`; `q` reads stay below
                // `r * q_stride + 2 * kpairs` — all caller-guaranteed.
                unsafe {
                    let zero = _mm256_setzero_ps();
                    let inv = _mm256_set1_ps(inv_next);
                    let half = _mm256_set1_ps(0.5);
                    let sign = _mm256_set1_ps(-0.0);
                    let chi = _mm256_set1_ps(127.0);
                    let clo = _mm256_set1_ps(-127.0);
                    for p in 0..panel_count {
                        let wpp = wp.add(p * kpairs * 16);
                        let sums = $panel_sums::<IB>(q, q_stride, kpairs, wpp);
                        let j0 = p * 8;
                        if fan_out - j0 >= 8 {
                            let d = _mm256_loadu_ps(dequant.add(j0));
                            let b = _mm256_loadu_ps(bias.add(j0));
                            for r in 0..IB {
                                let v = _mm256_cvtepi32_ps(sums[r]);
                                let v = _mm256_add_ps(_mm256_mul_ps(v, d), b);
                                let v = if relu { _mm256_max_ps(v, zero) } else { v };
                                let y = _mm256_mul_ps(v, inv);
                                let t =
                                    _mm256_add_ps(y, _mm256_or_ps(half, _mm256_and_ps(y, sign)));
                                let t = _mm256_max_ps(_mm256_min_ps(t, chi), clo);
                                let qi = _mm256_cvttps_epi32(t);
                                let packed = _mm_packs_epi32(
                                    _mm256_castsi256_si128(qi),
                                    _mm256_extracti128_si256(qi, 1),
                                );
                                _mm_storeu_si128(
                                    q_out.add(r * q_out_stride + j0) as *mut __m128i,
                                    packed,
                                );
                            }
                        } else {
                            let live = fan_out - j0;
                            let mut buf = [0i32; 8];
                            for r in 0..IB {
                                _mm256_storeu_si256(buf.as_mut_ptr() as *mut __m256i, sums[r]);
                                for (jj, &sum) in buf.iter().enumerate().take(live) {
                                    let v = sum as f32 * *dequant.add(j0 + jj) + *bias.add(j0 + jj);
                                    let v = if relu { crate::quant::relu_exact(v) } else { v };
                                    *q_out.add(r * q_out_stride + j0 + jj) =
                                        crate::quant::quantize_activation(v, inv_next);
                                }
                            }
                        }
                    }
                }
            }

            /// Whole-batch driver for the quantizing fused block.
            ///
            /// # Safety
            ///
            /// As the quantizing block kernel with `rows` rows.
            #[target_feature(enable = $feat)]
            #[allow(clippy::too_many_arguments)]
            unsafe fn $quant(
                q: *const i16,
                q_stride: usize,
                kpairs: usize,
                rows: usize,
                wp: *const i16,
                panel_count: usize,
                fan_out: usize,
                dequant: *const f32,
                bias: *const f32,
                relu: bool,
                inv_next: f32,
                q_out: *mut i16,
                q_out_stride: usize,
            ) {
                // SAFETY: each block call covers rows `r..r+IB` within
                // the caller-guaranteed `rows`.
                unsafe {
                    let mut r = 0;
                    while r + 8 <= rows {
                        $quant_block::<8>(
                            q.add(r * q_stride),
                            q_stride,
                            kpairs,
                            wp,
                            panel_count,
                            fan_out,
                            dequant,
                            bias,
                            relu,
                            inv_next,
                            q_out.add(r * q_out_stride),
                            q_out_stride,
                        );
                        r += 8;
                    }
                    while r < rows {
                        $quant_block::<1>(
                            q.add(r * q_stride),
                            q_stride,
                            kpairs,
                            wp,
                            panel_count,
                            fan_out,
                            dequant,
                            bias,
                            relu,
                            inv_next,
                            q_out.add(r * q_out_stride),
                            q_out_stride,
                        );
                        r += 1;
                    }
                }
            }
        };
    }

    int8_fused_family!(
        "avx2",
        madd,
        int8_panel_sums_avx2,
        int8_fused_block_avx2,
        int8_fused_avx2,
        int8_fused_quant_block_avx2,
        int8_fused_quant_avx2
    );
    int8_fused_family!(
        "avx2,avxvnni",
        vnni,
        int8_panel_sums_vnni,
        int8_fused_block_vnni,
        int8_fused_vnni,
        int8_fused_quant_block_vnni,
        int8_fused_quant_vnni
    );

    /// Cached runtime probe for AVX-VNNI (`vpdpwssd`): when present, the
    /// fused int8 wrappers dispatch to the `vnni` kernel family, which
    /// folds each `madd`+`add` accumulate pair into a single fused
    /// instruction — one fewer uop per sixteen MACs in the hottest loop
    /// of quantized serving. Integer accumulation is exact, so the VNNI
    /// family is bit-identical to plain AVX2 and rides the
    /// [`KernelPath::Avx2`](super::KernelPath::Avx2) path invisibly;
    /// forcing `sse2`/`scalar` bypasses it along with the rest of AVX2.
    pub(crate) fn vnni() -> bool {
        static VNNI: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *VNNI.get_or_init(|| std::arch::is_x86_feature_detected!("avxvnni"))
    }

    /// Cached runtime probe for AVX-512 VNNI: when present, the fused int8
    /// wrappers dispatch to the 512-bit kernel family below, which chews two
    /// adjacent eight-column panels per depth step (one `vpdpwssd zmm` in
    /// place of two 256-bit accumulates, with the activation broadcast
    /// shared across both panels). Integer accumulation is exact, so this
    /// family is bit-identical to the 256-bit ones and — like plain
    /// AVX-VNNI — rides the [`KernelPath::Avx2`](super::KernelPath::Avx2)
    /// path invisibly; forcing `sse2`/`scalar` bypasses it.
    pub(crate) fn vnni512() -> bool {
        static VNNI512: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *VNNI512.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512vnni")
        })
    }

    /// i32 accumulators for a *pair* of adjacent panels (16 output
    /// columns) over an `IB`-row block: each panel's 256-bit row of the
    /// packed layout is loaded as one half of a 512-bit vector, so a depth
    /// step costs one weight assembly plus one `vpdpwssd zmm` per row —
    /// roughly half the uops of running the two panels through the 256-bit
    /// family. Accumulation is exact integer arithmetic, bit-identical to
    /// the 256-bit panel sums per lane.
    ///
    /// # Safety
    ///
    /// - `q` must hold `IB` rows of `2 * kpairs` readable i16 at stride
    ///   `q_stride`.
    /// - `wpp` must hold `2 * kpairs * 16` readable i16 (two consecutive
    ///   packed panels).
    /// - The CPU must support AVX-512F and AVX-512 VNNI.
    #[target_feature(enable = "avx512f,avx512vnni")]
    #[inline]
    unsafe fn int8_panel_pair_sums_avx512<const IB: usize>(
        q: *const i16,
        q_stride: usize,
        kpairs: usize,
        wpp: *const i16,
    ) -> [__m512i; IB] {
        // SAFETY: reads of `q` stay below `r * q_stride + 2 * kpairs` and
        // reads of `wpp` below `2 * kpairs * 16` — both caller-guaranteed.
        unsafe {
            let mut sums = [_mm512_setzero_si512(); IB];
            for kk in 0..kpairs {
                let w0 = _mm256_loadu_si256(wpp.add(kk * 16) as *const __m256i);
                let w1 = _mm256_loadu_si256(wpp.add((kpairs + kk) * 16) as *const __m256i);
                let w = _mm512_inserti64x4(_mm512_castsi256_si512(w0), w1, 1);
                for (r, sum) in sums.iter_mut().enumerate() {
                    let pair = (q.add(r * q_stride + 2 * kk) as *const i32).read_unaligned();
                    let a = _mm512_set1_epi32(pair);
                    *sum = _mm512_dpwssd_epi32(*sum, a, w);
                }
            }
            sums
        }
    }

    /// AVX-512 VNNI fused int8 block: full panel *pairs* (16 live columns)
    /// run the 512-bit GEMM core with a 512-bit dequant/bias/activation
    /// epilogue; whatever remains (a lone last panel, or a ragged pair)
    /// is delegated to [`int8_fused_block_avx2`] with panel-offset
    /// pointers — AVX2 is implied by AVX-512F, and the `madd` flavor is
    /// bit-identical, so the seam is invisible. Every f32 epilogue lane
    /// performs the exact operation sequence of the 256-bit families
    /// (exact i32→f32 convert, one multiply, one add, `max(v, 0)`), so
    /// results are bit-identical to the scalar int8 reference.
    ///
    /// # Safety
    ///
    /// As [`int8_fused_block_avx2`], plus AVX-512F/AVX-512 VNNI support.
    #[target_feature(enable = "avx512f,avx512vnni")]
    #[inline]
    #[allow(clippy::too_many_arguments)]
    unsafe fn int8_fused_block_avx512<const IB: usize>(
        q: *const i16,
        q_stride: usize,
        kpairs: usize,
        wp: *const i16,
        panel_count: usize,
        fan_out: usize,
        dequant: *const f32,
        bias: *const f32,
        out: *mut f32,
        out_stride: usize,
        relu: bool,
    ) {
        // SAFETY: the pair loop only runs while columns `p*8..p*8+16` are
        // all live (`fan_out >= p * 8 + 16`), so every 512-bit
        // `dequant`/`bias` load and `out` store is in bounds; the tail
        // delegation re-bases `wp`/`dequant`/`bias`/`out` by whole panels
        // and shrinks `panel_count`/`fan_out` to match, which restores
        // exactly the delegate's documented obligations.
        unsafe {
            let zero = _mm512_setzero_ps();
            let mut p = 0;
            while p + 2 <= panel_count && fan_out >= p * 8 + 16 {
                let sums =
                    int8_panel_pair_sums_avx512::<IB>(q, q_stride, kpairs, wp.add(p * kpairs * 16));
                let j0 = p * 8;
                let d = _mm512_loadu_ps(dequant.add(j0));
                let b = _mm512_loadu_ps(bias.add(j0));
                for (r, &sum) in sums.iter().enumerate() {
                    let v = _mm512_cvtepi32_ps(sum);
                    let v = _mm512_add_ps(_mm512_mul_ps(v, d), b);
                    let v = if relu { _mm512_max_ps(v, zero) } else { v };
                    _mm512_storeu_ps(out.add(r * out_stride + j0), v);
                }
                p += 2;
            }
            if p < panel_count {
                int8_fused_block_avx2::<IB>(
                    q,
                    q_stride,
                    kpairs,
                    wp.add(p * kpairs * 16),
                    panel_count - p,
                    fan_out - p * 8,
                    dequant.add(p * 8),
                    bias.add(p * 8),
                    out.add(p * 8),
                    out_stride,
                    relu,
                );
            }
        }
    }

    /// AVX-512 VNNI whole-batch driver for [`int8_fused_block_avx512`]:
    /// eight-row blocks plus a single-row remainder sweep.
    ///
    /// # Safety
    ///
    /// As [`int8_fused_avx2`], plus AVX-512F/AVX-512 VNNI support.
    #[target_feature(enable = "avx512f,avx512vnni")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn int8_fused_avx512(
        q: *const i16,
        q_stride: usize,
        kpairs: usize,
        rows: usize,
        wp: *const i16,
        panel_count: usize,
        fan_out: usize,
        dequant: *const f32,
        bias: *const f32,
        out: *mut f32,
        out_stride: usize,
        relu: bool,
    ) {
        // SAFETY: each block call covers rows `r..r+IB` within the
        // caller-guaranteed `rows`.
        unsafe {
            let mut r = 0;
            while r + 8 <= rows {
                int8_fused_block_avx512::<8>(
                    q.add(r * q_stride),
                    q_stride,
                    kpairs,
                    wp,
                    panel_count,
                    fan_out,
                    dequant,
                    bias,
                    out.add(r * out_stride),
                    out_stride,
                    relu,
                );
                r += 8;
            }
            while r < rows {
                int8_fused_block_avx512::<1>(
                    q.add(r * q_stride),
                    q_stride,
                    kpairs,
                    wp,
                    panel_count,
                    fan_out,
                    dequant,
                    bias,
                    out.add(r * out_stride),
                    out_stride,
                    relu,
                );
                r += 1;
            }
        }
    }

    /// AVX-512 VNNI quantizing fused block: the 512-bit GEMM core and
    /// dequant/bias/activation epilogue of [`int8_fused_block_avx512`],
    /// followed in registers by the exact per-lane operation sequence of
    /// [`crate::quant::quantize_activation`] (multiply by the reciprocal
    /// scale, round half away from zero via `± 0.5` + truncation, clamp to
    /// `[-127, 127]` with x86 min/max semantics) and a truncating
    /// `vpmovdw` i32→i16 store — truncation equals saturation here
    /// because the clamp already bounded every lane, so the stored i16s
    /// are bit-identical to the 256-bit families'. Ragged remainders are
    /// delegated to [`int8_fused_quant_block_avx2`] like the plain fused
    /// block.
    ///
    /// # Safety
    ///
    /// As [`int8_fused_quant_block_avx2`], plus AVX-512F/AVX-512 VNNI
    /// support.
    #[target_feature(enable = "avx512f,avx512vnni")]
    #[inline]
    #[allow(clippy::too_many_arguments)]
    unsafe fn int8_fused_quant_block_avx512<const IB: usize>(
        q: *const i16,
        q_stride: usize,
        kpairs: usize,
        wp: *const i16,
        panel_count: usize,
        fan_out: usize,
        dequant: *const f32,
        bias: *const f32,
        relu: bool,
        inv_next: f32,
        q_out: *mut i16,
        q_out_stride: usize,
    ) {
        // SAFETY: the pair loop only touches columns `p*8..p*8+16` while
        // they are all live, so the 32-byte i16 stores stay below
        // `r * q_out_stride + fan_out`; the tail delegation re-bases by
        // whole panels exactly as in `int8_fused_block_avx512`. Bitwise
        // f32 ops go through `si512` casts (plain AVX-512F, no DQ
        // requirement).
        unsafe {
            let zero = _mm512_setzero_ps();
            let inv = _mm512_set1_ps(inv_next);
            let half = _mm512_castps_si512(_mm512_set1_ps(0.5));
            let signbit = _mm512_set1_epi32(i32::MIN);
            let chi = _mm512_set1_ps(127.0);
            let clo = _mm512_set1_ps(-127.0);
            let mut p = 0;
            while p + 2 <= panel_count && fan_out >= p * 8 + 16 {
                let sums =
                    int8_panel_pair_sums_avx512::<IB>(q, q_stride, kpairs, wp.add(p * kpairs * 16));
                let j0 = p * 8;
                let d = _mm512_loadu_ps(dequant.add(j0));
                let b = _mm512_loadu_ps(bias.add(j0));
                for (r, &sum) in sums.iter().enumerate() {
                    let v = _mm512_cvtepi32_ps(sum);
                    let v = _mm512_add_ps(_mm512_mul_ps(v, d), b);
                    let v = if relu { _mm512_max_ps(v, zero) } else { v };
                    let y = _mm512_mul_ps(v, inv);
                    let ybits = _mm512_castps_si512(y);
                    let rh = _mm512_or_si512(half, _mm512_and_si512(ybits, signbit));
                    let t = _mm512_add_ps(y, _mm512_castsi512_ps(rh));
                    let t = _mm512_max_ps(_mm512_min_ps(t, chi), clo);
                    let qi = _mm512_cvttps_epi32(t);
                    let packed = _mm512_cvtepi32_epi16(qi);
                    _mm256_storeu_si256(q_out.add(r * q_out_stride + j0) as *mut __m256i, packed);
                }
                p += 2;
            }
            if p < panel_count {
                int8_fused_quant_block_avx2::<IB>(
                    q,
                    q_stride,
                    kpairs,
                    wp.add(p * kpairs * 16),
                    panel_count - p,
                    fan_out - p * 8,
                    dequant.add(p * 8),
                    bias.add(p * 8),
                    relu,
                    inv_next,
                    q_out.add(p * 8),
                    q_out_stride,
                );
            }
        }
    }

    /// AVX-512 VNNI whole-batch driver for
    /// [`int8_fused_quant_block_avx512`].
    ///
    /// # Safety
    ///
    /// As [`int8_fused_quant_avx2`], plus AVX-512F/AVX-512 VNNI support.
    #[target_feature(enable = "avx512f,avx512vnni")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn int8_fused_quant_avx512(
        q: *const i16,
        q_stride: usize,
        kpairs: usize,
        rows: usize,
        wp: *const i16,
        panel_count: usize,
        fan_out: usize,
        dequant: *const f32,
        bias: *const f32,
        relu: bool,
        inv_next: f32,
        q_out: *mut i16,
        q_out_stride: usize,
    ) {
        // SAFETY: each block call covers rows `r..r+IB` within the
        // caller-guaranteed `rows`.
        unsafe {
            let mut r = 0;
            while r + 8 <= rows {
                int8_fused_quant_block_avx512::<8>(
                    q.add(r * q_stride),
                    q_stride,
                    kpairs,
                    wp,
                    panel_count,
                    fan_out,
                    dequant,
                    bias,
                    relu,
                    inv_next,
                    q_out.add(r * q_out_stride),
                    q_out_stride,
                );
                r += 8;
            }
            while r < rows {
                int8_fused_quant_block_avx512::<1>(
                    q.add(r * q_stride),
                    q_stride,
                    kpairs,
                    wp,
                    panel_count,
                    fan_out,
                    dequant,
                    bias,
                    relu,
                    inv_next,
                    q_out.add(r * q_out_stride),
                    q_out_stride,
                );
                r += 1;
            }
        }
    }

    /// SSE2 variant of [`int8_panel_sums_avx2`]: the panel's accumulators
    /// as two four-lane halves.
    ///
    /// # Safety
    ///
    /// As [`int8_panel_sums_avx2`].
    #[inline]
    unsafe fn int8_panel_sums_sse2<const IB: usize>(
        q: *const i16,
        q_stride: usize,
        kpairs: usize,
        wpp: *const i16,
    ) -> ([__m128i; IB], [__m128i; IB]) {
        // SAFETY: accesses are exactly the caller-guaranteed ranges
        // above; all instructions are SSE2 (x86_64 baseline).
        unsafe {
            let mut lo = [_mm_setzero_si128(); IB];
            let mut hi = [_mm_setzero_si128(); IB];
            for kk in 0..kpairs {
                let w0 = _mm_loadu_si128(wpp.add(kk * 16) as *const __m128i);
                let w1 = _mm_loadu_si128(wpp.add(kk * 16 + 8) as *const __m128i);
                for r in 0..IB {
                    let pair = (q.add(r * q_stride + 2 * kk) as *const i32).read_unaligned();
                    let a = _mm_set1_epi32(pair);
                    lo[r] = _mm_add_epi32(lo[r], _mm_madd_epi16(a, w0));
                    hi[r] = _mm_add_epi32(hi[r], _mm_madd_epi16(a, w1));
                }
            }
            (lo, hi)
        }
    }

    /// SSE2 variant of [`int8_fused_block_avx2`]: two four-lane halves
    /// per panel.
    ///
    /// # Safety
    ///
    /// As [`int8_fused_block_avx2`].
    #[inline]
    #[allow(clippy::too_many_arguments)]
    unsafe fn int8_fused_block_sse2<const IB: usize>(
        q: *const i16,
        q_stride: usize,
        kpairs: usize,
        wp: *const i16,
        panel_count: usize,
        fan_out: usize,
        dequant: *const f32,
        bias: *const f32,
        out: *mut f32,
        out_stride: usize,
        relu: bool,
    ) {
        // SAFETY: same access ranges as `int8_fused_block_avx2` in
        // 128-bit halves; all instructions are SSE2 (x86_64 baseline).
        unsafe {
            let zero = _mm_setzero_ps();
            for p in 0..panel_count {
                let wpp = wp.add(p * kpairs * 16);
                let (lo, hi) = int8_panel_sums_sse2::<IB>(q, q_stride, kpairs, wpp);
                let j0 = p * 8;
                if fan_out - j0 >= 8 {
                    let d0 = _mm_loadu_ps(dequant.add(j0));
                    let d1 = _mm_loadu_ps(dequant.add(j0 + 4));
                    let b0 = _mm_loadu_ps(bias.add(j0));
                    let b1 = _mm_loadu_ps(bias.add(j0 + 4));
                    for r in 0..IB {
                        let v0 = _mm_add_ps(_mm_mul_ps(_mm_cvtepi32_ps(lo[r]), d0), b0);
                        let v1 = _mm_add_ps(_mm_mul_ps(_mm_cvtepi32_ps(hi[r]), d1), b1);
                        let (v0, v1) = if relu {
                            (_mm_max_ps(v0, zero), _mm_max_ps(v1, zero))
                        } else {
                            (v0, v1)
                        };
                        _mm_storeu_ps(out.add(r * out_stride + j0), v0);
                        _mm_storeu_ps(out.add(r * out_stride + j0 + 4), v1);
                    }
                } else {
                    let live = fan_out - j0;
                    let mut buf = [0i32; 8];
                    for r in 0..IB {
                        _mm_storeu_si128(buf.as_mut_ptr() as *mut __m128i, lo[r]);
                        _mm_storeu_si128(buf.as_mut_ptr().add(4) as *mut __m128i, hi[r]);
                        for (jj, &sum) in buf.iter().enumerate().take(live) {
                            let v = sum as f32 * *dequant.add(j0 + jj) + *bias.add(j0 + jj);
                            *out.add(r * out_stride + j0 + jj) =
                                if relu { crate::quant::relu_exact(v) } else { v };
                        }
                    }
                }
            }
        }
    }

    /// SSE2 variant of [`int8_fused_avx2`].
    ///
    /// # Safety
    ///
    /// As [`int8_fused_avx2`].
    #[allow(clippy::too_many_arguments)]
    unsafe fn int8_fused_sse2(
        q: *const i16,
        q_stride: usize,
        kpairs: usize,
        rows: usize,
        wp: *const i16,
        panel_count: usize,
        fan_out: usize,
        dequant: *const f32,
        bias: *const f32,
        out: *mut f32,
        out_stride: usize,
        relu: bool,
    ) {
        // SAFETY: identical blocking to `int8_fused_avx2`.
        unsafe {
            let mut r = 0;
            while r + 8 <= rows {
                int8_fused_block_sse2::<8>(
                    q.add(r * q_stride),
                    q_stride,
                    kpairs,
                    wp,
                    panel_count,
                    fan_out,
                    dequant,
                    bias,
                    out.add(r * out_stride),
                    out_stride,
                    relu,
                );
                r += 8;
            }
            while r < rows {
                int8_fused_block_sse2::<1>(
                    q.add(r * q_stride),
                    q_stride,
                    kpairs,
                    wp,
                    panel_count,
                    fan_out,
                    dequant,
                    bias,
                    out.add(r * out_stride),
                    out_stride,
                    relu,
                );
                r += 1;
            }
        }
    }

    /// Safe wrapper over the fused int8 forward kernels: the whole
    /// batched layer (GEMM + dequant + bias + optional ReLU) in one call.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn int8_fused(
        avx2: bool,
        q: &[i16],
        q_stride: usize,
        kpairs: usize,
        rows: usize,
        wp: &[i16],
        panel_count: usize,
        fan_out: usize,
        dequant: &[f32],
        bias: &[f32],
        out: &mut [f32],
        out_stride: usize,
        relu: bool,
    ) {
        if rows == 0 || panel_count == 0 {
            return;
        }
        debug_assert_eq!(panel_count, fan_out.div_ceil(8));
        debug_assert!(q.len() >= rows * q_stride);
        debug_assert!(wp.len() >= panel_count * kpairs * 16);
        debug_assert!(dequant.len() >= fan_out && bias.len() >= fan_out);
        debug_assert!(out.len() >= (rows - 1) * out_stride + fan_out);
        debug_assert!(!avx2 || std::arch::is_x86_feature_detected!("avx2"));
        // SAFETY: the slice lengths debug-asserted above are exactly the
        // kernels' documented obligations; AVX2 support is the caller's
        // contract (debug-asserted) and the VNNI families are only entered
        // after `vnni512()` / `vnni()` probe the CPU itself.
        unsafe {
            if avx2 && vnni512() {
                int8_fused_avx512(
                    q.as_ptr(),
                    q_stride,
                    kpairs,
                    rows,
                    wp.as_ptr(),
                    panel_count,
                    fan_out,
                    dequant.as_ptr(),
                    bias.as_ptr(),
                    out.as_mut_ptr(),
                    out_stride,
                    relu,
                );
            } else if avx2 && vnni() {
                int8_fused_vnni(
                    q.as_ptr(),
                    q_stride,
                    kpairs,
                    rows,
                    wp.as_ptr(),
                    panel_count,
                    fan_out,
                    dequant.as_ptr(),
                    bias.as_ptr(),
                    out.as_mut_ptr(),
                    out_stride,
                    relu,
                );
            } else if avx2 {
                int8_fused_avx2(
                    q.as_ptr(),
                    q_stride,
                    kpairs,
                    rows,
                    wp.as_ptr(),
                    panel_count,
                    fan_out,
                    dequant.as_ptr(),
                    bias.as_ptr(),
                    out.as_mut_ptr(),
                    out_stride,
                    relu,
                );
            } else {
                int8_fused_sse2(
                    q.as_ptr(),
                    q_stride,
                    kpairs,
                    rows,
                    wp.as_ptr(),
                    panel_count,
                    fan_out,
                    dequant.as_ptr(),
                    bias.as_ptr(),
                    out.as_mut_ptr(),
                    out_stride,
                    relu,
                );
            }
        }
    }

    /// AVX2 rank-1 update row: `out[..cols] += a * b[..cols]` with an
    /// 8-lane body and scalar tail — ascending-`j` element order is
    /// irrelevant here (each element is one mul + one add), what matters
    /// is that each `out[j]` sees the identical single operation the
    /// scalar kernel applies.
    ///
    /// # Safety
    ///
    /// `b` and `out` must each hold `cols` readable/writable floats.
    #[target_feature(enable = "avx2")]
    unsafe fn axpy_row_avx2(a: f32, b: *const f32, out: *mut f32, cols: usize) {
        // SAFETY: vector ops cover j..j+8 only while j + 8 <= cols; the
        // scalar tail covers the rest — all inside the caller-guaranteed
        // `cols` floats of both pointers.
        unsafe {
            let av = _mm256_set1_ps(a);
            let mut j = 0;
            while j + 8 <= cols {
                let o = _mm256_loadu_ps(out.add(j));
                let bv = _mm256_loadu_ps(b.add(j));
                _mm256_storeu_ps(out.add(j), _mm256_add_ps(o, _mm256_mul_ps(av, bv)));
                j += 8;
            }
            while j < cols {
                *out.add(j) += a * *b.add(j);
                j += 1;
            }
        }
    }

    /// Safe wrapper: `out += a * b`, element-wise over equal-length rows.
    /// The caller must have verified AVX2 support (debug-asserted).
    pub(crate) fn axpy_row(a: f32, b: &[f32], out: &mut [f32]) {
        debug_assert_eq!(b.len(), out.len());
        debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
        // SAFETY: both pointers carry exactly `out.len()` elements, the
        // kernel's documented obligation; AVX2 support is debug-asserted.
        unsafe { axpy_row_avx2(a, b.as_ptr(), out.as_mut_ptr(), out.len()) }
    }

    /// SSE2 variant of [`int8_fused_quant_block_avx2`].
    ///
    /// # Safety
    ///
    /// As [`int8_fused_quant_block_avx2`].
    #[inline]
    #[allow(clippy::too_many_arguments)]
    unsafe fn int8_fused_quant_block_sse2<const IB: usize>(
        q: *const i16,
        q_stride: usize,
        kpairs: usize,
        wp: *const i16,
        panel_count: usize,
        fan_out: usize,
        dequant: *const f32,
        bias: *const f32,
        relu: bool,
        inv_next: f32,
        q_out: *mut i16,
        q_out_stride: usize,
    ) {
        // SAFETY: same access ranges as `int8_fused_quant_block_avx2` in
        // 128-bit halves; all instructions are SSE2 (x86_64 baseline).
        unsafe {
            let zero = _mm_setzero_ps();
            let inv = _mm_set1_ps(inv_next);
            let half = _mm_set1_ps(0.5);
            let sign = _mm_set1_ps(-0.0);
            let chi = _mm_set1_ps(127.0);
            let clo = _mm_set1_ps(-127.0);
            for p in 0..panel_count {
                let wpp = wp.add(p * kpairs * 16);
                let (lo, hi) = int8_panel_sums_sse2::<IB>(q, q_stride, kpairs, wpp);
                let j0 = p * 8;
                if fan_out - j0 >= 8 {
                    let d0 = _mm_loadu_ps(dequant.add(j0));
                    let d1 = _mm_loadu_ps(dequant.add(j0 + 4));
                    let b0 = _mm_loadu_ps(bias.add(j0));
                    let b1 = _mm_loadu_ps(bias.add(j0 + 4));
                    for r in 0..IB {
                        let v0 = _mm_add_ps(_mm_mul_ps(_mm_cvtepi32_ps(lo[r]), d0), b0);
                        let v1 = _mm_add_ps(_mm_mul_ps(_mm_cvtepi32_ps(hi[r]), d1), b1);
                        let (v0, v1) = if relu {
                            (_mm_max_ps(v0, zero), _mm_max_ps(v1, zero))
                        } else {
                            (v0, v1)
                        };
                        let y0 = _mm_mul_ps(v0, inv);
                        let y1 = _mm_mul_ps(v1, inv);
                        let t0 = _mm_add_ps(y0, _mm_or_ps(half, _mm_and_ps(y0, sign)));
                        let t1 = _mm_add_ps(y1, _mm_or_ps(half, _mm_and_ps(y1, sign)));
                        let t0 = _mm_max_ps(_mm_min_ps(t0, chi), clo);
                        let t1 = _mm_max_ps(_mm_min_ps(t1, chi), clo);
                        let packed = _mm_packs_epi32(_mm_cvttps_epi32(t0), _mm_cvttps_epi32(t1));
                        _mm_storeu_si128(q_out.add(r * q_out_stride + j0) as *mut __m128i, packed);
                    }
                } else {
                    let live = fan_out - j0;
                    let mut buf = [0i32; 8];
                    for r in 0..IB {
                        _mm_storeu_si128(buf.as_mut_ptr() as *mut __m128i, lo[r]);
                        _mm_storeu_si128(buf.as_mut_ptr().add(4) as *mut __m128i, hi[r]);
                        for (jj, &sum) in buf.iter().enumerate().take(live) {
                            let v = sum as f32 * *dequant.add(j0 + jj) + *bias.add(j0 + jj);
                            let v = if relu { crate::quant::relu_exact(v) } else { v };
                            *q_out.add(r * q_out_stride + j0 + jj) =
                                crate::quant::quantize_activation(v, inv_next);
                        }
                    }
                }
            }
        }
    }

    /// SSE2 whole-batch driver for [`int8_fused_quant_block_sse2`].
    ///
    /// # Safety
    ///
    /// As [`int8_fused_quant_avx2`].
    #[allow(clippy::too_many_arguments)]
    unsafe fn int8_fused_quant_sse2(
        q: *const i16,
        q_stride: usize,
        kpairs: usize,
        rows: usize,
        wp: *const i16,
        panel_count: usize,
        fan_out: usize,
        dequant: *const f32,
        bias: *const f32,
        relu: bool,
        inv_next: f32,
        q_out: *mut i16,
        q_out_stride: usize,
    ) {
        // SAFETY: identical blocking to `int8_fused_quant_avx2`.
        unsafe {
            let mut r = 0;
            while r + 8 <= rows {
                int8_fused_quant_block_sse2::<8>(
                    q.add(r * q_stride),
                    q_stride,
                    kpairs,
                    wp,
                    panel_count,
                    fan_out,
                    dequant,
                    bias,
                    relu,
                    inv_next,
                    q_out.add(r * q_out_stride),
                    q_out_stride,
                );
                r += 8;
            }
            while r < rows {
                int8_fused_quant_block_sse2::<1>(
                    q.add(r * q_stride),
                    q_stride,
                    kpairs,
                    wp,
                    panel_count,
                    fan_out,
                    dequant,
                    bias,
                    relu,
                    inv_next,
                    q_out.add(r * q_out_stride),
                    q_out_stride,
                );
                r += 1;
            }
        }
    }

    /// Safe wrapper over the quantizing fused int8 kernels: one hidden
    /// layer (GEMM + dequant + bias + activation + next-layer
    /// quantization) for the whole batch in one call, i16 in → i16 out.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn int8_fused_quant(
        avx2: bool,
        q: &[i16],
        q_stride: usize,
        kpairs: usize,
        rows: usize,
        wp: &[i16],
        panel_count: usize,
        fan_out: usize,
        dequant: &[f32],
        bias: &[f32],
        relu: bool,
        inv_next: f32,
        q_out: &mut [i16],
        q_out_stride: usize,
    ) {
        if rows == 0 || panel_count == 0 {
            return;
        }
        debug_assert_eq!(panel_count, fan_out.div_ceil(8));
        debug_assert!(q.len() >= rows * q_stride);
        debug_assert!(wp.len() >= panel_count * kpairs * 16);
        debug_assert!(dequant.len() >= fan_out && bias.len() >= fan_out);
        debug_assert!(q_out.len() >= (rows - 1) * q_out_stride + fan_out);
        debug_assert!(!avx2 || std::arch::is_x86_feature_detected!("avx2"));
        // SAFETY: the slice lengths debug-asserted above are exactly the
        // kernels' documented obligations; AVX2 support is the caller's
        // contract (debug-asserted) and the VNNI families are only entered
        // after `vnni512()` / `vnni()` probe the CPU itself.
        unsafe {
            if avx2 && vnni512() {
                int8_fused_quant_avx512(
                    q.as_ptr(),
                    q_stride,
                    kpairs,
                    rows,
                    wp.as_ptr(),
                    panel_count,
                    fan_out,
                    dequant.as_ptr(),
                    bias.as_ptr(),
                    relu,
                    inv_next,
                    q_out.as_mut_ptr(),
                    q_out_stride,
                );
            } else if avx2 && vnni() {
                int8_fused_quant_vnni(
                    q.as_ptr(),
                    q_stride,
                    kpairs,
                    rows,
                    wp.as_ptr(),
                    panel_count,
                    fan_out,
                    dequant.as_ptr(),
                    bias.as_ptr(),
                    relu,
                    inv_next,
                    q_out.as_mut_ptr(),
                    q_out_stride,
                );
            } else if avx2 {
                int8_fused_quant_avx2(
                    q.as_ptr(),
                    q_stride,
                    kpairs,
                    rows,
                    wp.as_ptr(),
                    panel_count,
                    fan_out,
                    dequant.as_ptr(),
                    bias.as_ptr(),
                    relu,
                    inv_next,
                    q_out.as_mut_ptr(),
                    q_out_stride,
                );
            } else {
                int8_fused_quant_sse2(
                    q.as_ptr(),
                    q_stride,
                    kpairs,
                    rows,
                    wp.as_ptr(),
                    panel_count,
                    fan_out,
                    dequant.as_ptr(),
                    bias.as_ptr(),
                    relu,
                    inv_next,
                    q_out.as_mut_ptr(),
                    q_out_stride,
                );
            }
        }
    }

    /// AVX2 activation quantization, 16 values per step: every lane runs
    /// exactly the operation sequence of
    /// [`crate::quant::quantize_activation`] (multiply, round half away
    /// from zero via `± 0.5` + truncation, `min`/`max` clamp with x86
    /// NaN-propagates-second-operand semantics, saturating i16 pack of
    /// values already inside `[-127, 127]`), so vector and scalar
    /// quantization are bit-identical per element.
    ///
    /// # Safety
    ///
    /// `x` must hold `n` readable floats and `q` `n` writable i16; the
    /// vector body only touches `j..j+16` while `j + 16 <= n`.
    #[target_feature(enable = "avx2")]
    unsafe fn quantize_row_avx2(x: *const f32, inv_scale: f32, q: *mut i16, n: usize) -> usize {
        // SAFETY: loads stop at `j + 16 <= n`, stores mirror them; both
        // inside the caller-guaranteed ranges.
        unsafe {
            let inv = _mm256_set1_ps(inv_scale);
            let half = _mm256_set1_ps(0.5);
            let sign = _mm256_set1_ps(-0.0);
            let hi = _mm256_set1_ps(127.0);
            let lo = _mm256_set1_ps(-127.0);
            let mut j = 0;
            while j + 16 <= n {
                let y0 = _mm256_mul_ps(_mm256_loadu_ps(x.add(j)), inv);
                let y1 = _mm256_mul_ps(_mm256_loadu_ps(x.add(j + 8)), inv);
                let t0 = _mm256_add_ps(y0, _mm256_or_ps(half, _mm256_and_ps(y0, sign)));
                let t1 = _mm256_add_ps(y1, _mm256_or_ps(half, _mm256_and_ps(y1, sign)));
                let t0 = _mm256_max_ps(_mm256_min_ps(t0, hi), lo);
                let t1 = _mm256_max_ps(_mm256_min_ps(t1, hi), lo);
                let i0 = _mm256_cvttps_epi32(t0);
                let i1 = _mm256_cvttps_epi32(t1);
                // packs interleaves the two sources per 128-bit lane;
                // permuting the 64-bit quarters restores element order.
                let packed = _mm256_packs_epi32(i0, i1);
                let ordered = _mm256_permute4x64_epi64(packed, 0b1101_1000);
                _mm256_storeu_si256(q.add(j) as *mut __m256i, ordered);
                j += 16;
            }
            j
        }
    }

    /// SSE2 activation quantization, 8 (then 4) values per step — same
    /// per-lane operation sequence as [`quantize_row_avx2`].
    ///
    /// # Safety
    ///
    /// As [`quantize_row_avx2`]; the vector bodies only touch `j..j+8`
    /// (or `j..j+4`) while they fit in `n`.
    unsafe fn quantize_row_sse2(x: *const f32, inv_scale: f32, q: *mut i16, n: usize) -> usize {
        // SAFETY: loads/stores bounded by the `j + 8 <= n` / `j + 4 <= n`
        // guards, inside the caller-guaranteed ranges.
        unsafe {
            let inv = _mm_set1_ps(inv_scale);
            let half = _mm_set1_ps(0.5);
            let sign = _mm_set1_ps(-0.0);
            let hi = _mm_set1_ps(127.0);
            let lo = _mm_set1_ps(-127.0);
            let quant4 = |ptr: *const f32| {
                let y = _mm_mul_ps(_mm_loadu_ps(ptr), inv);
                let t = _mm_add_ps(y, _mm_or_ps(half, _mm_and_ps(y, sign)));
                _mm_cvttps_epi32(_mm_max_ps(_mm_min_ps(t, hi), lo))
            };
            let mut j = 0;
            while j + 8 <= n {
                let i0 = quant4(x.add(j));
                let i1 = quant4(x.add(j + 4));
                _mm_storeu_si128(q.add(j) as *mut __m128i, _mm_packs_epi32(i0, i1));
                j += 8;
            }
            if j + 4 <= n {
                let i0 = quant4(x.add(j));
                // Pack against itself and store the low 4 i16.
                _mm_storel_epi64(q.add(j) as *mut __m128i, _mm_packs_epi32(i0, i0));
                j += 4;
            }
            j
        }
    }

    /// Safe wrapper: quantizes `x` into `q` (equal lengths) on the SIMD
    /// path, finishing the tail with the shared scalar helper — every
    /// element is bit-identical to a pure-scalar quantization.
    pub(crate) fn quantize_row(avx2: bool, x: &[f32], inv_scale: f32, q: &mut [i16]) {
        debug_assert_eq!(x.len(), q.len());
        debug_assert!(!avx2 || std::arch::is_x86_feature_detected!("avx2"));
        // SAFETY: both pointers carry exactly `x.len()` elements and the
        // kernels only touch indices below it; AVX2 is debug-asserted.
        let done = unsafe {
            if avx2 {
                quantize_row_avx2(x.as_ptr(), inv_scale, q.as_mut_ptr(), x.len())
            } else {
                quantize_row_sse2(x.as_ptr(), inv_scale, q.as_mut_ptr(), x.len())
            }
        };
        for (qv, &xv) in q[done..].iter_mut().zip(&x[done..]) {
            *qv = crate::quant::quantize_activation(xv, inv_scale);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        for p in [KernelPath::Scalar, KernelPath::Sse2, KernelPath::Avx2] {
            assert_eq!(p.as_str().parse::<KernelPath>().unwrap(), p);
        }
        assert!("neon".parse::<KernelPath>().is_err());
        assert_eq!("  AVX2 ".parse::<KernelPath>().unwrap(), KernelPath::Avx2);
    }

    #[test]
    fn force_clamps_to_detected_capability() {
        let detected = detect();
        force(Some(KernelPath::Avx2));
        assert!(active() <= detected);
        force(Some(KernelPath::Scalar));
        assert_eq!(active(), KernelPath::Scalar);
        force(None);
        assert!(active() <= detected);
        force(None);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn x86_detection_is_at_least_sse2() {
        assert!(detect() >= KernelPath::Sse2);
    }
}
