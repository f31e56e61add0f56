//! im2col / col2im lowering of convolution to matrix multiplication.
//!
//! The column matrix has one row per `(c, r, s)` weight tap and one column
//! per output pixel `(oy, ox)`; padded taps read as zero. Multiplying the
//! `K x (C*R*S)` weight matrix by the column matrix yields the `K x (OH*OW)`
//! output feature map — the same schedule the accelerator's MAC array walks,
//! which is what makes the fast fault-correction path algebraically exact.

use crate::{ConvGeom, Mat, Shape4};

/// Builds the column matrix for one batch item of `input`.
///
/// `image` must be the CHW slice of a single batch item whose shape matches
/// `geom.input` (with any `n`).
///
/// # Panics
///
/// Panics if `image.len() != geom.input.image_len()`.
///
/// # Examples
///
/// ```
/// use nvfi_tensor::{im2col, ConvGeom, Shape4, Tensor};
/// let geom = ConvGeom::new(Shape4::new(1, 1, 2, 2), 1, 2, 2, 1, 0);
/// let img = Tensor::from_vec(Shape4::new(1, 1, 2, 2), vec![1i8, 2, 3, 4]);
/// let cols = im2col::im2col(img.image(0), &geom);
/// assert_eq!((cols.rows(), cols.cols()), (4, 1));
/// assert_eq!(cols.as_slice(), &[1, 2, 3, 4]);
/// ```
#[must_use]
pub fn im2col<T: Copy + Default>(image: &[T], geom: &ConvGeom) -> Mat<T> {
    let mut out = Mat::zeros(geom.input.c * geom.r * geom.s, geom.oh * geom.ow);
    im2col_into(image, geom, out.as_mut_slice());
    out
}

/// Buffer-reusing [`im2col`]: fills `out` (length
/// `C*R*S * OH*OW`, row-major) with the column matrix, padded taps as zero;
/// every element is written, so `out` may hold stale data. This is what
/// lets the steady-state inference path run without per-op allocation —
/// callers keep one scratch buffer sized to the largest convolution of the
/// plan.
///
/// # Panics
///
/// Panics if `image` or `out` have the wrong length for `geom`.
pub fn im2col_into<T: Copy + Default>(image: &[T], geom: &ConvGeom, out: &mut [T]) {
    let cols = geom.oh * geom.ow;
    im2col_into_offset(image, geom, out, cols, 0);
}

/// Strided [`im2col_into`]: writes one image's column block into a wider
/// matrix whose rows are `row_stride` long, starting at column `col_off` —
/// how a mini-batch's columns are laid side by side for one batched GEMM.
///
/// Only this image's `OH*OW`-wide column block is written, and every
/// element of it is (padded taps as zero); nothing outside the block
/// changes, so the images of a batch can fill their blocks in any order
/// without clearing the matrix first. A stride-1 convolution whose output
/// is the input's size (`OH == H`, `OW == W`, the stem and every 3x3
/// stride-1 layer of the ResNets) copies each tap row as one shifted run of
/// its channel plane and zeroes only what the run does not cover; every
/// other geometry zeroes the block and fills it pixel by pixel.
///
/// # Panics
///
/// Panics if `image` does not match `geom` or the block exceeds `out`.
pub fn im2col_into_offset<T: Copy + Default>(
    image: &[T],
    geom: &ConvGeom,
    out: &mut [T],
    row_stride: usize,
    col_off: usize,
) {
    let Shape4 { c: ci, h, w, .. } = geom.input;
    assert_eq!(
        image.len(),
        geom.input.image_len(),
        "image does not match {}",
        geom.input
    );
    let cols = geom.oh * geom.ow;
    let rows = ci * geom.r * geom.s;
    assert!(
        col_off + cols <= row_stride,
        "column block exceeds row stride"
    );
    assert_eq!(
        out.len(),
        rows * row_stride,
        "column buffer mismatch for {geom}"
    );
    let block =
        |row_idx: usize| row_idx * row_stride + col_off..row_idx * row_stride + col_off + cols;
    if geom.stride == 1 && geom.oh == h && geom.ow == w {
        let pad = geom.pad as isize;
        for (c, plane) in image.chunks_exact(h * w).enumerate() {
            for r in 0..geom.r {
                for s in 0..geom.s {
                    let row_idx = (c * geom.r + r) * geom.s + s;
                    shifted_plane_row(
                        plane,
                        &mut out[block(row_idx)],
                        w,
                        r as isize - pad,
                        s as isize - pad,
                    );
                }
            }
        }
        return;
    }
    for row_idx in 0..rows {
        out[block(row_idx)].fill(T::default());
    }
    for c in 0..ci {
        for r in 0..geom.r {
            for s in 0..geom.s {
                let row_idx = (c * geom.r + r) * geom.s + s;
                let row = &mut out[block(row_idx)];
                for oy in 0..geom.oh {
                    let iy = (oy * geom.stride + r) as isize - geom.pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue; // whole row of taps falls in padding
                    }
                    let iy = iy as usize;
                    let src_row = &image[(c * h + iy) * w..(c * h + iy + 1) * w];
                    let dst_row = &mut row[oy * geom.ow..(oy + 1) * geom.ow];
                    for (ox, dst) in dst_row.iter_mut().enumerate() {
                        let ix = (ox * geom.stride + s) as isize - geom.pad as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        *dst = src_row[ix as usize];
                    }
                }
            }
        }
    }
}

/// One tap row of a stride-1 convolution whose output is the input's size,
/// for the tap at offset `(dy, dx)` from the window centre. Output pixel
/// `p = oy*W + ox` reads plane pixel `p + dy*W + dx`, so the row is one
/// shifted copy of the plane. Pixels whose source lies before or after the
/// plane read zero, and so do the `|dx|` columns of each output row whose
/// source wrapped into the neighbouring plane row.
fn shifted_plane_row<T: Copy + Default>(
    plane: &[T],
    row: &mut [T],
    w: usize,
    dy: isize,
    dx: isize,
) {
    let hw = plane.len() as isize;
    let d = dy * w as isize + dx;
    // Copied span [lo, hi): the output pixels whose source index p + d lies
    // in the plane (lo <= hi for every d; empty when |d| >= H*W).
    let lo = (-d).clamp(0, hw) as usize;
    let hi = (hw - d).clamp(0, hw) as usize;
    row[..lo].fill(T::default());
    if lo < hi {
        let src = (lo as isize + d) as usize;
        row[lo..hi].copy_from_slice(&plane[src..src + (hi - lo)]);
    }
    row[hi..].fill(T::default());
    let wrap = dx.unsigned_abs().min(w);
    if wrap > 0 {
        let wrapped = if dx > 0 { w - wrap..w } else { 0..wrap };
        for out_row in row.chunks_exact_mut(w) {
            out_row[wrapped.clone()].fill(T::default());
        }
    }
}

/// Adjoint of [`im2col`]: scatter-adds a column-matrix gradient back onto an
/// image gradient buffer. Used by the convolution backward pass.
///
/// # Panics
///
/// Panics if the matrix or buffer dimensions do not match `geom`.
pub fn col2im_acc_f32(cols_grad: &Mat<f32>, geom: &ConvGeom, image_grad: &mut [f32]) {
    let Shape4 { c: ci, h, w, .. } = geom.input;
    assert_eq!(image_grad.len(), geom.input.image_len());
    assert_eq!(cols_grad.rows(), ci * geom.r * geom.s);
    assert_eq!(cols_grad.cols(), geom.oh * geom.ow);
    for c in 0..ci {
        for r in 0..geom.r {
            for s in 0..geom.s {
                let row_idx = (c * geom.r + r) * geom.s + s;
                let row = cols_grad.row(row_idx);
                for oy in 0..geom.oh {
                    let iy = (oy * geom.stride + r) as isize - geom.pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let iy = iy as usize;
                    for ox in 0..geom.ow {
                        let ix = (ox * geom.stride + s) as isize - geom.pad as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        image_grad[(c * h + iy) * w + ix as usize] += row[oy * geom.ow + ox];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    #[test]
    fn identity_1x1_kernel() {
        let geom = ConvGeom::new(Shape4::new(1, 2, 2, 2), 1, 1, 1, 1, 0);
        let img = Tensor::from_vec(Shape4::new(1, 2, 2, 2), (0..8i8).collect());
        let cols = im2col(img.image(0), &geom);
        assert_eq!((cols.rows(), cols.cols()), (2, 4));
        assert_eq!(cols.as_slice(), img.as_slice());
    }

    #[test]
    fn padding_reads_zero() {
        let geom = ConvGeom::new(Shape4::new(1, 1, 1, 1), 1, 3, 3, 1, 1);
        let img = Tensor::from_vec(Shape4::new(1, 1, 1, 1), vec![5i8]);
        let cols = im2col(img.image(0), &geom);
        assert_eq!((cols.rows(), cols.cols()), (9, 1));
        // Only the center tap reads the pixel; all others are padding.
        let expected: Vec<i8> = (0..9).map(|i| if i == 4 { 5 } else { 0 }).collect();
        assert_eq!(cols.as_slice(), expected.as_slice());
    }

    #[test]
    fn stride_two_samples_every_other_pixel() {
        let geom = ConvGeom::new(Shape4::new(1, 1, 4, 4), 1, 1, 1, 2, 0);
        let img = Tensor::from_fn(Shape4::new(1, 1, 4, 4), |_, _, h, w| (h * 4 + w) as i8);
        let cols = im2col(img.image(0), &geom);
        assert_eq!(cols.as_slice(), &[0, 2, 8, 10]);
    }

    /// Naive per-element column matrix: tap `(c, r, s)`, pixel `(oy, ox)`
    /// reads `(c, oy*stride + r - pad, ox*stride + s - pad)`, or zero.
    fn naive_im2col<T: Copy + Default>(image: &[T], g: &ConvGeom) -> Vec<T> {
        let Shape4 { c: ci, h, w, .. } = g.input;
        let mut out = Vec::new();
        for c in 0..ci {
            for r in 0..g.r {
                for s in 0..g.s {
                    for oy in 0..g.oh {
                        for ox in 0..g.ow {
                            let iy = (oy * g.stride + r) as isize - g.pad as isize;
                            let ix = (ox * g.stride + s) as isize - g.pad as isize;
                            let inside =
                                (0..h as isize).contains(&iy) && (0..w as isize).contains(&ix);
                            out.push(if inside {
                                image[(c * h + iy as usize) * w + ix as usize]
                            } else {
                                T::default()
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// `im2col_into_offset` into a sentinel-filled wider matrix: every
    /// element of the block equals the naive reference (none is left at
    /// the sentinel, which the reference never produces) and every element
    /// outside it keeps the sentinel. The odd "same" kernels at stride 1
    /// take the run copy; the valid-padding kernels and stride 2 take the
    /// walk.
    fn check_block_against_naive<T>(value: fn(usize) -> T, sentinel: T)
    where
        T: Copy + Default + PartialEq + std::fmt::Debug,
    {
        for (k, pad) in [(1, 0), (3, 1), (5, 2), (2, 0), (3, 0)] {
            for c in [1, 3] {
                for h in [1, 2, 5] {
                    for w in [1, 2, 5] {
                        if h + 2 * pad < k || w + 2 * pad < k {
                            continue;
                        }
                        for stride in [1, 2] {
                            let geom = ConvGeom::new(Shape4::new(1, c, h, w), 1, k, k, stride, pad);
                            let image: Vec<T> = (0..geom.input.image_len()).map(value).collect();
                            let want = naive_im2col(&image, &geom);
                            let cols = geom.oh * geom.ow;
                            let (col_off, row_stride) = (3, cols + 5);
                            let rows = c * k * k;
                            let mut out = vec![sentinel; rows * row_stride];
                            im2col_into_offset(&image, &geom, &mut out, row_stride, col_off);
                            for (i, &got) in out.iter().enumerate() {
                                let (row, col) = (i / row_stride, i % row_stride);
                                let expect = if (col_off..col_off + cols).contains(&col) {
                                    want[row * cols + col - col_off]
                                } else {
                                    sentinel
                                };
                                assert_eq!(got, expect, "{geom} row {row} col {col}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn run_copy_im2col_matches_naive_reference() {
        check_block_against_naive(|i| (i % 100 + 1) as i8, -77);
        check_block_against_naive(|i| i as f32 + 1.0, -1.0);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for all x, y — checked on a dense
        // basis by transposing the implied linear operator.
        let geom = ConvGeom::new(Shape4::new(1, 2, 3, 3), 1, 2, 2, 1, 1);
        let in_len = geom.input.image_len();
        let cols_len = geom.input.c * geom.r * geom.s * geom.oh * geom.ow;
        // Operator matrix from im2col applied to basis vectors.
        let mut op = vec![vec![0f32; in_len]; cols_len];
        for i in 0..in_len {
            let mut x = vec![0f32; in_len];
            x[i] = 1.0;
            let cols = im2col(&x, &geom);
            for (j, &v) in cols.as_slice().iter().enumerate() {
                op[j][i] = v;
            }
        }
        // col2im applied to basis vectors must give the transpose.
        #[allow(clippy::needless_range_loop)]
        for j in 0..cols_len {
            let mut g = Mat::zeros(geom.input.c * geom.r * geom.s, geom.oh * geom.ow);
            g.as_mut_slice()[j] = 1.0;
            let mut back = vec![0f32; in_len];
            col2im_acc_f32(&g, &geom, &mut back);
            for i in 0..in_len {
                assert_eq!(back[i], op[j][i], "adjoint mismatch at ({j},{i})");
            }
        }
    }
}
