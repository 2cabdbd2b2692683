//! The one distance kernel every index family computes through.
//!
//! **Contract.** Squared L2 is accumulated in [`LANES`] = 16 independent
//! `f32` lanes: element `i` adds `(a[i] - b[i])²` — one subtract, one
//! multiply, one add, each rounded on its own — into lane `i % 16`, in
//! index order. The lanes are then folded by a fixed tree: lane `i` takes
//! lane `i + 8`, then `i + 4`, `i + 2`, `i + 1`. Every implementation
//! follows that lane assignment and that tree, so all of them return the
//! same bits for the same input on every host, and an index rebuilt on a
//! follower from shipped build instructions is the leader's index.
//!
//! That is also why there is **no FMA**: a fused multiply-add rounds once
//! where mul + add round twice, so a host that fused would build a
//! different graph from one that cannot.
//!
//! On x86-64 the full 16-wide chunks run as AVX2 intrinsics when the CPU
//! reports them; everywhere else (and for the tail and the tree, always)
//! the portable loop runs. The choice is read from the CPU once per call —
//! once per scan or neighbour list through the row entry points — never
//! from a setting.

/// Independent accumulators; two AVX2 registers, four SSE ones.
pub const LANES: usize = 16;

/// Lane sums over the full chunks of a pair, portable form: 16 independent
/// sums, which the compiler may vectorise with whatever the target has
/// (SSE2 on any x86-64, NEON on aarch64) — no reassociation is involved.
#[inline(always)]
fn lanes_portable(a: &[f32], b: &[f32]) -> [f32; LANES] {
    let mut acc = [0.0f32; LANES];
    for (x, y) in a.chunks_exact(LANES).zip(b.chunks_exact(LANES)) {
        for l in 0..LANES {
            let d = x[l] - y[l];
            acc[l] += d * d;
        }
    }
    acc
}

/// Lane sums over the full chunks of a pair: lanes 0..8 in one register,
/// 8..16 in the other, the same element-to-lane assignment as
/// [`lanes_portable`].
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
fn lanes_avx2(a: &[f32], b: &[f32]) -> [f32; LANES] {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_setzero_ps, _mm256_storeu_ps,
        _mm256_sub_ps,
    };
    let (mut lo, mut hi) = (_mm256_setzero_ps(), _mm256_setzero_ps());
    for (x, y) in a.chunks_exact(LANES).zip(b.chunks_exact(LANES)) {
        // SAFETY: `chunks_exact(LANES)` yields slices of exactly 16 floats,
        // so both 8-float unaligned loads at offsets 0 and 8 are in bounds.
        let (d_lo, d_hi) = unsafe {
            (
                _mm256_sub_ps(_mm256_loadu_ps(x.as_ptr()), _mm256_loadu_ps(y.as_ptr())),
                _mm256_sub_ps(
                    _mm256_loadu_ps(x.as_ptr().add(8)),
                    _mm256_loadu_ps(y.as_ptr().add(8)),
                ),
            )
        };
        lo = _mm256_add_ps(lo, _mm256_mul_ps(d_lo, d_lo));
        hi = _mm256_add_ps(hi, _mm256_mul_ps(d_hi, d_hi));
    }
    let mut acc = [0.0f32; LANES];
    // SAFETY: `acc` holds 16 floats; the two 8-float stores cover 0..8 and 8..16.
    unsafe {
        _mm256_storeu_ps(acc.as_mut_ptr(), lo);
        _mm256_storeu_ps(acc.as_mut_ptr().add(8), hi);
    }
    acc
}

/// The shared end of every implementation: the `len % 16` tail elements
/// go to lanes `0..tail`, then the fixed tree folds 16 lanes to one.
#[inline(always)]
fn finish(mut acc: [f32; LANES], a: &[f32], b: &[f32]) -> f32 {
    let tail = a.len() - a.len() % LANES;
    for ((s, &x), &y) in acc.iter_mut().zip(&a[tail..]).zip(&b[tail..]) {
        let d = x - y;
        *s += d * d;
    }
    let mut width = LANES / 2;
    while width > 0 {
        for i in 0..width {
            acc[i] += acc[i + width];
        }
        width /= 2;
    }
    acc[0]
}

/// Squared L2 by the portable loop alone: the implementation on every
/// non-x86 host and the reference the dispatched paths are tested against.
#[inline]
pub fn l2_sq_portable(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "l2_sq of unequal lengths");
    finish(lanes_portable(a, b), a, b)
}

#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
fn l2_sq_avx2(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "l2_sq of unequal lengths");
    finish(lanes_avx2(a, b), a, b)
}

/// Squared L2 distance.
#[inline]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 was detected on the running CPU just above.
        return unsafe { l2_sq_avx2(a, b) };
    }
    l2_sq_portable(a, b)
}

/// `out[i]` = squared L2 from `query` to the `i`-th of `rows`; the CPU is
/// asked once for all of them.
#[inline(always)]
fn each_row<'a>(query: &[f32], rows: impl Iterator<Item = &'a [f32]>, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        #[target_feature(enable = "avx2")]
        fn each_row_avx2<'a>(
            query: &[f32],
            rows: impl Iterator<Item = &'a [f32]>,
            out: &mut [f32],
        ) {
            for (o, row) in out.iter_mut().zip(rows) {
                *o = l2_sq_avx2(query, row);
            }
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was detected on the running CPU just above.
            return unsafe { each_row_avx2(query, rows, out) };
        }
    }
    for (o, row) in out.iter_mut().zip(rows) {
        *o = l2_sq_portable(query, row);
    }
}

/// Distances from `query` to consecutive rows of a `dim`-strided block:
/// `out[i]` is the distance to `rows[i * dim..][..dim]`.
pub fn l2_sq_rows(query: &[f32], rows: &[f32], dim: usize, out: &mut [f32]) {
    assert_eq!(query.len(), dim, "query is not one row wide");
    assert_eq!(rows.len(), out.len() * dim, "one output per row");
    if dim == 0 {
        return out.fill(0.0);
    }
    each_row(query, rows.chunks_exact(dim), out);
}

/// Distances from `query` to the rows of a `dim`-strided block that `ids`
/// names (a neighbour list, an inverted list): `out[i]` is the distance to
/// row `ids[i]`.
pub(crate) fn l2_sq_ids(query: &[f32], rows: &[f32], dim: usize, ids: &[u32], out: &mut [f32]) {
    assert_eq!(ids.len(), out.len(), "one output per id");
    let row = |&id: &u32| &rows[id as usize * dim..][..dim];
    each_row(query, ids.iter().map(row), out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_values_and_the_lane_tree() {
        assert_eq!(l2_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(l2_sq(&[1.0], &[1.0]), 0.0);
        assert_eq!(l2_sq(&[], &[]), 0.0);
        // 1e8 absorbs anything under 4 in f32, so a running sum over
        // [1e8, 1 × 15] stays 1e8. The tree instead pairs the 1s among
        // themselves first — 2s, 4s, one 8 — and only the 8 meets 1e8.
        let mut a = [1.0f32; 16];
        a[0] = 1e4;
        assert_eq!(a.iter().map(|x| x * x).sum::<f32>(), 1e8);
        assert_eq!(l2_sq(&a, &[0.0; 16]), 100_000_008.0);
        assert_eq!(l2_sq_portable(&a, &[0.0; 16]), 100_000_008.0);
    }

    #[test]
    fn row_entry_points_match_the_pair_kernel() {
        let dim = 19;
        let rows: Vec<f32> = (0..dim * 7).map(|i| (i as f32 * 0.37).sin()).collect();
        let query: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.11).cos()).collect();
        let mut out = [0.0f32; 7];
        l2_sq_rows(&query, &rows, dim, &mut out);
        for (i, d) in out.iter().enumerate() {
            assert_eq!(
                d.to_bits(),
                l2_sq(&query, &rows[i * dim..][..dim]).to_bits()
            );
        }
        let ids = [6u32, 0, 3, 3];
        let mut picked = [0.0f32; 4];
        l2_sq_ids(&query, &rows, dim, &ids, &mut picked);
        for (d, &id) in picked.iter().zip(&ids) {
            assert_eq!(d.to_bits(), out[id as usize].to_bits());
        }
    }
}
