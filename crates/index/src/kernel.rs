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
//! On x86-64 every length runs as one AVX2 body when the CPU reports AVX2:
//! the full 16-wide chunks, then the `len % 16` tail as one more masked
//! 16-lane step (tail element `j` in lane `j`; a masked-out lane reads 0.0
//! and adds +0.0, which leaves its bits as they were), then the tree, folded
//! in registers. The row entry points run that body over four rows per
//! pass, each query chunk loaded once for the four; the 0–3 leftover rows
//! and [`l2_sq`] run the same body over one row. Everywhere else the
//! portable loop runs. The choice is read from the CPU once per call —
//! once per scan or neighbour list through the row entry points — never
//! from a setting.

/// Independent accumulators; two AVX2 registers, four SSE ones.
pub(crate) const LANES: usize = 16;

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

/// The portable end: the `len % 16` tail elements go to lanes `0..tail`,
/// then the fixed tree folds 16 lanes to one.
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

/// `LANES` all-ones words, then `LANES` zero words. Read from word
/// `LANES - t`, the first eight words enable lanes `j < t` of the low
/// register and the next eight lanes `8 + j < t` of the high one.
#[cfg(target_arch = "x86_64")]
static TAIL_MASK: [i32; 2 * LANES] = {
    let mut m = [0i32; 2 * LANES];
    let mut i = 0;
    while i < LANES {
        m[i] = -1;
        i += 1;
    }
    m
};

/// Squared L2 from `query` to each of `R` rows, as one AVX2 body: lanes
/// 0..8 of row `r` in `lo[r]`, 8..16 in `hi[r]` — the element-to-lane
/// assignment of [`lanes_portable`] and [`finish`] — then the tree in
/// registers. Each query chunk is loaded once for all `R` rows.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
fn rows_avx2<const R: usize>(query: &[f32], rows: [&[f32]; R]) -> [f32; R] {
    use std::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_castps256_ps128, _mm256_extractf128_ps, _mm256_loadu_ps,
        _mm256_loadu_si256, _mm256_maskload_ps, _mm256_mul_ps, _mm256_setzero_ps, _mm256_sub_ps,
        _mm_add_ps, _mm_add_ss, _mm_cvtss_f32, _mm_movehl_ps, _mm_shuffle_ps,
    };
    let len = query.len();
    for row in rows {
        assert_eq!(row.len(), len, "l2_sq of unequal lengths");
    }
    let full = len - len % LANES;
    let (mut lo, mut hi) = ([_mm256_setzero_ps(); R], [_mm256_setzero_ps(); R]);
    // Adds (x - y)² to a lane register.
    let step = |acc: __m256, x: __m256, y: __m256| {
        let d = _mm256_sub_ps(x, y);
        _mm256_add_ps(acc, _mm256_mul_ps(d, d))
    };
    let mut at = 0;
    while at < full {
        // SAFETY: `at + 16 <= full <= len`, and the query and every row are
        // `len` floats long (asserted above), so both 8-float unaligned
        // loads at `at` and `at + 8` are in bounds.
        unsafe {
            let (q_lo, q_hi) = (
                _mm256_loadu_ps(query.as_ptr().add(at)),
                _mm256_loadu_ps(query.as_ptr().add(at + 8)),
            );
            for r in 0..R {
                let row = rows[r].as_ptr().add(at);
                lo[r] = step(lo[r], q_lo, _mm256_loadu_ps(row));
                hi[r] = step(hi[r], q_hi, _mm256_loadu_ps(row.add(8)));
            }
        }
        at += LANES;
    }
    let tail = len - full;
    if tail > 0 {
        // SAFETY: `TAIL_MASK[LANES - tail..]` holds at least `LANES + tail`
        // words, so both 8-word loads are in bounds. The masks enable lane
        // `j` of `lo` for `j < tail` and of `hi` for `8 + j < tail`, so a
        // masked load touches only floats `full..len` of its slice; a
        // masked-out lane is never read and yields 0.0. `wrapping_add` keeps
        // the `hi` address arithmetic defined when it points past the end.
        unsafe {
            let mask = TAIL_MASK.as_ptr().add(LANES - tail).cast();
            let (m_lo, m_hi) = (_mm256_loadu_si256(mask), _mm256_loadu_si256(mask.add(1)));
            let q = query.as_ptr().add(full);
            let (q_lo, q_hi) = (
                _mm256_maskload_ps(q, m_lo),
                _mm256_maskload_ps(q.wrapping_add(8), m_hi),
            );
            for r in 0..R {
                let row = rows[r].as_ptr().add(full);
                lo[r] = step(lo[r], q_lo, _mm256_maskload_ps(row, m_lo));
                hi[r] = step(hi[r], q_hi, _mm256_maskload_ps(row.wrapping_add(8), m_hi));
            }
        }
    }
    // The tree, lane `i` taking `i + width` for width 8, 4, 2, 1.
    std::array::from_fn(|r| {
        let s8 = _mm256_add_ps(lo[r], hi[r]);
        let s4 = _mm_add_ps(_mm256_castps256_ps128(s8), _mm256_extractf128_ps::<1>(s8));
        let s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
        _mm_cvtss_f32(_mm_add_ss(s2, _mm_shuffle_ps::<1>(s2, s2)))
    })
}

/// The one AVX2 routine behind every entry point: `out[i]` = squared L2
/// from `query` to `row(i)`, four rows per pass, then the leftovers one by
/// one.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn each_row_avx2<'a>(query: &[f32], row: impl Fn(usize) -> &'a [f32], out: &mut [f32]) {
    let mut quads = out.chunks_exact_mut(4);
    let mut i = 0;
    for o in &mut quads {
        o.copy_from_slice(&rows_avx2(
            query,
            [row(i), row(i + 1), row(i + 2), row(i + 3)],
        ));
        i += 4;
    }
    for o in quads.into_remainder() {
        [*o] = rows_avx2(query, [row(i)]);
        i += 1;
    }
}

/// `out[i]` = squared L2 from `query` to `row(i)`; the CPU is asked once
/// for all of them.
#[inline(always)]
fn each_row<'a>(query: &[f32], row: impl Fn(usize) -> &'a [f32], out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 was detected on the running CPU just above.
        return unsafe { each_row_avx2(query, row, out) };
    }
    for (i, o) in out.iter_mut().enumerate() {
        *o = l2_sq_portable(query, row(i));
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn l2_sq_avx2(a: &[f32], b: &[f32]) -> f32 {
    let [d] = rows_avx2(a, [b]);
    d
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

/// Distances from `query` to consecutive rows of a `dim`-strided block:
/// `out[i]` is the distance to `rows[i * dim..][..dim]`.
pub fn l2_sq_rows(query: &[f32], rows: &[f32], dim: usize, out: &mut [f32]) {
    assert_eq!(query.len(), dim, "query is not one row wide");
    assert_eq!(rows.len(), out.len() * dim, "one output per row");
    each_row(query, |i| &rows[i * dim..][..dim], out);
}

/// Distances from `query` to the rows of a `dim`-strided block that `ids`
/// names (a neighbour list, an inverted list): `out[i]` is the distance to
/// row `ids[i]`.
pub(crate) fn l2_sq_ids(query: &[f32], rows: &[f32], dim: usize, ids: &[u32], out: &mut [f32]) {
    assert_eq!(ids.len(), out.len(), "one output per id");
    each_row(query, |i| &rows[ids[i] as usize * dim..][..dim], out);
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
                l2_sq_portable(&query, &rows[i * dim..][..dim]).to_bits()
            );
        }
        // Unsorted and repeated ids, at every list length through two full
        // passes of four and each leftover count.
        let ids = [6u32, 0, 3, 3, 5, 1, 6, 6, 2];
        for n in 0..=ids.len() {
            let mut picked = [f32::NAN; 9];
            l2_sq_ids(&query, &rows, dim, &ids[..n], &mut picked[..n]);
            for (d, &id) in picked[..n].iter().zip(&ids) {
                assert_eq!(d.to_bits(), out[id as usize].to_bits(), "{n} ids");
            }
        }
    }
}
