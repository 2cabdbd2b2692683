//! The kernel's contract, checked from outside the crate: whatever
//! implementation this CPU dispatches to returns the portable loop's bits,
//! and both sit within rounding of an `f64` reference — for every length
//! 0..=130 (every tail length beside 0 to 8 full chunks) and for slices
//! that start anywhere, so no path may assume alignment. The row entry
//! point runs four rows per pass and the 0–3 leftovers one at a time, so
//! row counts 0..=9 meet every leftover count beside 0 to 2 full passes,
//! at dimensions with no tail, with a tail only, and with both.

use fstore_index::{l2_sq, l2_sq_portable, l2_sq_rows};
use proptest::prelude::*;

const MAX_DIM: usize = 130;
const MAX_SKEW: usize = 8;
const ROW_DIMS: [usize; 7] = [1, 15, 16, 17, 32, 64, 70];
const MAX_ROWS: usize = 9;

fn reference(a: &[f32], b: &[f32]) -> f64 {
    let square = |(&x, &y): (&f32, &f32)| (f64::from(x) - f64::from(y)).powi(2);
    a.iter().zip(b).map(square).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dispatched_is_portable_bit_for_bit_and_close_to_f64(
        a in collection::vec(-1.0f32..1.0, MAX_DIM + MAX_SKEW..MAX_DIM + MAX_SKEW + 1),
        b in collection::vec(-1.0f32..1.0, MAX_DIM + MAX_SKEW..MAX_DIM + MAX_SKEW + 1),
        skew_a in 0usize..MAX_SKEW,
        skew_b in 0usize..MAX_SKEW,
        exponent in -12i32..12,
    ) {
        let scale = 2.0f32.powi(exponent);
        let a: Vec<f32> = a.iter().map(|x| x * scale).collect();
        for dim in 0..=MAX_DIM {
            let (x, y) = (&a[skew_a..][..dim], &b[skew_b..][..dim]);
            let got = l2_sq(x, y);
            prop_assert_eq!(got.to_bits(), l2_sq_portable(x, y).to_bits(), "dim {}", dim);
            let want = reference(x, y);
            prop_assert!(
                (f64::from(got) - want).abs() <= 1e-5 * want,
                "dim {}: {} vs {}", dim, got, want
            );
        }
    }

    #[test]
    fn row_blocks_are_the_pair_kernel_row_by_row(
        block in collection::vec(-4.0f32..4.0, 600..601),
        dim in 1usize..70,
        skew in 0usize..MAX_SKEW,
    ) {
        let query = &block[skew..][..dim];
        let count = (block.len() - MAX_SKEW - dim) / dim;
        let rows = &block[skew + 1..][..count * dim];
        let mut out = vec![f32::NAN; count];
        l2_sq_rows(query, rows, dim, &mut out);
        for (row, got) in rows.chunks_exact(dim).zip(&out) {
            prop_assert_eq!(got.to_bits(), l2_sq_portable(query, row).to_bits());
        }
    }

    #[test]
    fn every_row_count_and_tail_is_the_portable_loop(
        block in collection::vec(-4.0f32..4.0, 80 * (MAX_ROWS + 1) + MAX_SKEW..80 * (MAX_ROWS + 1) + MAX_SKEW + 1),
        skew in 0usize..MAX_SKEW,
    ) {
        for dim in ROW_DIMS {
            let query = &block[..dim];
            for count in 0..=MAX_ROWS {
                let rows = &block[dim + skew..][..count * dim];
                let mut out = vec![f32::NAN; count];
                l2_sq_rows(query, rows, dim, &mut out);
                for (i, (row, got)) in rows.chunks_exact(dim).zip(&out).enumerate() {
                    prop_assert_eq!(
                        got.to_bits(),
                        l2_sq_portable(query, row).to_bits(),
                        "dim {} count {} row {}", dim, count, i
                    );
                }
            }
        }
    }
}
