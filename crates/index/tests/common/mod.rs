//! Shared by the index integration tests.

use fstore_common::{Rng, Xoshiro256};

/// `n` stored vectors and `queries` query vectors in tight Gaussian
/// clusters around the same `centers` random centres — the shape that
/// fragments an HNSW graph whose links are not diverse, and the shape
/// served embeddings have.
pub fn clustered(
    n: usize,
    queries: usize,
    dim: usize,
    centers: usize,
    seed: u64,
) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
    let mut rng = Xoshiro256::seeded(seed);
    let centers: Vec<Vec<f32>> = (0..centers)
        .map(|_| (0..dim).map(|_| (rng.normal() * 2.0) as f32).collect())
        .collect();
    let mut around_a_centre = |count: usize| -> Vec<Vec<f32>> {
        (0..count)
            .map(|_| {
                let c = &centers[rng.below(centers.len() as u64) as usize];
                c.iter().map(|&x| x + (rng.normal() * 0.4) as f32).collect()
            })
            .collect()
    };
    (around_a_centre(n), around_a_centre(queries))
}
