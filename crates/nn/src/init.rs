//! Weight initialisation.
//!
//! The paper initialises both model architectures with Glorot (Xavier) initialisation
//! (§5.2, citing Glorot & Bengio 2010).

use rand::Rng;
use usp_linalg::Matrix;

/// Glorot-uniform initialisation for a weight matrix of shape `(fan_out, fan_in)`.
///
/// Entries are drawn uniformly from `[-limit, limit]` with
/// `limit = sqrt(6 / (fan_in + fan_out))`.
pub fn glorot_uniform<R: Rng + ?Sized>(rng: &mut R, fan_out: usize, fan_in: usize) -> Matrix {
    let limit = (6.0f32 / (fan_in + fan_out) as f32).sqrt();
    let data = (0..fan_out * fan_in)
        .map(|_| (rng.random::<f32>() * 2.0 - 1.0) * limit)
        .collect();
    Matrix::from_vec(fan_out, fan_in, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use usp_linalg::{rng as lrng, stats};

    #[test]
    fn glorot_uniform_respects_limit() {
        let mut rng = lrng::seeded(1);
        let w = glorot_uniform(&mut rng, 64, 32);
        let limit = (6.0f32 / 96.0).sqrt();
        assert!(w.as_slice().iter().all(|&x| x.abs() <= limit + 1e-6));
        // Mean close to zero.
        assert!(stats::mean(w.as_slice()).abs() < 0.02);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = glorot_uniform(&mut lrng::seeded(5), 8, 8);
        let b = glorot_uniform(&mut lrng::seeded(5), 8, 8);
        assert_eq!(a, b);
    }
}
