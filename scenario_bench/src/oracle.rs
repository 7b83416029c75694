//! Computations made apart from the program, which the benchmark checks
//! the program's outputs against: the paper's eq. (1) and a seeded
//! error-pattern generator for the codec check.

use std::collections::BTreeSet;

/// `log10` of eq. (1): the probability of exactly `t + 1` raw errors in
/// an `n_bits` codeword at raw bit error rate `rber`, per bit —
/// `C(n, t+1) · rber^(t+1) · (1 − rber)^(n−t−1) / n`.
///
/// The binomial coefficient is summed term by term in log domain, so the
/// result shares no code with the program's gamma-function route.
pub fn log10_uber_eq1(n_bits: u64, t: u32, rber: f64) -> f64 {
    assert!(rber > 0.0 && rber < 1.0, "rber must be a probability");
    let k = u64::from(t) + 1;
    assert!(k <= n_bits, "t + 1 must not exceed the codeword length");
    let ln_choose: f64 = (0..k)
        .map(|i| ((n_bits - i) as f64).ln() - ((i + 1) as f64).ln())
        .sum();
    let ln_uber = ln_choose + k as f64 * rber.ln() + (n_bits - k) as f64 * (-rber).ln_1p()
        - (n_bits as f64).ln();
    ln_uber / std::f64::consts::LN_10
}

/// A seeded SplitMix64 stream: the benchmark's own source of message
/// bytes and error positions.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream starting from `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        // Rejection keeps the draw exactly uniform.
        let zone = u64::MAX - u64::MAX % bound;
        loop {
            let x = self.next_u64();
            if x < zone {
                return x % bound;
            }
        }
    }

    /// `len` random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }

    /// `weight` distinct bit positions in `0..n_bits`, ascending.
    pub fn error_positions(&mut self, n_bits: usize, weight: usize) -> Vec<usize> {
        assert!(weight <= n_bits, "cannot place more errors than bits");
        let mut positions = BTreeSet::new();
        while positions.len() < weight {
            positions.insert(self.below(n_bits as u64) as usize);
        }
        positions.into_iter().collect()
    }
}

/// Flips stream position `pos` of a systematic codeword stored as
/// `message ‖ parity`, most significant bit first in each byte.
pub fn flip(message: &mut [u8], parity: &mut [u8], pos: usize) {
    let k_bits = message.len() * 8;
    let (buf, bit) = if pos < k_bits {
        (message, pos)
    } else {
        (parity, pos - k_bits)
    };
    buf[bit / 8] ^= 0x80 >> (bit % 8);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_matches_a_hand_computed_case() {
        // n = 10, t = 1, rber = 0.1: C(10, 2) · 0.1² · 0.9⁸ / 10.
        let expected = (45.0 * 0.01 * 0.9f64.powi(8) / 10.0).log10();
        assert!((log10_uber_eq1(10, 1, 0.1) - expected).abs() < 1e-12);
    }

    #[test]
    fn eq1_reproduces_the_paper_operating_points() {
        // The paper's Fig. 7 ticks: t = 27 meets 1e-11 at RBER 2.75e-4
        // and t = 65 at 1e-3, for a 4 KiB page with 16-bit parity symbols.
        let n = |t: u64| 32_768 + 16 * t;
        assert!((log10_uber_eq1(n(27), 27, 2.776e-4) + 11.0).abs() < 0.05);
        assert!((log10_uber_eq1(n(65), 65, 1.0028e-3) + 11.0).abs() < 0.05);
        // More capability at the same RBER always lowers UBER.
        assert!(log10_uber_eq1(n(28), 28, 2.776e-4) < log10_uber_eq1(n(27), 27, 2.776e-4));
    }

    #[test]
    fn error_positions_are_distinct_sorted_in_range_and_seeded() {
        let mut a = SplitMix::new(7);
        let mut b = SplitMix::new(7);
        for weight in [0, 1, 2, 37, 65] {
            let pa = a.error_positions(33_808, weight);
            assert_eq!(pa, b.error_positions(33_808, weight));
            assert_eq!(pa.len(), weight);
            assert!(pa.windows(2).all(|w| w[0] < w[1]));
            assert!(pa.iter().all(|&p| p < 33_808));
        }
        assert_ne!(
            SplitMix::new(1).error_positions(1 << 20, 4),
            SplitMix::new(2).error_positions(1 << 20, 4)
        );
        // Every position of a tiny space is reachable.
        assert_eq!(SplitMix::new(3).error_positions(5, 5), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn flip_addresses_message_then_parity_msb_first() {
        let (mut m, mut p) = (vec![0u8; 2], vec![0u8; 1]);
        flip(&mut m, &mut p, 0);
        flip(&mut m, &mut p, 15);
        flip(&mut m, &mut p, 16);
        assert_eq!((m, p), (vec![0x80, 0x01], vec![0x80]));
    }
}
