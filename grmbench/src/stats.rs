//! Small order statistics over measured samples.

/// Nearest-rank quantile of `samples` (sorted in place); `q` in [0, 1].
/// Returns NaN for an empty slice.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// How many samples lie strictly above the `q` quantile.
pub fn beyond(samples: &mut [f64], q: f64) -> usize {
    let cut = quantile(samples, q);
    samples.iter().filter(|&&s| s > cut).count()
}

/// Decisions per block for [`block_p99`]: each block's p99 then has ten
/// samples beyond it.
pub const P99_BLOCK: usize = 1000;

/// Tail latency robust to isolated stalls: the median, over consecutive
/// blocks of [`P99_BLOCK`] samples (a trailing partial block is dropped),
/// of each block's p99. Returns the estimate and the block count.
pub fn block_p99(samples: &[f64]) -> (f64, usize) {
    let mut p99s: Vec<f64> =
        samples.chunks_exact(P99_BLOCK).map(|block| quantile(&mut block.to_vec(), 0.99)).collect();
    (median(&mut p99s), p99s.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(beyond(&mut v, 0.99), 1);
        assert!(quantile(&mut [], 0.5).is_nan());
        let mut two_blocks: Vec<f64> = (0..2 * P99_BLOCK).map(|i| (i % P99_BLOCK) as f64).collect();
        two_blocks.push(1e9);
        assert_eq!(block_p99(&two_blocks), (989.0, 2));
    }
}
