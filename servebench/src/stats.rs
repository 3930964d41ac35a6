//! Order statistics for latency samples.

/// Sort a copy of `values` ascending (NaN-free by construction).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank quantile of an ascending slice (`p` in `0..=1`).
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// The tail latency the sample supports: the highest of p99 / p95 / p90
/// with at least ten samples beyond it, falling back to p75 and p50 for
/// short runs (the self-test).
pub struct Tail {
    pub value: f64,
    pub percentile: u32,
    pub beyond: usize,
    pub samples: usize,
}

pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    let beyond = |pct: u32| n - (pct as usize * n).div_ceil(100).min(n);
    let percentile = [99, 95, 90, 75]
        .into_iter()
        .find(|&pct| beyond(pct) >= 10)
        .unwrap_or(50);
    Tail {
        value: quantile(sorted, f64::from(percentile) / 100.0),
        percentile,
        beyond: beyond(percentile),
        samples: n,
    }
}

/// [`tail`] of each of up to `max_blocks` equal runs of at least
/// `min_len` consecutive samples (`in_order` as measured; a remainder is
/// dropped), and the median of the block values. `percentile`, `beyond`
/// and `samples` are per block. Fewer than `min_len` samples make one
/// block.
pub fn block_tail(in_order: &[f64], max_blocks: usize, min_len: usize) -> Tail {
    let blocks = (in_order.len() / min_len.max(1)).clamp(1, max_blocks.max(1));
    let len = in_order.len() / blocks;
    if len == 0 {
        return tail(&sorted(in_order));
    }
    let tails: Vec<Tail> = in_order
        .chunks_exact(len)
        .map(|block| tail(&sorted(block)))
        .collect();
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    Tail {
        value: median(&values),
        ..tails.into_iter().next().expect("at least one block")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_picks_the_highest_supported_percentile() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.percentile, t.beyond), (99, 10));
        let t = tail(&v[..300]);
        assert_eq!((t.percentile, t.beyond), (95, 15));
        let t = tail(&v[..100]);
        assert_eq!((t.percentile, t.beyond), (90, 10));
        assert_eq!(tail(&v[..5]).percentile, 50);
    }

    #[test]
    fn block_tail_ignores_a_burst_in_one_block() {
        let mut v: Vec<f64> = (0..1000).map(|i| f64::from(i % 100)).collect();
        for x in &mut v[..200] {
            *x += 1000.0;
        }
        let t = block_tail(&v, 5, 100);
        assert_eq!((t.percentile, t.samples, t.beyond), (95, 200, 10));
        assert_eq!(t.value, 94.0);
        // 1000 samples of at least 300 make 3 blocks of 333.
        assert_eq!(block_tail(&v, 5, 300).samples, 333);
        assert_eq!(block_tail(&v[..3], 5, 100).samples, 3);
    }
}
