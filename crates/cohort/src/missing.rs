//! PRO missingness: the gap process matched to the paper's §3 QA
//! statistics (mean gap ≈ 5 consecutive missing observations, max 17).

use crate::config::MissingnessConfig;
use rand::rngs::StdRng;
use rand::RngExt;

/// The answer byte of an unanswered prompt in a [`crate::ProTable`]
/// series (answers are 1–5).
pub const GAP: u8 = 0;

/// Punch gaps into a weekly answer series in place: each week may start
/// a gap (geometric length, capped), which overwrites the following
/// answers with [`GAP`]. Returns the number of gaps started.
pub fn inject_gaps(series: &mut [u8], cfg: &MissingnessConfig, rng: &mut StdRng) -> usize {
    let mut gaps = 0usize;
    let mut i = 0usize;
    // Geometric success probability giving the requested mean length.
    let p_end = 1.0 / cfg.mean_gap_len.max(1.0);
    while i < series.len() {
        if rng.random::<f64>() < cfg.gap_start_prob {
            // Draw the gap length: geometric with mean `mean_gap_len`,
            // truncated at `max_gap_len`.
            let mut len = 1usize;
            while len < cfg.max_gap_len && rng.random::<f64>() > p_end {
                len += 1;
            }
            let end = (i + len).min(series.len());
            series[i..end].fill(GAP);
            gaps += 1;
            // Skip one slot so adjacent gaps cannot merge into an
            // observed missing run longer than `max_gap_len`.
            i = end + 1;
        } else {
            i += 1;
        }
    }
    gaps
}

/// Lengths of the [`GAP`] runs in a series (the QA statistics).
pub fn gap_lengths(series: &[u8]) -> Vec<usize> {
    let mut lengths = Vec::new();
    let mut run = 0usize;
    for &slot in series {
        if slot == GAP {
            run += 1;
        } else if run > 0 {
            lengths.push(run);
            run = 0;
        }
    }
    if run > 0 {
        lengths.push(run);
    }
    lengths
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MissingnessConfig;
    use crate::rng::{substream, Stream};

    fn full_series(n: usize) -> Vec<u8> {
        vec![3; n]
    }

    #[test]
    fn gaps_respect_the_hard_cap() {
        let cfg = MissingnessConfig { gap_start_prob: 0.2, mean_gap_len: 8.0, max_gap_len: 17 };
        let mut rng = substream(1, Stream::Gaps, 0, 0);
        for item in 0..50 {
            let mut s = full_series(72);
            let _ = item;
            inject_gaps(&mut s, &cfg, &mut rng);
            for len in gap_lengths(&s) {
                assert!(len <= 17, "gap of {len} exceeds cap");
            }
        }
    }

    #[test]
    fn mean_gap_length_is_near_target() {
        let cfg = MissingnessConfig::default();
        let mut rng = substream(2, Stream::Gaps, 0, 0);
        let mut all = Vec::new();
        for _ in 0..2000 {
            let mut s = full_series(72);
            inject_gaps(&mut s, &cfg, &mut rng);
            all.extend(gap_lengths(&s));
        }
        let mean = all.iter().sum::<usize>() as f64 / all.len() as f64;
        // Truncation at 17 pulls the mean slightly below the geometric's 5.
        assert!((3.8..=5.6).contains(&mean), "mean gap length {mean}");
    }

    #[test]
    fn gap_count_matches_paper_scale() {
        // 56 variables × 72 weeks per patient: the paper reports ≈108
        // gaps per patient on average.
        let cfg = MissingnessConfig::default();
        let mut total = 0usize;
        let n_patients = 50;
        for p in 0..n_patients {
            for v in 0..56 {
                let mut rng = substream(3, Stream::Gaps, p, v);
                let mut s = full_series(72);
                total += inject_gaps(&mut s, &cfg, &mut rng);
            }
        }
        let per_patient = total as f64 / n_patients as f64;
        assert!(
            (80.0..=140.0).contains(&per_patient),
            "gaps per patient {per_patient}, paper reports ≈108"
        );
    }

    #[test]
    fn gap_lengths_reads_runs_correctly() {
        let s = [1, GAP, GAP, 1, GAP, 1, GAP, GAP, GAP];
        assert_eq!(gap_lengths(&s), vec![2, 1, 3]);
    }

    #[test]
    fn no_gaps_in_untouched_series() {
        assert!(gap_lengths(&full_series(10)).is_empty());
    }

    #[test]
    fn injection_is_deterministic_per_stream() {
        let cfg = MissingnessConfig::default();
        let run = |seed| {
            let mut rng = substream(seed, Stream::Gaps, 1, 1);
            let mut s = full_series(72);
            inject_gaps(&mut s, &cfg, &mut rng);
            s
        };
        assert_eq!(run(5), run(5));
    }
}
