//! Byte-identity gate for the evolving path: a full churn replay —
//! insertions, retractions, and revisions — must produce bitwise-identical
//! per-event estimates, costs, and reservoir accounting across the two
//! annotation engines AND across the batched / per-item offer paths, at
//! every delete fraction, including the insert-only stream at fraction 0.
//! CI's determinism job runs this test; the same checks are recorded into
//! `BENCH_churn.json` by `bench-report --churn`.

use kg_bench::churn::{engines_agree, offer_modes_agree, FRACTIONS};

#[test]
fn churn_replay_is_identical_across_engines_at_every_fraction() {
    for &fraction in &FRACTIONS {
        assert!(
            engines_agree(3_000, fraction, 99),
            "engines diverged at delete fraction {fraction}"
        );
    }
    assert!(engines_agree(8_000, 0.5, 20190923));
}

#[test]
fn churn_replay_is_identical_across_offer_paths() {
    for &fraction in &FRACTIONS {
        assert!(
            offer_modes_agree(3_000, fraction, 99),
            "offer paths diverged at delete fraction {fraction}"
        );
    }
}

/// At delete fraction 0 the churn stream is the insert-only movie-like
/// update stream; these cases gate the insert-only streaming replay.
#[test]
fn insert_only_replay_is_identical_across_engines() {
    assert!(engines_agree(3_000, 0.0, 99));
    assert!(engines_agree(8_000, 0.0, 20190923));
}

#[test]
fn insert_only_replay_is_identical_across_offer_paths() {
    assert!(offer_modes_agree(3_000, 0.0, 99));
    assert!(offer_modes_agree(8_000, 0.0, 20190923));
}

/// Larger streams (several coarse PPS strides, thousands of Δe clusters
/// per event, overlay compactions under heavy deletion) for the weekly
/// slow lane.
#[test]
#[ignore = "slow: larger-scale replay, run with --ignored"]
fn churn_replay_is_identical_at_scale() {
    assert!(engines_agree(200_000, 0.5, 7));
    assert!(offer_modes_agree(200_000, 0.5, 7));
    assert!(offer_modes_agree(200_000, 0.0, 7));
}
