//! Inputs come from the seed and nothing else.

use slp_bench_report::harness::catalog::{
    fingerprint_jobs, fingerprint_systems, verifier_catalog, Prepared, Scale, Workload,
};

fn fingerprint(workload: Workload, seed: u64) -> u64 {
    match workload {
        Workload::VerifierSweep => fingerprint_systems(&verifier_catalog(Scale::Small, seed)),
        _ => fingerprint_jobs(&Prepared::generate(workload, Scale::Small, seed, 2).jobs),
    }
}

#[test]
fn same_seed_same_inputs_different_seed_different_inputs() {
    for workload in Workload::ALL {
        assert_eq!(
            fingerprint(workload, 42),
            fingerprint(workload, 42),
            "{}: the same seed must give the same inputs",
            workload.name()
        );
        assert_ne!(
            fingerprint(workload, 42),
            fingerprint(workload, 43),
            "{}: another seed must give other inputs",
            workload.name()
        );
    }
}

#[test]
fn sizes_are_the_frozen_ones() {
    for workload in Workload::ALL {
        if workload == Workload::VerifierSweep {
            let n = verifier_catalog(Scale::Full, 1).len();
            assert_eq!(n, workload.jobs(Scale::Full));
            continue;
        }
        let p = Prepared::generate(workload, Scale::Small, 1, 2);
        // `long_short_jobs` adds the one long job to the short ones.
        let extra = usize::from(workload == Workload::AltruisticLongShort);
        assert_eq!(p.jobs.len(), workload.jobs(Scale::Small) + extra);
        assert_eq!(
            workload.jobs(Scale::Small) * 100,
            workload.jobs(Scale::Full)
        );
    }
}
