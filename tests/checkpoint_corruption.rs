//! A checkpoint damaged after it was written must be refused with a
//! structured error, never resumed into a machine that then runs on
//! garbage. The payload digest trailer is what guarantees this: any
//! mutation outside the magic/version words surfaces as
//! `SnapError::DigestMismatch` before a single section is decoded.

use glocks_repro::prelude::*;
use glocks_repro::sim::Snapshot;
use glocks_repro::sim_base::snap::SnapError;
use glocks_repro::sim_base::SplitMix64;

/// Magic (4 bytes) + codec version (4 bytes): mutations there are caught
/// by the header checks, which run before the digest.
const MAGIC_AND_VERSION: usize = 8;

fn sctr_mcs() -> (BenchConfig, CmpConfig, LockMapping) {
    let bench = BenchConfig::smoke(BenchKind::Sctr, 8);
    let cfg = CmpConfig::paper_baseline().with_cores(8);
    let mapping = LockMapping::hybrid(&bench.hc_locks(), LockAlgorithm::Mcs, bench.n_locks());
    (bench, cfg, mapping)
}

/// SCTR under MCS on 8 cores, checkpointed halfway through its run.
fn mid_run_checkpoint() -> Vec<u8> {
    let (bench, cfg, mapping) = sctr_mcs();
    let inst = bench.build();
    let mut sim = Simulation::new(&cfg, &mapping, inst.workloads, &inst.init, Default::default());
    while sim.now() < 25_000 {
        assert!(!sim.step().expect("healthy run"), "finished before the checkpoint");
    }
    sim.checkpoint().expect("SCTR supports snapshots").into_bytes()
}

/// Flip one byte, or overwrite an 8-byte run with `0xff`, at a seeded
/// offset; retried until the image actually changes.
fn mutate(pristine: &[u8], rng: &mut SplitMix64) -> (Vec<u8>, usize) {
    loop {
        let mut b = pristine.to_vec();
        let at = rng.next_below(b.len() as u64) as usize;
        if rng.next_below(2) == 0 {
            b[at] ^= 1 + rng.next_below(255) as u8;
        } else {
            let end = (at + 8).min(b.len());
            b[at..end].fill(0xff);
        }
        if b != pristine {
            return (b, at);
        }
    }
}

#[test]
fn corrupted_checkpoints_are_refused() {
    let pristine = mid_run_checkpoint();
    let snap = Snapshot::from_bytes(pristine.clone()).expect("pristine image is accepted");
    let (bench, cfg, mapping) = sctr_mcs();
    let inst = bench.build();
    Simulation::resume(&cfg, &mapping, inst.workloads, &inst.init, Default::default(), &snap)
        .expect("pristine image resumes");

    let mut rng = SplitMix64::new(0xC0AA_0057);
    for i in 0..64 {
        let (bytes, at) = mutate(&pristine, &mut rng);
        let err = Snapshot::from_bytes(bytes)
            .expect_err(&format!("mutation {i} at byte {at} was accepted"));
        if at >= MAGIC_AND_VERSION {
            assert!(
                matches!(err, SnapError::DigestMismatch { .. }),
                "mutation {i} at byte {at}: {err}"
            );
        } else {
            assert!(
                matches!(err, SnapError::BadMagic { .. } | SnapError::VersionMismatch { .. }),
                "mutation {i} at byte {at}: {err}"
            );
        }
    }
}
