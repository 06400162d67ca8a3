//! What the golden suites share (through `#[path]`): `copyelim_golden.rs`
//! here and `crates/bench/tests/timing_golden.rs` pin the same kernel
//! families and report a mismatch the same way.

use cypress_core::kernels::attention::{Algorithm, AttentionSpace};
use cypress_core::kernels::{batched, chain, comm, dual_gemm, gemm, gemm_reduction, reduction};
use cypress_core::{MappingConfig, MappingSpace, Shape};

/// Every kernel family with the two shapes it is pinned at.
pub fn families() -> Vec<(&'static str, Box<dyn MappingSpace>, [Shape; 2])> {
    let s = |a: &[usize], b: &[usize]| [Shape::of(a), Shape::of(b)];
    vec![
        (
            "gemm",
            Box::new(gemm::GemmSpace),
            s(&[512, 512, 512], &[4096, 4096, 4096]),
        ),
        (
            "batched",
            Box::new(batched::BatchedGemmSpace),
            s(&[4, 512, 512, 512], &[8, 2048, 2048, 2048]),
        ),
        (
            "dual_gemm",
            Box::new(dual_gemm::DualGemmSpace),
            s(&[512, 512, 512], &[4096, 4096, 4096]),
        ),
        (
            "gemm_reduction",
            Box::new(gemm_reduction::GemmReductionSpace),
            s(&[512, 512, 512], &[4096, 4096, 4096]),
        ),
        (
            "gemm_reduction_pinned",
            Box::new(gemm_reduction::PinnedVSpace { v: 256 }),
            s(&[512, 256, 512], &[2048, 256, 2048]),
        ),
        (
            "chain",
            Box::new(chain::ChainSpace),
            s(&[512, 512, 512, 512], &[2048, 2048, 2048, 512]),
        ),
        (
            "reduction",
            Box::new(reduction::ReductionSpace),
            s(&[512, 512], &[4096, 4096]),
        ),
        (
            "comm_all_reduce",
            Box::new(comm::AllReduceSpace),
            s(&[2, 512, 512], &[4, 2048, 2048]),
        ),
        (
            "fa2",
            Box::new(AttentionSpace {
                algorithm: Algorithm::Fa2,
            }),
            s(&[4, 512, 128], &[16, 4096, 128]),
        ),
        (
            "fa3",
            Box::new(AttentionSpace {
                algorithm: Algorithm::Fa3,
            }),
            s(&[4, 512, 128], &[16, 4096, 128]),
        ),
    ]
}

/// `candidates` as groups of schedule siblings (equal
/// [`MappingConfig::front_key`]), by index, groups and members in
/// enumeration order: how `Session::sweep` groups its compiles.
#[allow(dead_code)] // only the suites that compile through fronts
pub fn schedule_siblings(candidates: &[MappingConfig]) -> Vec<Vec<usize>> {
    let mut groups: Vec<(MappingConfig, Vec<usize>)> = Vec::new();
    for (i, cfg) in candidates.iter().enumerate() {
        let key = cfg.front_key();
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(i),
            None => groups.push((key, vec![i])),
        }
    }
    groups.into_iter().map(|(_, members)| members).collect()
}

/// Fail, naming the first differing lines, unless `actual` reproduces
/// the `golden` file line for line. `what` says what no longer does.
pub fn assert_matches_golden(golden: &str, actual: &str, what: &str) {
    let (want, got): (Vec<&str>, Vec<&str>) = (golden.lines().collect(), actual.lines().collect());
    let diffs: Vec<String> = want
        .iter()
        .zip(&got)
        .filter(|(w, g)| w != g)
        .take(10)
        .map(|(w, g)| format!("  golden: {w}\n  actual: {g}"))
        .collect();
    assert!(
        diffs.is_empty() && want.len() == got.len(),
        "{what} ({} golden lines, {} actual); first differences:\n{}",
        want.len(),
        got.len(),
        diffs.join("\n")
    );
}
