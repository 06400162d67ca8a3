//! Golden digests of what the kernel library builds.
//!
//! `tests/golden/kernels.digests` pins — for every kernel family × every
//! `MappingSpace::candidates` point at two shapes — the
//! [`SourceIdentity`] of the `(TaskRegistry, MappingSpec, Vec<EntryArg>)`
//! that `MappingSpace::build` returns (`computation` covers the entry
//! arguments and every task variant's body, `source` adds every mapping
//! instance) and the rendered entry-argument list. `computation` keys
//! persisted tuning tables, so a rewrite of how a family's task tree is
//! *written* must leave every line here untouched: the file was generated
//! by the hand-expanded literals the shared generators replaced.
//!
//! After an *intentional* change to a kernel's logical description or
//! mapping, regenerate the file with
//!
//! ```sh
//! cargo test --release -p cypress-core --test kernels_golden -- --ignored regenerate
//! ```
//!
//! and review the diff like any other golden file.

use cypress_core::fingerprint::{
    combine, fingerprint, resume_source, source_identity, target_fingerprint, SourceIdentity,
};
use cypress_core::{MappingSpec, TaskMapping};
use cypress_sim::MachineConfig;
use std::fmt::Write as _;

#[path = "golden/shared.rs"]
mod shared;
use shared::{assert_matches_golden, families, schedule_siblings};

const GOLDEN: &str = include_str!("golden/kernels.digests");

/// One line per family × shape × candidate.
fn digests() -> String {
    let machine = MachineConfig::h100_sxm5();
    let mut out = String::new();
    for (family, space, shapes) in families() {
        for shape in &shapes {
            let candidates = space.candidates(&machine, shape);
            assert!(!candidates.is_empty(), "{family} {shape}: empty space");
            for cfg in candidates {
                let (reg, mapping, args) = space.build(shape, &cfg).expect("candidates build");
                let SourceIdentity {
                    computation,
                    source,
                } = source_identity(&reg, &mapping, space.entry(), &args);
                let _ = write!(
                    out,
                    "{family} {shape} {} computation={computation:016x} source={source:016x} args=",
                    cfg.encode()
                );
                for (i, a) in args.iter().enumerate() {
                    let sep = if i == 0 { "" } else { "," };
                    let _ = write!(out, "{sep}{}:{}x{}:{:?}", a.name, a.rows, a.cols, a.dtype);
                }
                out.push('\n');
            }
        }
    }
    out
}

#[test]
fn kernel_library_matches_golden_digests() {
    assert_matches_golden(
        GOLDEN,
        &digests(),
        "the kernel library no longer reproduces tests/golden/kernels.digests",
    );
}

/// Every candidate of a space builds one task registry and one entry
/// argument list, and builds exactly when `MappingSpace::mapping`
/// returns `Ok`: the contract that lets a sweep compile every candidate
/// from the caller's program, built once by the space at its shape, and
/// give each candidate only its mapping. On both machines, at both
/// pinned shapes, so a space whose registry reads a config field fails
/// here.
#[test]
fn every_candidate_builds_one_program() {
    let mut shared = 0;
    for (family, space, shapes) in families() {
        for machine in [MachineConfig::h100_sxm5(), MachineConfig::test_gpu()] {
            for shape in &shapes {
                let mut first = None;
                for cfg in space.candidates(&machine, shape) {
                    let what = format!("{family} {} {shape} {}", machine.name, cfg.encode());
                    let built = space.build(shape, &cfg);
                    assert_eq!(
                        built.is_ok(),
                        space.mapping(shape, &cfg).is_ok(),
                        "{what}: `build` and `mapping` disagree"
                    );
                    let Ok((registry, _, args)) = built else {
                        continue;
                    };
                    let Some((reg, a)) = &first else {
                        first = Some((registry, args));
                        continue;
                    };
                    assert!(
                        registry == *reg,
                        "{what}: the task registry differs from the first candidate's"
                    );
                    assert_eq!(args, *a, "{what}: the entry arguments differ");
                    shared += 1;
                }
            }
        }
    }
    assert!(shared > 0, "some candidates share a program");
}

/// Schedule siblings — candidates with one `MappingConfig::front_key` —
/// build the same task registry and entry arguments (one builds exactly
/// when another does), and mappings that differ only in the two fields
/// warp specialization reads. That is what lets a sweep compile a group
/// through one compiler `Front`, and give each candidate only its
/// `MappingSpace::mapping` and a source hash resumed from the sweep's
/// computation hash. So each member's `build` mapping must hash like
/// its `mapping`, and the resumed hash must be the compile fingerprint
/// of its own full build: on both machines, so any future space that
/// breaks it fails here.
#[test]
fn schedule_siblings_differ_only_in_their_schedule() {
    let unscheduled = |mapping: &MappingSpec| {
        let mut instances: Vec<TaskMapping> = mapping
            .iter()
            .map(|i| TaskMapping {
                pipeline: 0,
                warpspecialize: false,
                ..i.clone()
            })
            .collect();
        instances.sort_by(|a, b| a.instance.cmp(&b.instance));
        instances
    };
    let mut shared = 0;
    for (family, space, shapes) in families() {
        let entry = space.entry();
        for machine in [MachineConfig::h100_sxm5(), MachineConfig::test_gpu()] {
            let target = target_fingerprint(&machine);
            for shape in &shapes {
                let candidates = space.candidates(&machine, shape);
                for group in schedule_siblings(&candidates) {
                    let first = space.build(shape, &candidates[group[0]]);
                    for &i in &group {
                        let cfg = candidates[i];
                        let what = format!("{family} {} {shape} {}", machine.name, cfg.encode());
                        let built = space.build(shape, &cfg);
                        assert_eq!(
                            built.is_ok(),
                            first.is_ok(),
                            "{what}: builds unlike its group"
                        );
                        let (Ok((r, m, a)), Ok((reg, mapping, args))) = (&built, &first) else {
                            continue;
                        };
                        assert!(r == reg, "{what}: the task registry differs");
                        assert_eq!(a, args, "{what}");
                        assert_eq!(unscheduled(m), unscheduled(mapping), "{what}");
                        let alone = space
                            .mapping(shape, &cfg)
                            .unwrap_or_else(|e| panic!("{what}: `mapping` failed: {e}"));
                        let own = source_identity(r, m, entry, a);
                        assert_eq!(
                            resume_source(own.computation, &alone),
                            own.source,
                            "{what}: `mapping` hashes unlike `build`'s mapping"
                        );
                        let computation = source_identity(reg, mapping, entry, args).computation;
                        assert_eq!(
                            combine(resume_source(computation, &alone), target),
                            fingerprint(r, m, entry, a, &machine),
                            "{what}: the resumed fingerprint is not its full build's"
                        );
                        shared += usize::from(i != group[0]);
                    }
                }
            }
        }
    }
    assert!(shared > 0, "some candidates share a front");
}

/// Rewrites the golden file from the current implementation (see the
/// module header for when that is legitimate).
#[test]
#[ignore = "regenerates tests/golden/kernels.digests"]
fn regenerate() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/kernels.digests");
    std::fs::write(path, digests()).expect("write golden file");
}
