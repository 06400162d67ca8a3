//! Golden digests of the IR copy elimination produces.
//!
//! `tests/golden/copyelim.digests` pins — for every kernel family × every
//! `MappingSpace::candidates` point at two shapes — an FNV-64 of
//! `print_program` after `copyelim::run`, plus the pass's
//! `removed_copies` and `rounds`. The file was generated by the
//! implementation it guards against (the parent of the clone-free
//! rewrite), so a change to the pass that alters the rewrite sequence
//! anywhere shows up as a diff here, naming the case.
//!
//! After an *intentional* IR change, regenerate the file with
//!
//! ```sh
//! cargo test --release -p cypress-core --test copyelim_golden -- --ignored regenerate
//! ```
//!
//! and review the diff like any other golden file.

use cypress_core::fingerprint::Fnv64;
use cypress_core::ir::printer::print_program;
use cypress_core::passes::{copyelim, depan, vectorize};
use cypress_sim::MachineConfig;
use std::fmt::Write as _;

#[path = "golden/shared.rs"]
mod shared;
use shared::{assert_matches_golden, families};

const GOLDEN: &str = include_str!("golden/copyelim.digests");

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
                let mut prog = depan::analyze(&reg, &mapping, space.entry(), &args).expect("depan");
                vectorize::run(&mut prog);
                vectorize::normalize_ranks(&mut prog);
                let _ = write!(out, "{family} {shape} {} ", cfg.encode());
                match copyelim::run(&mut prog) {
                    Ok(stats) => {
                        let mut h = Fnv64::new();
                        h.write_str(&print_program(&prog));
                        let _ = writeln!(
                            out,
                            "{:016x} removed={} rounds={}",
                            h.finish(),
                            stats.removed_copies,
                            stats.rounds
                        );
                    }
                    Err(e) => {
                        let _ = writeln!(out, "error: {e}");
                    }
                }
            }
        }
    }
    out
}

#[test]
fn copyelim_output_matches_golden_digests() {
    assert_matches_golden(
        GOLDEN,
        &digests(),
        "copy elimination no longer reproduces tests/golden/copyelim.digests",
    );
}

/// Rewrites the golden file from the current implementation (see the
/// module header for when that is legitimate).
#[test]
#[ignore = "regenerates tests/golden/copyelim.digests"]
fn regenerate() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/copyelim.digests");
    std::fs::write(path, digests()).expect("write golden file");
}
