//! The workspace's `unsafe` is three guarded `#[target_feature]` calls in
//! two files. Seven crates hold that with `#![forbid(unsafe_code)]`; this
//! test holds the attributes in place and fences the two crates that can
//! only `deny` (`cypress-sim`, `cypress-tensor`) file by file.

use std::fs;
use std::path::{Path, PathBuf};

/// The two files that dispatch on a detected CPU feature.
const ALLOWED: [&str; 2] = ["crates/sim/src/apply.rs", "crates/tensor/src/dtype.rs"];

/// Crate roots that must forbid `unsafe` outright.
const FORBID: [&str; 7] = [
    "src/lib.rs",
    "crates/core/src/lib.rs",
    "crates/runtime/src/lib.rs",
    "crates/baselines/src/lib.rs",
    "crates/bench/src/lib.rs",
    "crates/shims/rand/src/lib.rs",
    "crates/shims/proptest/src/lib.rs",
];

/// Every `.rs` file below `dir` that sits in some `src/` directory.
fn sources(dir: &Path, in_src: bool, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("readable entry").path();
        if path.is_dir() {
            let in_src = in_src || path.file_name().is_some_and(|n| n == "src");
            sources(&path, in_src, out);
        } else if in_src && path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Occurrences of the keyword `unsafe` in `text` outside `//` comments
/// (lint names such as `unsafe_code` are different identifiers).
fn unsafe_keywords(text: &str) -> usize {
    text.lines()
        .map(|line| line.split("//").next().unwrap_or(""))
        .flat_map(|code| code.split(|c: char| !(c.is_alphanumeric() || c == '_')))
        .filter(|word| *word == "unsafe")
        .count()
}

#[test]
fn unsafe_stays_inside_the_two_dispatch_files() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    sources(&root.join("src"), true, &mut files);
    sources(&root.join("crates"), false, &mut files);
    assert!(files.len() > 50, "walked {} source files", files.len());

    let mut blocks = 0;
    for file in files {
        let text = fs::read_to_string(&file).expect("readable source");
        let rel = file.strip_prefix(root).expect("under the root");
        if ALLOWED.iter().any(|allowed| rel == Path::new(allowed)) {
            blocks += text.matches("unsafe {").count();
        } else {
            assert_eq!(unsafe_keywords(&text), 0, "`unsafe` in {}", rel.display());
        }
    }
    assert!((1..=3).contains(&blocks), "{blocks} unsafe blocks");

    for lib in FORBID {
        let text = fs::read_to_string(root.join(lib)).expect("crate root");
        assert!(
            text.contains("#![forbid(unsafe_code)]"),
            "{lib} lost its forbid"
        );
    }
}
