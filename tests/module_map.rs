//! DESIGN.md §7's module map lists every Rust file under `crates/*/src`;
//! this test keeps the map and the tree in step.

use std::collections::BTreeSet;
use std::path::Path;

/// Expands one map token: `a.rs` stays as is, `dir/{a,b}.rs` becomes
/// `dir/a.rs` and `dir/b.rs`.
fn expand(token: &str) -> Vec<String> {
    match (token.find('{'), token.find('}')) {
        (Some(open), Some(close)) => token[open + 1..close]
            .split(',')
            .map(|name| format!("{}{name}{}", &token[..open], &token[close + 1..]))
            .collect(),
        _ => vec![token.to_string()],
    }
}

/// Every `.rs` file under `dir`, relative to `root`, with `/` separators.
fn rust_files(root: &Path, dir: &Path, out: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(root, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root).expect("under root");
            let parts: Vec<_> = rel.iter().map(|p| p.to_string_lossy()).collect();
            out.insert(parts.join("/"));
        }
    }
}

#[test]
fn design_module_map_matches_the_crate_sources() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(repo.join("DESIGN.md")).expect("DESIGN.md is readable");
    let section = design
        .split("\n## ")
        .find(|s| s.starts_with("7. Module map"))
        .expect("DESIGN.md has a §7 Module map");
    let block = section
        .split("```")
        .nth(1)
        .expect("§7 holds a fenced module map");

    let mut mapped_crates = BTreeSet::new();
    for line in block.lines().filter(|l| l.starts_with("crates/")) {
        let mut tokens = line.split_whitespace();
        let krate = tokens.next().expect("crate path");
        assert!(
            mapped_crates.insert(krate.to_string()),
            "{krate} listed twice"
        );
        let listed: BTreeSet<String> = tokens.flat_map(expand).collect();
        let src = repo.join(krate).join("src");
        assert!(src.is_dir(), "§7 lists {krate}, which has no src/");
        let mut on_disk = BTreeSet::new();
        rust_files(&src, &src, &mut on_disk);
        let missing: Vec<_> = on_disk.difference(&listed).collect();
        let stale: Vec<_> = listed.difference(&on_disk).collect();
        assert!(
            missing.is_empty() && stale.is_empty(),
            "{krate}: files not in §7 {missing:?}; §7 entries with no file {stale:?}"
        );
    }

    let on_disk_crates: BTreeSet<String> = std::fs::read_dir(repo.join("crates"))
        .expect("crates/ is readable")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.join("src").is_dir())
        .map(|p| format!("crates/{}", p.file_name().unwrap().to_string_lossy()))
        .collect();
    assert_eq!(mapped_crates, on_disk_crates, "§7 must list every crate");
}
