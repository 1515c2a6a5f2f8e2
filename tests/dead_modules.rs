//! Drift guard for the module tree: every `pub mod NAME;` under
//! `crates/*/src` must be reached through its path — some non-comment line
//! under `crates/`, `src/`, `tests/`, `examples/` or `benchmark/src`
//! mentions `NAME::` — so a module nothing calls cannot stay compiled,
//! documented and tested by its own unit tests alone (`gcomm-machine::cost`
//! did, for twenty PRs). A `pub use NAME::…` beside the declaration counts;
//! a doc link (`//! [`NAME`]`) does not. No module is exempt today; one
//! that must be goes in a list here, with its reason.

use std::path::{Path, PathBuf};

const ROOTS: [&str; 5] = ["crates", "src", "tests", "examples", "benchmark/src"];
const UNTRACKED: [&str; 1] = ["target"];

/// Every `*.rs` file under `dir`.
fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("directory entry").path();
        if !path.is_dir() {
            if path.extension().is_some_and(|ext| ext == "rs") {
                files.push(path);
            }
        } else if !UNTRACKED.iter().any(|d| path.ends_with(d)) {
            walk(&path, files);
        }
    }
}

/// True when `line` holds `name::` as a path segment of its own (not the
/// tail of a longer identifier).
fn mentions(line: &str, name: &str) -> bool {
    let path = format!("{name}::");
    line.match_indices(&path)
        .any(|(at, _)| !line[..at].ends_with(|c: char| c.is_ascii_alphanumeric() || c == '_'))
}

#[test]
fn every_public_module_is_reached_through_its_path() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ROOTS {
        walk(&root.join(dir), &mut files);
    }
    let sources: Vec<(PathBuf, String)> = files
        .into_iter()
        .map(|file| {
            let text = std::fs::read_to_string(&file).expect("readable source");
            (file, text)
        })
        .collect();
    // Code lines only, with where they came from.
    let code = || {
        sources.iter().flat_map(|(file, text)| {
            text.lines()
                .map(str::trim)
                .filter(|line| !line.starts_with("//"))
                .map(move |line| (file, line))
        })
    };

    let crates_src = |file: &Path| {
        let rel = file.strip_prefix(root.join("crates")).ok()?;
        (rel.components().nth(1)?.as_os_str() == "src").then(|| rel.display().to_string())
    };
    let mut dead = Vec::new();
    for (file, line) in code() {
        let Some(rel) = crates_src(file) else {
            continue;
        };
        let Some(name) = line
            .strip_prefix("pub mod ")
            .and_then(|rest| rest.strip_suffix(';'))
        else {
            continue;
        };
        // (The declaration itself never reads `NAME::`.)
        if !code().any(|(_, other)| mentions(other, name)) {
            dead.push(format!("{rel}: {name}"));
        }
    }
    assert!(
        dead.is_empty(),
        "public modules no code reaches by path: {dead:#?}"
    );
}
