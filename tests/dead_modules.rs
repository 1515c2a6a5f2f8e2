//! Drift guards for dead public code.
//!
//! * Every `pub mod NAME;` under `crates/*/src` must be reached through its
//!   path — some non-comment line under `crates/`, `src/`, `tests/`,
//!   `examples/` or `benchmark/src` mentions `NAME::` — so a module nothing
//!   calls cannot stay compiled, documented and tested by its own unit
//!   tests alone (`gcomm-machine::cost` did, for twenty PRs). A
//!   `pub use NAME::…` beside the declaration counts; a doc link
//!   (`//! [`NAME`]`) does not.
//! * Every `pub fn NAME` declared under `crates/machine/src` must be named
//!   on a non-comment line of another file under the same roots: a
//!   function only its own file's unit tests call is dead API (the
//!   simulator carried `block_owner`, `comm_fraction` and a fault RNG's
//!   `jitter` that way).
//!
//! Nothing is exempt today; an exemption goes in a list here, with its
//! reason.

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

/// True when `line` holds `name` as a whole identifier.
fn names(line: &str, name: &str) -> bool {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    line.match_indices(name)
        .any(|(at, _)| !line[..at].ends_with(ident) && !line[at + name.len()..].starts_with(ident))
}

/// Every source file under [`ROOTS`] with its text.
fn sources(root: &Path) -> Vec<(PathBuf, String)> {
    let mut files = Vec::new();
    for dir in ROOTS {
        walk(&root.join(dir), &mut files);
    }
    files
        .into_iter()
        .map(|file| {
            let text = std::fs::read_to_string(&file).expect("readable source");
            (file, text)
        })
        .collect()
}

/// Code lines only (comment lines dropped), with where they came from.
fn code(sources: &[(PathBuf, String)]) -> impl Iterator<Item = (&Path, &str)> {
    sources.iter().flat_map(|(file, text)| {
        text.lines()
            .map(str::trim)
            .filter(|line| !line.starts_with("//"))
            .map(move |line| (file.as_path(), line))
    })
}

#[test]
fn every_public_module_is_reached_through_its_path() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sources = sources(root);

    let crates_src = |file: &Path| {
        let rel = file.strip_prefix(root.join("crates")).ok()?;
        (rel.components().nth(1)?.as_os_str() == "src").then(|| rel.display().to_string())
    };
    let mut dead = Vec::new();
    for (file, line) in code(&sources) {
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
        if !code(&sources).any(|(_, other)| mentions(other, name)) {
            dead.push(format!("{rel}: {name}"));
        }
    }
    assert!(
        dead.is_empty(),
        "public modules no code reaches by path: {dead:#?}"
    );
}

/// `(function, reason)` pairs allowed to stay uncalled outside their file.
const UNCALLED_MACHINE_FNS: [(&str, &str); 0] = [];

#[test]
fn every_public_machine_function_is_called_outside_its_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sources = sources(root);
    let machine_src = root.join("crates/machine/src");

    let mut dead = Vec::new();
    for (file, line) in code(&sources) {
        if !file.starts_with(&machine_src) {
            continue;
        }
        let Some(rest) = line.strip_prefix("pub fn ") else {
            continue;
        };
        let name: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if UNCALLED_MACHINE_FNS.iter().any(|(n, _)| *n == name) {
            continue;
        }
        if !code(&sources).any(|(other, text)| other != file && names(text, &name)) {
            let rel = file.strip_prefix(root).unwrap_or(file).display();
            dead.push(format!("{rel}: {name}"));
        }
    }
    assert!(
        dead.is_empty(),
        "public machine functions nothing outside their own file names: {dead:#?}"
    );
}
