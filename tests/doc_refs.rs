//! Drift guard for the docs: every `*.rs`/`*.json`/`*.txt`/`*.sh` file and
//! every `--bin <name>` that README, DESIGN, EXPERIMENTS or the verify skill
//! mention must exist, so a deleted instrument cannot stay quoted. A mention
//! is a path with a `/` (matched as a suffix of some file: `src/lru.rs`
//! finds `crates/query/src/lru.rs`) or a bare name starting
//! upper-case (`BENCH_optimal.json`). `GENERATED` prefixes are skipped:
//! what running things leaves behind is not the repo.

use std::path::Path;

const SKILL: &str = ".claude/skills/verify/SKILL.md"; // optional
const DOCS: [&str; 4] = ["README.md", "DESIGN.md", "EXPERIMENTS.md", SKILL];
const EXTS: [&str; 4] = [".rs", ".json", ".txt", ".sh"];
const GENERATED: [&str; 3] = ["/", "target/", "benchmark/out/"];
const UNTRACKED: [&str; 3] = ["target", ".git", ".bench_build"];

/// Every file under `dir` as `/<path relative to root>`.
fn walk(root: &Path, dir: &Path, files: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("directory entry").path();
        if !path.is_dir() {
            let rel = path.strip_prefix(root).expect("under root");
            files.push(format!("/{}", rel.display()));
        } else if !UNTRACKED.iter().any(|d| path.ends_with(d)) {
            walk(root, &path, files);
        }
    }
}

#[test]
fn every_path_and_bin_the_docs_mention_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    walk(root, root, &mut files);
    let exists = |path: &str| files.iter().any(|f| f.ends_with(&format!("/{path}")));
    let mut missing = Vec::new();
    for doc in DOCS.iter().filter(|doc| root.join(doc).exists()) {
        let text = std::fs::read_to_string(root.join(doc)).expect("readable doc");
        let mut tokens = text
            .split(|c: char| !(c.is_ascii_alphanumeric() || "_./-".contains(c)))
            .map(|token| token.trim_matches('.'))
            .filter(|token| !token.is_empty())
            .peekable();
        while let Some(token) = tokens.next() {
            let is_file = EXTS.iter().any(|ext| token.ends_with(ext));
            let named = token.contains('/') || token.starts_with(char::is_uppercase);
            let generated = GENERATED.iter().any(|g| token.starts_with(g));
            if is_file && named && !generated && !exists(token) {
                missing.push(format!("{doc}: {token}"));
            }
            if let ("--bin", Some(bin)) = (token, tokens.peek()) {
                if !exists(&format!("bin/{bin}.rs")) {
                    missing.push(format!("{doc}: --bin {bin}"));
                }
            }
        }
    }
    assert!(missing.is_empty(), "not in the repo: {missing:#?}");
}
