//! Incremental compilation: one memoized product per routine
//! (DESIGN.md §14).
//!
//! Source is split into **routine-granular chunks** (one `program … end`
//! unit each; a classic single-routine source is exactly one chunk whose
//! text is the whole input, byte for byte). What a caller builds from a
//! compiled routine — the service's rendered fragment, or the IR and
//! schedule of [`IncrCompiler::compile_module`] — is its **product**, and
//! a [`QueryEngine`] keeps three entries per routine:
//!
//! ```text
//!   query.input    (name, occurrence)   → the chunk fingerprint last presented
//!   query.routine  mix(chunk fp, frame) → the chunk's bytes + the product
//!   query.ast      mix(ast_fp, frame)   → the query.routine key of that product
//! ```
//!
//! The frame is what a product depends on beyond its routine (strategy,
//! budget, and the caller's part). A byte-unchanged chunk is one probe of
//! `query.routine`, whose stored bytes are compared with the chunk's, so a
//! 64-bit collision is a miss. Any other chunk is parsed; when its AST's
//! structural fingerprint finds a product in `query.ast` (a comment or
//! blank edit), that product is reused — **early cutoff** — and nothing
//! is lowered, placed or built. Otherwise it is, and only the product is
//! kept: the AST, IR and schedule go when the caller is done with them.
//!
//! A product its builder marks uncacheable is never stored — degraded
//! placements (how far a budget stretched is not a pure function of the
//! key) and the service's error renders (they embed module-level lines) —
//! and neither is a chunk that does not parse. Placement always uses
//! [`CombinePolicy::default`], the serve path's policy; wall-clock (`ms=`)
//! budgets must not reach this module at all. [`compile_module_cold`] runs
//! the identical stage functions with no engine, which makes "incremental
//! ≡ cold" testable as bit-identity (tests/incremental_differential.rs).

use std::borrow::{Borrow, Cow};
use std::collections::HashMap;
use std::sync::Arc;

use gcomm_guard::{Budget, BudgetSpec};
use gcomm_ir::IrProgram;
use gcomm_lang::Program;
use gcomm_query::{fingerprint, mix, Computed, Fingerprinter, Input, QueryEngine, SeededState};

use crate::greedy::CombinePolicy;
use crate::pipeline::{compile_program_budgeted, CoreError};
use crate::schedule::Schedule;
use crate::strategy::Strategy;

// ---------------------------------------------------------------------------
// Routine chunking
// ---------------------------------------------------------------------------

/// One routine-granular source chunk, borrowing the module text (the
/// chunker is on the warm-edit fast path — it runs on every request the
/// payload cache misses, so it slices rather than copies).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutineChunk<'a> {
    /// Routine name: the word after `program`, lowercased (the same
    /// normalization the lexer applies; borrowed from the source when it
    /// already is lowercase), or `routine<idx>` when the chunk has no
    /// `program` line.
    pub name: Cow<'a, str>,
    /// The chunk's exact source text. Concatenating all chunks yields
    /// the original input byte for byte.
    pub src: &'a str,
    /// Fingerprint of [`Self::src`].
    pub fp: u64,
    /// Number of source lines before this chunk (add to chunk-relative
    /// diagnostic lines to get module-level lines).
    pub line_offset: u32,
}

/// True for the bytes of a word (alphanumerics and `_`); one table load.
fn is_word_byte(b: &u8) -> bool {
    const WORD: [bool; 256] = {
        let mut table = [false; 256];
        let mut b = 0;
        while b < 256 {
            table[b] = (b as u8).is_ascii_alphanumeric() || b as u8 == b'_';
            b += 1;
        }
        table
    };
    WORD[usize::from(*b)]
}

/// The offset of the first non-blank at or after `at`, never past the end
/// of the line `at` is in (a newline is not a blank here). ASCII blanks
/// are skipped bytewise; before anything else (a no-break space, U+3000)
/// the rest of the line goes through `trim_start`, which knows every
/// blank there is.
fn skip_blanks(src: &str, mut at: usize) -> usize {
    let bytes = src.as_bytes();
    while matches!(bytes.get(at), Some(b'\t' | 0x0b | 0x0c | b'\r' | b' ')) {
        at += 1;
    }
    if bytes.get(at).is_some_and(|b| !b.is_ascii()) {
        let line = src[at..].split('\n').next().unwrap_or_default();
        at += line.len() - line.trim_start().len();
    }
    at
}

/// True when the first word of `text` — its longest prefix of word bytes
/// — is `word`, ASCII case ignored.
fn first_word_is(text: &[u8], word: &[u8]) -> bool {
    text.get(..word.len())
        .is_some_and(|head| head.eq_ignore_ascii_case(word))
        && !text.get(word.len()).is_some_and(is_word_byte)
}

/// The byte offsets of a text's newlines, eight bytes a step: a byte of
/// `x` is zero exactly where `!(((x & 0x7f…) + 0x7f…) | x | 0x7f…)` has
/// its high bit set (no carries between bytes, so no false hits).
struct Newlines<'a> {
    /// What is left to scan; `at` is its offset in the text.
    rest: &'a [u8],
    at: usize,
    /// Newlines of the last word loaded that are still to be yielded
    /// (high bit of byte `i` ⇒ offset `at - 8 + i`).
    found: u64,
}

impl Iterator for Newlines<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
        while self.found == 0 {
            let Some((word, rest)) = self.rest.split_first_chunk::<8>() else {
                let i = self.rest.iter().position(|&b| b == b'\n')?;
                self.rest = &self.rest[i + 1..];
                self.at += i + 1;
                return Some(self.at - 1);
            };
            let x = u64::from_le_bytes(*word) ^ (u64::from(b'\n') * (LOW7 / 0x7f));
            self.found = !(((x & LOW7) + LOW7) | x | LOW7);
            (self.rest, self.at) = (rest, self.at + 8);
        }
        let i = self.found.trailing_zeros() as usize / 8;
        self.found &= self.found - 1;
        Some(self.at - 8 + i)
    }
}

/// Splits source text into routine chunks at `end` lines — lines whose
/// first word is `end` (`enddo`/`endif` are distinct words and do not
/// match). A source with a single routine (or none at all) comes back as
/// exactly one chunk whose `src` is the input unchanged; trailing text
/// after the last `end` (blank lines, comments) is folded into the last
/// chunk so the chunks always reassemble the input exactly.
///
/// One pass over the bytes: a line's first word is tested where the line
/// starts and the line ends at the next newline. The chunks are sliced,
/// named and fingerprinted back to back afterwards — the text is still in
/// cache, and the hash chains of neighbouring chunks overlap in the
/// pipeline, which they cannot while the scan runs between them.
pub fn split_routines(src: &str) -> Vec<RoutineChunk<'_>> {
    let bytes = src.as_bytes();
    // Per closed chunk: its bytes, the lines before it, and the word after
    // `program` on its first line that has one.
    let mut spans: Vec<(std::ops::Range<usize>, u32, Option<&str>)> = Vec::new();
    let (mut start, mut line_offset, mut name) = (0, 0u32, None);
    let (mut line, mut line_no) = (0, 0u32);
    let mut newlines = Newlines {
        rest: bytes,
        at: 0,
        found: 0,
    };
    while line < src.len() {
        // Most lines open with their first word: only a blank or a
        // non-ASCII byte sends the line through `skip_blanks`.
        let word = match bytes[line] {
            b'\t' | 0x0b | 0x0c | b'\r' | b' ' | 0x80.. => skip_blanks(src, line),
            _ => line,
        };
        // The first byte picks the one word the line can open with.
        let ends = match bytes.get(word) {
            Some(b'e' | b'E') => first_word_is(&bytes[word..], b"end"),
            Some(b'p' | b'P') if name.is_none() && first_word_is(&bytes[word..], b"program") => {
                let at = skip_blanks(src, word + "program".len());
                let len = bytes[at..].iter().position(|b| !is_word_byte(b));
                let len = len.unwrap_or(src.len() - at);
                name = (len > 0).then(|| &src[at..at + len]);
                false
            }
            _ => false,
        };
        line = newlines.next().map_or(src.len(), |nl| nl + 1);
        line_no += 1;
        if ends {
            spans.push((start..line, line_offset, name.take()));
            (start, line_offset) = (line, line_no);
        }
    }
    // Whatever follows the last `end` line widens the last chunk (chunks
    // are contiguous) and may still name it.
    if start < src.len() || spans.is_empty() {
        match spans.last_mut() {
            Some((span, _, last_name)) => {
                span.end = src.len();
                *last_name = last_name.or(name);
            }
            None => spans.push((0..src.len(), 0, name)),
        }
    }
    spans
        .into_iter()
        .enumerate()
        .map(|(idx, (span, line_offset, name))| RoutineChunk {
            name: match name {
                None => Cow::Owned(format!("routine{idx}")),
                // (`fold`, not `any`: names are short, and without the
                // early exit the test runs sixteen bytes a step.)
                Some(n) if n.bytes().fold(false, |up, b| up | b.is_ascii_uppercase()) => {
                    Cow::Owned(n.to_ascii_lowercase())
                }
                Some(n) => Cow::Borrowed(n),
            },
            fp: fingerprint(src[span.clone()].as_bytes()),
            src: &src[span],
            line_offset,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Stage functions (shared verbatim by the cold and incremental paths)
// ---------------------------------------------------------------------------

/// The parsed routine, or its diagnostics.
fn run_parse(src: &str) -> Result<Program, Arc<Vec<CoreError>>> {
    gcomm_lang::parse_program_diagnostics(src)
        .map_err(|errs| Arc::new(errs.into_iter().map(CoreError::from).collect()))
}

/// The outcome of a chunk from its parse: lowered and placed, or its
/// diagnostics.
fn outcome_of(
    chunk: &RoutineChunk,
    parsed: &Result<Program, Arc<Vec<CoreError>>>,
    strategy: Strategy,
    spec: &BudgetSpec,
) -> RoutineOutcome {
    let result = parsed.as_ref().map_err(Arc::clone).and_then(|ast| {
        let prog = gcomm_ir::lower(ast).map_err(|e| Arc::new(vec![CoreError::from(e)]))?;
        let budget = Budget::from_spec(spec);
        let policy = CombinePolicy::default();
        let schedule = compile_program_budgeted(&prog, strategy, &policy, budget.clone());
        // A truncated optimal search is degraded even when the compile
        // budget itself survived: the schedule is the greedy seed or better
        // but not certified, so it must not be cached.
        let truncated_search = schedule.search.as_ref().is_some_and(|s| s.truncated);
        Ok(RoutineArtifacts {
            degraded: budget.exhausted() || truncated_search,
            prog: Arc::new(prog),
            schedule: Arc::new(schedule),
            hits: (false, false, false),
        })
    });
    let name = match &result {
        Ok(a) => a.prog.name.clone(),
        Err(_) => chunk.name.to_string(),
    };
    RoutineOutcome {
        name,
        line_offset: chunk.line_offset,
        result,
    }
}

// ---------------------------------------------------------------------------
// Outcomes
// ---------------------------------------------------------------------------

/// Successful per-routine artifacts, with how the incremental path came
/// by them (all `false` on the cold path).
#[derive(Debug, Clone)]
pub struct RoutineArtifacts {
    /// The lowered program.
    pub prog: Arc<IrProgram>,
    /// The placed schedule.
    pub schedule: Arc<Schedule>,
    /// True when placement exhausted its budget (never cached).
    pub degraded: bool,
    /// `.0`: the chunk was not reparsed; `.1` and `.2`: the product was
    /// reused — by its bytes, or by its AST after a reparse (early cutoff).
    pub hits: (bool, bool, bool),
}

/// The outcome for one routine chunk.
#[derive(Debug, Clone)]
pub struct RoutineOutcome {
    /// Display name (the lowered program's name when compilation got
    /// that far, the chunk's textual name otherwise).
    pub name: String,
    /// Lines before this chunk (offset for module-level diagnostics).
    pub line_offset: u32,
    /// Artifacts, or the chunk's diagnostics with chunk-relative lines.
    pub result: Result<RoutineArtifacts, Arc<Vec<CoreError>>>,
}

impl RoutineOutcome {
    /// The chunk's diagnostics shifted to module-level line numbers
    /// (`line == 0` markers stay 0).
    pub fn module_errors(&self) -> Vec<CoreError> {
        match &self.result {
            Ok(_) => Vec::new(),
            Err(errs) => errs
                .iter()
                .map(|e| CoreError {
                    message: e.message.clone(),
                    line: if e.line == 0 {
                        0
                    } else {
                        e.line + self.line_offset
                    },
                })
                .collect(),
        }
    }
}

/// The outcome of compiling a whole source (one or more routines).
#[derive(Debug, Clone)]
pub struct ModuleOutcome {
    /// Per-chunk outcomes, in source order.
    pub routines: Vec<RoutineOutcome>,
}

// ---------------------------------------------------------------------------
// Cold path
// ---------------------------------------------------------------------------

/// Compiles every routine of `src` from scratch — the identical stage
/// functions as the incremental path, with no memoization and no
/// fingerprint beyond the chunks'. This is the reference the differential
/// tests compare against.
pub fn compile_module_cold(src: &str, strategy: Strategy, spec: &BudgetSpec) -> ModuleOutcome {
    let routines = split_routines(src)
        .iter()
        .map(|chunk| outcome_of(chunk, &run_parse(chunk.src), strategy, spec))
        .collect();
    ModuleOutcome { routines }
}

// ---------------------------------------------------------------------------
// Incremental path
// ---------------------------------------------------------------------------

/// The two query names of a stored product (see the module docs).
const ROUTINE: &str = "query.routine";
const AST: &str = "query.ast";

/// A `query.routine` value: the product, the chunk bytes it is keyed by,
/// its `query.ast` key and what it is charged.
struct Stored<P> {
    src: Box<str>,
    ast_key: u64,
    bytes: u64,
    product: Arc<P>,
}

/// One routine's product and how it was come by.
#[derive(Debug)]
pub struct Product<P> {
    /// The product.
    pub value: Arc<P>,
    /// True when the chunk was parsed: its bytes were not a hit.
    pub reparsed: bool,
    /// True when the product was not built: a byte-unchanged chunk, or
    /// early cutoff after a reparse.
    pub reused: bool,
}

impl<P> Borrow<P> for Product<P> {
    fn borrow(&self) -> &P {
        &self.value
    }
}

/// The engine inputs of a module's chunks under `frame`: slot = the
/// routine's name and its occurrence among same-named chunks (two
/// `program one` routines are two slots, not one that flips between
/// them; the first is the name's fingerprint itself), key = the chunk
/// bytes under the frame.
fn inputs(chunks: &[RoutineChunk], frame: u64) -> Vec<Input> {
    // Occurrences by name fingerprint, in a seeded map: names come from
    // clients.
    let mut seen: HashMap<u64, u64, SeededState> =
        HashMap::with_capacity_and_hasher(chunks.len(), SeededState::new());
    chunks
        .iter()
        .map(|chunk| {
            let name = fingerprint(chunk.name.as_bytes());
            let occurrence = seen.entry(name).or_default();
            *occurrence += 1;
            Input {
                slot: match *occurrence {
                    1 => name,
                    n => mix(name, n),
                },
                fp: chunk.fp,
                key: mix(chunk.fp, frame),
            }
        })
        .collect()
}

/// An incremental compiler: a [`QueryEngine`] plus the pipeline wiring.
/// Cheap to share (`Arc` it); all methods take `&self`.
#[derive(Debug)]
pub struct IncrCompiler {
    engine: QueryEngine,
}

impl IncrCompiler {
    /// A fresh compiler whose memo holds at most `cap_bytes`.
    pub fn new(cap_bytes: u64) -> Self {
        IncrCompiler {
            engine: QueryEngine::new(cap_bytes),
        }
    }

    /// The underlying engine (for stats and probes).
    pub fn engine(&self) -> &QueryEngine {
        &self.engine
    }

    /// Compiles `src` incrementally: routines whose bytes or AST match a
    /// previous compile under the same strategy and budget reuse its IR
    /// and schedule. Output artifacts are identical to
    /// [`compile_module_cold`]'s — only the work to produce them differs.
    pub fn compile_module(
        &self,
        src: &str,
        strategy: Strategy,
        spec: &BudgetSpec,
    ) -> ModuleOutcome {
        let chunks = split_routines(src);
        let products = self.products(&chunks, 0, strategy, spec, |chunk, routine| Computed {
            // The IR and schedule: about 22 bytes a source byte.
            bytes: 22 * chunk.src.len() as u64,
            cacheable: routine.result.as_ref().is_ok_and(|a| !a.degraded),
            value: routine,
        });
        let routines = chunks
            .iter()
            .zip(products)
            .map(|(chunk, p)| {
                let mut routine = Arc::unwrap_or_clone(p.value);
                routine.line_offset = chunk.line_offset;
                if let Ok(a) = &mut routine.result {
                    a.hits = (!p.reparsed, p.reused, p.reused);
                }
                routine
            })
            .collect();
        ModuleOutcome { routines }
    }

    /// The product of every chunk, in order, under `frame` — a fingerprint
    /// of whatever `build` reads beyond the routine (strategy and budget
    /// are folded in here). Every chunk is presented to the engine under
    /// one lock; a hit is its product. A miss is parsed, then reuses the
    /// product of an identical AST (early cutoff) or is lowered, placed and
    /// handed to `build`, whose product is stored if it says it may be.
    pub fn products<P, F>(
        &self,
        chunks: &[RoutineChunk],
        frame: u64,
        strategy: Strategy,
        spec: &BudgetSpec,
        mut build: F,
    ) -> Vec<Product<P>>
    where
        P: Send + Sync + 'static,
        F: FnMut(&RoutineChunk, RoutineOutcome) -> Computed<P>,
    {
        let eng = &self.engine;
        let frame = mix(frame, Fingerprinter::of(&(strategy, spec)));
        let inputs = inputs(chunks, frame);
        // A hit is the stored product when the stored bytes are the chunk's.
        let reuse = |i: usize, stored: &Stored<P>| {
            (*stored.src == *chunks[i].src).then(|| Product {
                value: Arc::clone(&stored.product),
                reparsed: false,
                reused: true,
            })
        };
        let mut products = eng.present(ROUTINE, &inputs, reuse);
        for (i, (chunk, product)) in chunks.iter().zip(&mut products).enumerate() {
            if product.is_some() {
                continue;
            }
            let key = inputs[i].key;
            // A miss probes again: an earlier chunk of this module may have
            // stored the same bytes.
            let again = eng.probe(ROUTINE, key).and_then(|s| reuse(i, &s));
            if again.is_some() {
                eng.count(1, 0, 0);
                *product = again;
                continue;
            }
            let parsed = run_parse(chunk.src);
            let ast_key = parsed
                .as_ref()
                .ok()
                .map(|ast| mix(Fingerprinter::of(ast), frame));
            let cut_off = ast_key.and_then(|ast_key| {
                let at = eng.probe::<u64>(AST, ast_key)?;
                eng.probe::<Stored<P>>(ROUTINE, *at)
                    .filter(|s| s.ast_key == ast_key)
            });
            let (value, bytes) = match &cut_off {
                Some(stored) => {
                    eng.count(1, 0, 1);
                    (Arc::clone(&stored.product), Some(stored.bytes))
                }
                None => {
                    let built = build(chunk, outcome_of(chunk, &parsed, strategy, spec));
                    eng.count(0, 1, 0);
                    (
                        Arc::new(built.value),
                        built.cacheable.then_some(built.bytes),
                    )
                }
            };
            if let (Some(ast_key), Some(bytes)) = (ast_key, bytes) {
                let product = Arc::clone(&value);
                let src = chunk.src.into();
                let charged = bytes + chunk.src.len() as u64;
                let stored = Stored {
                    src,
                    ast_key,
                    bytes,
                    product,
                };
                eng.store(ROUTINE, key, Arc::new(stored), charged);
                eng.store(AST, ast_key, Arc::new(key), 0);
            }
            *product = Some(Product {
                value,
                reparsed: true,
                reused: cut_off.is_some(),
            });
        }
        products
            .into_iter()
            .map(|p| p.expect("every chunk has a product"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ONE: &str =
        "program one\nparam n\nreal a(n), b(n) distribute (block)\nb(2:n) = a(1:n-1)\nend\n";
    const TWO: &str =
        "program two\nparam n\nreal c(n), d(n) distribute (cyclic)\nd(2:n) = c(1:n-1)\nend\n";

    fn spec() -> BudgetSpec {
        BudgetSpec::default()
    }

    #[test]
    fn single_routine_is_one_verbatim_chunk() {
        let chunks = split_routines(ONE);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].src, ONE);
        assert_eq!(chunks[0].name, "one");
        assert_eq!(chunks[0].line_offset, 0);
    }

    #[test]
    fn chunks_reassemble_the_input_exactly() {
        let module = format!("{ONE}{TWO}\n! trailing comment\n");
        let chunks = split_routines(&module);
        assert_eq!(chunks.len(), 2);
        let joined: String = chunks.iter().map(|c| c.src).collect();
        assert_eq!(joined, module);
        assert_eq!(chunks[1].name, "two");
        assert_eq!(chunks[1].line_offset, 5);
        // Trailing comment folded into the last chunk.
        assert!(chunks[1].src.ends_with("! trailing comment\n"));
    }

    #[test]
    fn enddo_endif_do_not_split() {
        let src = "program p\nparam n\nreal a(n,n) distribute (block, *)\nreal x\n\
                   do i = 2, n\nif (x > 0) then\na(i, 1:n) = 1\nendif\nenddo\nend\n";
        assert_eq!(split_routines(src).len(), 1);
    }

    #[test]
    fn end_with_comment_still_splits() {
        let src = "program a\nparam n\nreal q(n) distribute (block)\nq(1:n) = 1\nEND ! done\nprogram b\nparam n\nreal r(n) distribute (block)\nr(1:n) = 2\nend";
        let chunks = split_routines(src);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].name, "a");
        assert_eq!(chunks[1].name, "b");
    }

    #[test]
    fn incremental_matches_cold_per_routine() {
        let module = format!("{ONE}{TWO}");
        let cold = compile_module_cold(&module, Strategy::Global, &spec());
        let ic = IncrCompiler::new(1 << 20);
        let warm = ic.compile_module(&module, Strategy::Global, &spec());
        assert_eq!(cold.routines.len(), 2);
        for (c, w) in cold.routines.iter().zip(&warm.routines) {
            let (ca, wa) = match (&c.result, &w.result) {
                (Ok(ca), Ok(wa)) => (ca, wa),
                other => panic!("expected both ok, got {other:?}"),
            };
            assert_eq!(*ca.prog, *wa.prog);
            assert_eq!(*ca.schedule, *wa.schedule);
        }
    }

    #[test]
    fn second_compile_hits_every_stage() {
        let ic = IncrCompiler::new(1 << 20);
        let module = format!("{ONE}{TWO}");
        ic.compile_module(&module, Strategy::Global, &spec());
        let again = ic.compile_module(&module, Strategy::Global, &spec());
        for r in &again.routines {
            let a = r.result.as_ref().unwrap();
            assert_eq!(a.hits, (true, true, true), "{}", r.name);
        }
        assert_eq!(ic.engine().stats().invalidations, 0);
    }

    #[test]
    fn editing_one_routine_reuses_the_other() {
        let ic = IncrCompiler::new(1 << 20);
        ic.compile_module(&format!("{ONE}{TWO}"), Strategy::Global, &spec());
        // Change routine two's content (a different constant).
        let edited = TWO.replace("= c(1:n-1)", "= c(1:n-1) + 1");
        let out = ic.compile_module(&format!("{ONE}{edited}"), Strategy::Global, &spec());
        let one = out.routines[0].result.as_ref().unwrap();
        let two = out.routines[1].result.as_ref().unwrap();
        assert_eq!(one.hits, (true, true, true), "untouched routine reuses");
        assert!(!two.hits.0, "edited routine re-parses");
        assert_eq!(ic.engine().stats().invalidations, 1);
    }

    #[test]
    fn comment_edit_cuts_off_after_parse() {
        let ic = IncrCompiler::new(1 << 20);
        ic.compile_module(ONE, Strategy::Global, &spec());
        // A trailing comment on the last line changes no AST content and
        // shifts no statement lines.
        let edited = ONE.replace("end\n", "end ! tweaked\n");
        let out = ic.compile_module(&edited, Strategy::Global, &spec());
        let a = out.routines[0].result.as_ref().unwrap();
        assert_eq!(a.hits, (false, true, true), "parse reran, rest cut off");
        assert_eq!(ic.engine().stats().cutoffs, 1);
    }

    #[test]
    fn errors_are_offset_to_module_lines() {
        let bad = "program oops\nparam n\nreal a(n) distribute (block)\nq(1) = 1\nend\n";
        let module = format!("{ONE}{bad}");
        let cold = compile_module_cold(&module, Strategy::Global, &spec());
        assert!(cold.routines[0].result.is_ok());
        let errs = cold.routines[1].module_errors();
        assert_eq!(errs.len(), 1);
        // `q(1) = 1` is chunk line 4, module line 9 (ONE is 5 lines).
        assert_eq!(errs[0].line, 9, "{errs:?}");
    }

    #[test]
    fn degraded_results_are_not_cached() {
        let tight = BudgetSpec::parse("steps=1").unwrap();
        let ic = IncrCompiler::new(1 << 20);
        let out1 = ic.compile_module(ONE, Strategy::Global, &tight);
        let a1 = out1.routines[0].result.as_ref().unwrap();
        assert!(a1.degraded, "steps=1 must exhaust");
        let out2 = ic.compile_module(ONE, Strategy::Global, &tight);
        let a2 = out2.routines[0].result.as_ref().unwrap();
        assert!(!a2.hits.2, "degraded placement must recompute");
        assert!(!a2.hits.0, "nothing stored, so the chunk reparses");
        assert!(ic.engine().stats().cutoffs == 0 && ic.engine().len() == 1);
    }

    #[test]
    fn same_named_routines_are_separate_slots() {
        let other = ONE.replace("= a(1:n-1)", "= a(1:n-1) + 1");
        let module = format!("{ONE}{other}");
        let ic = IncrCompiler::new(1 << 20);
        for _ in 0..3 {
            ic.compile_module(&module, Strategy::Global, &spec());
        }
        let stats = ic.engine().stats();
        assert_eq!((stats.invalidations, stats.misses), (0, 2), "{stats:?}");
    }

    #[test]
    fn a_chunk_key_collision_is_a_miss_and_the_newcomer_wins() {
        let ic = IncrCompiler::new(1 << 20);
        let frame = mix(0, Fingerprinter::of(&(Strategy::Global, &spec())));
        let key = |src: &str| inputs(&split_routines(src), frame)[0].key;
        let stored = |src: &str| {
            ic.engine()
                .probe::<Stored<RoutineOutcome>>(ROUTINE, key(src))
        };
        let compile = |src: &str| ic.compile_module(src, Strategy::Global, &spec()).routines;
        compile(TWO);
        // Forced: TWO's bytes and product under ONE's key.
        ic.engine()
            .store(ROUTINE, key(ONE), stored(TWO).unwrap(), 0);
        let [one] = &compile(ONE)[..] else { panic!() };
        assert_eq!(one.name, "one", "the guard refused TWO's product");
        assert_eq!(&*stored(ONE).unwrap().src, ONE, "replaced, not aliased");
        let [again] = &compile(ONE)[..] else { panic!() };
        assert_eq!(again.result.as_ref().unwrap().hits, (true, true, true));
    }
}
