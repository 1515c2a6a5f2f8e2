//! Incremental compilation: the pipeline as memoized queries
//! (DESIGN.md §14).
//!
//! Source is split into **routine-granular chunks** (one `program … end`
//! unit each; a classic single-routine source is exactly one chunk whose
//! text is the whole input, byte for byte). Each chunk flows through a
//! chain of pass-level queries memoized in a [`QueryEngine`]:
//!
//! ```text
//!   chunk text ──fp───▶ src_fp
//!   query.parse (src_fp)          → AST   + ast_fp  (or diagnostics)
//!   query.lower (ast_fp)          → IR    + ir_fp   (or a lowering error)
//!   query.place (ir_fp × strategy × budget) → Schedule + degraded flag
//! ```
//!
//! Every key is a content fingerprint of the *complete* input of that
//! pass, so invalidation needs no revision bookkeeping: an edit to one
//! routine changes only that routine's `src_fp`, every other chunk's
//! whole chain hits, and **early cutoff** happens whenever a recomputed
//! pass reproduces an output with an unchanged fingerprint — the
//! downstream keys are then also unchanged and the recomputation stops.
//! The fingerprints are **structural**: the AST and IR are hashed through
//! their `Hash` impls into the workspace's one [`Fingerprinter`] — every
//! field, source line numbers included (downstream diagnostics and
//! reports embed them). `#[derive(Hash)]` covers a new field on its own;
//! the two fields it cannot cover have hand-written arms: `Expr::Num`
//! hashes its bit pattern, and `IrProgram::branch_conds` (a `HashMap`)
//! is hashed in node-id order.
//!
//! Placement results computed under an exhausted budget (**degraded**)
//! are never cached — the soundness rule every cache of the workspace
//! follows (the serve response cache and its routine memo included): a
//! degraded schedule is legal but not a pure function of the key (it
//! depends on how far the budget stretched), so reusing it would silently
//! pin a worse-than-necessary placement. Diagnostics *are* cached: they
//! are deterministic.
//!
//! Placement always uses [`CombinePolicy::default`] — the same fixed
//! policy as the serve path, which is the consumer of this module.
//! Wall-clock (`ms=`) budgets must not reach this module at all; the
//! service keeps them on its uncached cold path for the same
//! not-a-pure-function reason.
//!
//! [`compile_module_cold`] runs the identical stage functions with no
//! engine, which is what makes "incremental ≡ from-scratch" testable as
//! bit-identity (tests/incremental_differential.rs).

use std::borrow::Cow;
use std::sync::Arc;

use gcomm_guard::{Budget, BudgetSpec};
use gcomm_ir::IrProgram;
use gcomm_lang::Program;
use gcomm_query::{fingerprint, Computed, Fingerprinter, QueryEngine};

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
        let word = skip_blanks(src, line);
        if name.is_none() && first_word_is(&bytes[word..], b"program") {
            let at = skip_blanks(src, word + "program".len());
            let len = bytes[at..].iter().take_while(|b| is_word_byte(b)).count();
            name = (len > 0).then(|| &src[at..at + len]);
        }
        line = newlines.next().map_or(src.len(), |nl| nl + 1);
        line_no += 1;
        if first_word_is(&bytes[word..], b"end") {
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

/// Parse-stage output: the AST plus its structural fingerprint (which
/// covers statement line numbers — two sources that differ only in ways
/// invisible to the AST *and* to diagnostics get the same `ast_fp`, and
/// everything downstream cuts off).
type ParseOut = Result<(Arc<Program>, u64), Arc<Vec<CoreError>>>;

fn run_parse(src: &str) -> ParseOut {
    match gcomm_lang::parse_program_diagnostics(src) {
        Ok(ast) => {
            let fp = Fingerprinter::of(&ast);
            Ok((Arc::new(ast), fp))
        }
        Err(errs) => Err(Arc::new(errs.into_iter().map(CoreError::from).collect())),
    }
}

/// Lower-stage output: the IR plus its structural fingerprint (every field;
/// `branch_conds` in node-id order — see `IrProgram`'s `Hash`).
type LowerOut = Result<(Arc<IrProgram>, u64), Arc<Vec<CoreError>>>;

fn run_lower(ast: &Program) -> LowerOut {
    match gcomm_ir::lower(ast) {
        Ok(prog) => {
            let fp = Fingerprinter::of(&prog);
            Ok((Arc::new(prog), fp))
        }
        Err(e) => Err(Arc::new(vec![CoreError::from(e)])),
    }
}

/// Place-stage output.
#[derive(Debug)]
struct PlaceOut {
    schedule: Arc<Schedule>,
    degraded: bool,
}

fn run_place(prog: &IrProgram, strategy: Strategy, spec: &BudgetSpec) -> PlaceOut {
    let budget = Budget::from_spec(spec);
    let schedule =
        compile_program_budgeted(prog, strategy, &CombinePolicy::default(), budget.clone());
    // A truncated optimal search is degraded even when the compile budget
    // itself survived: the schedule is the greedy seed or better but not
    // certified, so it must not be cached (`cacheable: !degraded`).
    let truncated_search = schedule.search.as_ref().is_some_and(|s| s.truncated);
    PlaceOut {
        schedule: Arc::new(schedule),
        degraded: budget.exhausted() || truncated_search,
    }
}

// ---------------------------------------------------------------------------
// Outcomes
// ---------------------------------------------------------------------------

/// Successful per-routine artifacts, with the memo-hit flags of each
/// stage (all `false` on the cold path).
#[derive(Debug, Clone)]
pub struct RoutineArtifacts {
    /// The lowered program.
    pub prog: Arc<IrProgram>,
    /// The placed schedule.
    pub schedule: Arc<Schedule>,
    /// True when placement exhausted its budget (never cached).
    pub degraded: bool,
    /// Memo-hit flags: `(parse, lower, place)`.
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

impl ModuleOutcome {
    /// True when every routine compiled.
    pub fn all_ok(&self) -> bool {
        self.routines.iter().all(|r| r.result.is_ok())
    }

    /// True when any routine's placement was degraded.
    pub fn any_degraded(&self) -> bool {
        self.routines
            .iter()
            .any(|r| matches!(&r.result, Ok(a) if a.degraded))
    }
}

fn outcome_of(
    chunk: &RoutineChunk,
    parse: ParseOut,
    lower: Option<LowerOut>,
    place: Option<PlaceOut>,
    hits: (bool, bool, bool),
) -> RoutineOutcome {
    let (name, result) = match (parse, lower, place) {
        (Err(errs), _, _) => (chunk.name.to_string(), Err(errs)),
        (Ok(_), Some(Err(errs)), _) => (chunk.name.to_string(), Err(errs)),
        (Ok(_), Some(Ok((prog, _))), Some(placed)) => (
            prog.name.clone(),
            Ok(RoutineArtifacts {
                prog,
                schedule: placed.schedule,
                degraded: placed.degraded,
                hits,
            }),
        ),
        _ => unreachable!("stage chain never skips a middle stage"),
    };
    RoutineOutcome {
        name,
        line_offset: chunk.line_offset,
        result,
    }
}

/// The place-stage memo key for a given IR under a strategy and budget.
fn place_key(ir_fp: u64, strategy: Strategy, spec: &BudgetSpec) -> u64 {
    Fingerprinter::of(&(ir_fp, strategy, spec))
}

// ---------------------------------------------------------------------------
// Cold path
// ---------------------------------------------------------------------------

/// Compiles every routine of `src` from scratch — the identical stage
/// functions as the incremental path, with no memoization. This is the
/// reference the differential tests compare against.
pub fn compile_module_cold(src: &str, strategy: Strategy, spec: &BudgetSpec) -> ModuleOutcome {
    let routines = split_routines(src)
        .iter()
        .map(|chunk| {
            let parse = run_parse(chunk.src);
            let lower = match &parse {
                Ok((ast, _)) => Some(run_lower(ast)),
                Err(_) => None,
            };
            let place = match &lower {
                Some(Ok((prog, _))) => Some(run_place(prog, strategy, spec)),
                _ => None,
            };
            outcome_of(chunk, parse, lower, place, (false, false, false))
        })
        .collect();
    ModuleOutcome { routines }
}

// ---------------------------------------------------------------------------
// Incremental path
// ---------------------------------------------------------------------------

/// Rough heap-footprint estimate for a memoized artifact, charged
/// against the engine's byte cap.
fn artifact_bytes(src_len: usize, factor: u64) -> u64 {
    (src_len as u64).saturating_mul(factor).max(256)
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

    /// The underlying engine (for stats, probes, and the serve routine memo).
    pub fn engine(&self) -> &QueryEngine {
        &self.engine
    }

    /// Compiles `src` incrementally: chunks whose fingerprints match a
    /// previous compile reuse every downstream artifact; changed chunks
    /// recompute only until an output fingerprint matches again (early
    /// cutoff). Output artifacts are identical to
    /// [`compile_module_cold`]'s — only the work to produce them
    /// differs.
    pub fn compile_module(
        &self,
        src: &str,
        strategy: Strategy,
        spec: &BudgetSpec,
    ) -> ModuleOutcome {
        let routines = split_routines(src)
            .iter()
            .map(|chunk| {
                self.engine
                    .note_input(fingerprint(chunk.name.as_bytes()), chunk.fp);
                self.compile_routine(chunk, strategy, spec)
            })
            .collect();
        ModuleOutcome { routines }
    }

    /// Compiles one chunk through the pass-level memos. Callers that
    /// track module membership (as [`IncrCompiler::compile_module`]
    /// does) should `note_input` the chunk themselves.
    pub fn compile_routine(
        &self,
        chunk: &RoutineChunk,
        strategy: Strategy,
        spec: &BudgetSpec,
    ) -> RoutineOutcome {
        let src_len = chunk.src.len();
        let (parse, parse_hit) = self.engine.memo("query.parse", chunk.fp, || Computed {
            value: run_parse(chunk.src),
            bytes: artifact_bytes(src_len, 8),
            cacheable: true,
        });

        let Ok((ast, ast_fp)) = &*parse else {
            return outcome_of(
                chunk,
                (*parse).clone(),
                None,
                None,
                (parse_hit, false, false),
            );
        };

        let (lower, lower_hit) = self.engine.memo("query.lower", *ast_fp, || Computed {
            value: run_lower(ast),
            bytes: artifact_bytes(src_len, 10),
            cacheable: true,
        });
        if !parse_hit && lower_hit {
            // Parse recomputed but produced a fingerprint-identical AST:
            // the edit was invisible past the frontend.
            self.engine.count_cutoff(1);
        }

        let Ok((prog, ir_fp)) = &*lower else {
            return outcome_of(
                chunk,
                (*parse).clone(),
                Some((*lower).clone()),
                None,
                (parse_hit, lower_hit, false),
            );
        };

        let key = place_key(*ir_fp, strategy, spec);
        let (placed, place_hit) = self.engine.memo("query.place", key, || {
            let out = run_place(prog, strategy, spec);
            Computed {
                bytes: artifact_bytes(src_len, 12),
                // Degraded schedules depend on how far the budget
                // stretched, not just the key: never cache them.
                cacheable: !out.degraded,
                value: out,
            }
        });
        if !lower_hit && place_hit {
            self.engine.count_cutoff(1);
        }

        let placed = PlaceOut {
            schedule: placed.schedule.clone(),
            degraded: placed.degraded,
        };
        outcome_of(
            chunk,
            (*parse).clone(),
            Some((*lower).clone()),
            Some(placed),
            (parse_hit, lower_hit, place_hit),
        )
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
        assert!(a2.hits.0 && a2.hits.1, "frontend stages still hit");
    }
}
