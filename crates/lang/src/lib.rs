//! # gcomm-lang — a mini-HPF frontend
//!
//! This crate implements the source language consumed by the `gcomm`
//! communication optimizer: a small, Fortran-90/HPF-flavoured data-parallel
//! language with
//!
//! * `real` array declarations with per-dimension bounds,
//! * HPF `distribute (block, cyclic, *)` directives,
//! * symbolic size parameters (`param n, nx`),
//! * F90 array-section assignments (`c(2:n) = a(1:n-1) + b(1:n-1)`),
//! * `do` loops, `if`/`else`, and `sum(...)` reductions.
//!
//! The language is deliberately small but expresses every construct used by
//! the motivating codes and benchmarks of *Global Communication Analysis and
//! Optimization* (Chakrabarti, Gupta, Choi; PLDI 1996): nearest-neighbour
//! shift patterns, global reductions, loop nests, and control flow.
//!
//! # Example
//!
//! ```
//! use gcomm_lang::parse_program;
//!
//! let src = r#"
//! program saxpy
//!   param n
//!   real a(n), b(n), c(n) distribute (block)
//!   c(2:n) = a(1:n-1) + b(1:n-1)
//! end
//! "#;
//! let prog = parse_program(src)?;
//! assert_eq!(prog.name, "saxpy");
//! assert_eq!(prog.arrays.len(), 3);
//! # Ok::<(), gcomm_lang::LangError>(())
//! ```

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod token;
pub mod transform;
pub mod validate;

pub use ast::{
    ArrayDecl, ArrayRef, Assign, BinOp, DeclDim, Dist, DoLoop, Expr, IfStmt, Name, Program, Stmt,
    Subscript,
};
pub use error::LangError;
pub use parser::Parser;
pub use transform::{fuse_loops, scalarize};

/// Parses a complete mini-HPF program from source text and validates it.
///
/// This is the main entry point of the crate: it lexes, parses, and runs the
/// semantic validator (declared names, ranks, distribution arity).
///
/// # Errors
///
/// Returns [`LangError`] describing the first lexical, syntactic, or semantic
/// problem encountered, with a line number where available.
pub fn parse_program(src: &str) -> Result<Program, LangError> {
    let _t = gcomm_obs::time("lang.parse");
    let mut parser = Parser::new(src)?;
    gcomm_obs::count("lang.tokens", parser.token_count() as u64);
    let prog = parser.parse_program().inspect_err(|_| {
        gcomm_obs::count("lang.parse_errors", 1);
    })?;
    gcomm_obs::count("lang.stmts", prog.stmt_count() as u64);
    validate::validate_at(&prog, parser.block_lines())?;
    Ok(prog)
}

/// Parses a program, recovering at statement boundaries to collect every
/// independent syntax error instead of stopping at the first one. A clean
/// parse is then validated (declared names, ranks, distribution arity).
///
/// # Errors
///
/// Returns all diagnostics found, each with a line number where available.
pub fn parse_program_diagnostics(src: &str) -> Result<Program, Vec<LangError>> {
    let _t = gcomm_obs::time("lang.parse");
    let mut parser = match Parser::new(src) {
        Ok(p) => p,
        Err(e) => {
            gcomm_obs::count("lang.parse_errors", 1);
            return Err(vec![e]);
        }
    };
    gcomm_obs::count("lang.tokens", parser.token_count() as u64);
    let (prog, mut errs) = parser.parse_program_recovering();
    gcomm_obs::count("lang.stmts", prog.stmt_count() as u64);
    gcomm_obs::count("lang.parse_errors", errs.len() as u64);
    if errs.is_empty() {
        if let Err(e) = validate::validate_at(&prog, parser.block_lines()) {
            errs.push(e);
        }
    }
    if errs.is_empty() {
        Ok(prog)
    } else {
        Err(errs)
    }
}
