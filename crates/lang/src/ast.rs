//! Abstract syntax tree for the mini-HPF language.
//!
//! Names are kept as (lowercased) text at this level — one shared [`Name`]
//! per distinct identifier of a parse; the IR crate resolves them to dense
//! ids. All nodes implement `Debug`, `Clone`, and `PartialEq` so tests can
//! compare trees structurally, and `Hash` so the incremental engine can
//! fingerprint a tree without rendering it. A right-hand side or branch
//! condition sits behind an `Arc` so the IR shares it instead of copying
//! it; `Arc` prints, compares and hashes as its content, so neither the
//! `Debug` text nor a fingerprint can tell.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// An identifier's (lowercased) text, shared: the parser hands out one
/// allocation per distinct name per parse, and `clone` bumps its count.
///
/// Transparent to everything that looks at it — `Debug`, `Display`, `Hash`
/// and `Ord` are those of the `str`, so a tree of `Name`s prints and
/// fingerprints exactly like the tree of `String`s it replaced. `==` tries
/// the pointer first and falls back to the bytes: two `Name`s built
/// separately (a hand-built AST, a transform's fresh loop variable) are
/// equal whenever their text is.
#[derive(Clone, Default)]
pub struct Name(Arc<str>);

impl Name {
    /// The text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Deref for Name {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Self {
        Name(s.into())
    }
}

impl From<String> for Name {
    fn from(s: String) -> Self {
        Name(s.into())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl Eq for Name {}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        *self.0 == *other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        *self.0 == **other
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        *self.0 == **other
    }
}

/// A complete program: size parameters, array declarations, and a statement
/// body.
#[derive(Debug, Clone, PartialEq, Hash, Default)]
pub struct Program {
    /// Program name from the `program` header.
    pub name: Name,
    /// Symbolic size parameters (e.g. `n`, `nx`), in declaration order.
    pub params: Vec<Name>,
    /// Array (and scalar, rank-0) declarations.
    pub arrays: Vec<ArrayDecl>,
    /// Top-level statements.
    pub body: Vec<Stmt>,
}

impl Program {
    /// Looks up an array declaration by name.
    pub fn array(&self, name: &str) -> Option<&ArrayDecl> {
        self.arrays.iter().find(|a| a.name == name)
    }

    /// Total number of statements, counting nested loop and branch bodies.
    pub fn stmt_count(&self) -> usize {
        fn count(stmts: &[Stmt]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    Stmt::Assign(_) => 1,
                    Stmt::Do(d) => 1 + count(&d.body),
                    Stmt::If(i) => 1 + count(&i.then_body) + count(&i.else_body),
                })
                .sum()
        }
        count(&self.body)
    }
}

/// Declaration of an array (or scalar when `dims` is empty), with its HPF
/// distribution directive.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct ArrayDecl {
    /// Array name (lowercase).
    pub name: Name,
    /// Per-dimension bounds; empty for scalars.
    pub dims: Vec<DeclDim>,
    /// Per-dimension distribution; empty means fully replicated (scalars,
    /// or arrays without a `distribute` clause).
    pub dist: Vec<Dist>,
    /// Per-dimension alignment offsets onto the shared template (HPF
    /// `ALIGN` with constant offsets; empty means zero offsets).
    pub align: Vec<i64>,
}

impl ArrayDecl {
    /// Rank of the array (0 for scalars).
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// True if no dimension is distributed (replicated data).
    pub fn is_replicated(&self) -> bool {
        self.dist.iter().all(|d| *d == Dist::Collapsed) || self.dist.is_empty()
    }
}

/// Declared bounds of one array dimension: `lo : hi` (Fortran-style,
/// inclusive). A bare extent `n` means `1 : n`.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct DeclDim {
    /// Inclusive lower bound.
    pub lo: Expr,
    /// Inclusive upper bound.
    pub hi: Expr,
}

impl DeclDim {
    /// Builds the Fortran-default dimension `1:hi`.
    pub fn extent(hi: Expr) -> Self {
        DeclDim {
            lo: Expr::Int(1),
            hi,
        }
    }
}

/// HPF distribution format for one dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dist {
    /// `BLOCK`: contiguous chunks, one per processor along this grid axis.
    Block,
    /// `CYCLIC`: round-robin assignment of indices to processors.
    Cyclic,
    /// `*`: dimension collapsed (not distributed).
    Collapsed,
}

/// A statement.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Stmt {
    /// Array-section or scalar assignment.
    Assign(Assign),
    /// Counted `do` loop.
    Do(DoLoop),
    /// Two-armed conditional.
    If(IfStmt),
}

/// An assignment `lhs = rhs`. The left-hand side is an array reference
/// (possibly with section subscripts) or a scalar (empty subscripts).
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Assign {
    /// Destination reference.
    pub lhs: ArrayRef,
    /// Source expression (shared with the lowered `StmtKind::Assign`).
    pub rhs: Arc<Expr>,
    /// 1-based source line (0 when synthesized).
    pub line: u32,
}

/// A counted loop `do var = lo, hi[, step] ... enddo`. `step` is a compile-
/// time integer (the analyses need a known sign).
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct DoLoop {
    /// Loop index variable name.
    pub var: Name,
    /// Lower bound expression.
    pub lo: Expr,
    /// Upper bound expression (inclusive).
    pub hi: Expr,
    /// Constant step (non-zero).
    pub step: i64,
    /// Loop body.
    pub body: Vec<Stmt>,
}

/// A conditional `if (cond) then ... [else ...] endif`.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct IfStmt {
    /// Branch condition (shared with the lowered `branch_conds`).
    pub cond: Arc<Expr>,
    /// Statements of the `then` arm.
    pub then_body: Vec<Stmt>,
    /// Statements of the `else` arm (possibly empty).
    pub else_body: Vec<Stmt>,
}

/// A reference to an array (or scalar) with subscripts.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct ArrayRef {
    /// Referenced array name.
    pub array: Name,
    /// One subscript per dimension; empty for scalars or whole-array refs
    /// written without parentheses.
    pub subs: Vec<Subscript>,
}

impl ArrayRef {
    /// Builds a whole-array (or scalar) reference.
    pub fn whole(array: impl Into<Name>) -> Self {
        ArrayRef {
            array: array.into(),
            subs: Vec::new(),
        }
    }
}

/// One subscript position: either a single index expression or an `lo:hi:step`
/// section (triplet). `None` bounds mean "declared bound".
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Subscript {
    /// Single element index.
    Index(Expr),
    /// Regular section `lo : hi : step`.
    Range {
        /// Lower bound, `None` = declared lower bound.
        lo: Option<Expr>,
        /// Upper bound, `None` = declared upper bound.
        hi: Option<Expr>,
        /// Constant stride (non-zero).
        step: i64,
    },
}

impl Subscript {
    /// The full-dimension section `:`.
    pub fn full() -> Self {
        Subscript::Range {
            lo: None,
            hi: None,
            step: 1,
        }
    }
}

/// Binary operators. Comparisons are only legal in `if` conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `/=`
    Ne,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Floating literal.
    Num(f64),
    /// Reference to a parameter, loop variable, or scalar/array. The parser
    /// cannot always distinguish these; the validator and IR resolve them.
    Ref(ArrayRef),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Unary negation.
    Neg(Box<Expr>),
    /// `sum(section)` global reduction.
    Sum(ArrayRef),
}

/// Hand-written for one arm: `f64` has no `Hash`, so `Num` hashes its bit
/// pattern — `0.0` and `-0.0` hash apart, as their `Debug` text differs.
/// Everything else is what `#[derive(Hash)]` would emit.
impl Hash for Expr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Expr::Int(v) => v.hash(state),
            Expr::Num(v) => v.to_bits().hash(state),
            Expr::Ref(r) | Expr::Sum(r) => r.hash(state),
            Expr::Bin(op, a, b) => (op, a, b).hash(state),
            Expr::Neg(a) => a.hash(state),
        }
    }
}

impl Expr {
    /// Convenience constructor for a bare name reference.
    pub fn name(n: impl Into<Name>) -> Self {
        Expr::Ref(ArrayRef::whole(n))
    }

    /// Calls `f` on every [`ArrayRef`] in this expression, including those
    /// inside `sum(...)`, in left-to-right order.
    pub fn for_each_ref<'a>(&'a self, f: &mut impl FnMut(&'a ArrayRef, bool)) {
        match self {
            Expr::Int(_) | Expr::Num(_) => {}
            Expr::Ref(r) => f(r, false),
            Expr::Bin(_, a, b) => {
                a.for_each_ref(f);
                b.for_each_ref(f);
            }
            Expr::Neg(a) => a.for_each_ref(f),
            Expr::Sum(r) => f(r, true),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stmt_count_recurses() {
        let inner = Stmt::Assign(Assign {
            lhs: ArrayRef::whole("a"),
            rhs: Expr::Int(1).into(),
            line: 0,
        });
        let prog = Program {
            name: "t".into(),
            params: vec![],
            arrays: vec![],
            body: vec![Stmt::Do(DoLoop {
                var: "i".into(),
                lo: Expr::Int(1),
                hi: Expr::Int(10),
                step: 1,
                body: vec![inner.clone(), inner],
            })],
        };
        assert_eq!(prog.stmt_count(), 3);
    }

    #[test]
    fn for_each_ref_visits_sum() {
        let e = Expr::Bin(
            BinOp::Add,
            Box::new(Expr::name("a")),
            Box::new(Expr::Sum(ArrayRef::whole("b"))),
        );
        let mut seen = Vec::new();
        e.for_each_ref(&mut |r, in_sum| seen.push((r.array.clone(), in_sum)));
        assert_eq!(seen, vec![("a".into(), false), ("b".into(), true)]);
    }

    #[test]
    fn replicated_detection() {
        let d = ArrayDecl {
            name: "s".into(),
            dims: vec![],
            dist: vec![],
            align: vec![],
        };
        assert!(d.is_replicated());
        let d2 = ArrayDecl {
            name: "a".into(),
            dims: vec![DeclDim::extent(Expr::name("n"))],
            dist: vec![Dist::Block],
            align: vec![],
        };
        assert!(!d2.is_replicated());
    }
}
