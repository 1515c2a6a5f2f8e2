//! Abstract syntax tree for the mini-HPF language, held in an index arena.
//!
//! A program's expressions, array references, subscripts and names live in
//! one [`Arena`] per program and are addressed by `u32` ids: an
//! [`ExprNode`] is 16 bytes whose children are [`ExprId`]s, the subscripts
//! of an [`ArrayRef`] are one run of a flat vector, and a name is a
//! [`NameId`] into a table of one [`Name`] per distinct identifier, so two
//! ids of one arena are the same name exactly when they are equal.
//! Statements, declarations and loops hold ids; the IR shares the arena
//! through the program's one `Arc` instead of copying anything out of it.
//!
//! Names are kept as (lowercased) text at this level; the IR crate
//! resolves them to dense ids. `Debug`, `Hash` and `PartialEq` of a
//! [`Program`] walk its arena ([`Walk`]) and are those the boxed tree this
//! replaced derived: the same text, the same writes to a hasher — so no
//! structural fingerprint moves — and equality by structure, whatever
//! order two arenas' nodes were pushed in.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::mem::discriminant;
use std::ops::Deref;
use std::sync::Arc;

/// An identifier's (lowercased) text: one allocation per distinct name of
/// a parse, held by the arena's table and shared by the IR (`clone` bumps
/// its count). `Debug`, `Display`, `Hash`, `==` and `Ord` are those of the
/// `str`, so a tree of `Name`s prints and fingerprints exactly like the
/// tree of `String`s it replaced.
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
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

/// Index of a name in its [`Arena`]'s table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NameId(pub u32);

/// Index of an expression node in its [`Arena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExprId(pub u32);

/// Index of an array reference in its [`Arena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RefId(pub u32);

/// The expressions, references, subscripts and names of one program.
/// Nodes are only ever pushed; an id stays valid for the arena's life.
#[derive(Debug, Clone, Default)]
pub struct Arena {
    names: Vec<Name>,
    exprs: Vec<ExprNode>,
    refs: Vec<ArrayRef>,
    subs: Vec<Subscript>,
}

impl Arena {
    /// The text of name `id`.
    pub fn name(&self, id: NameId) -> &Name {
        &self.names[id.0 as usize]
    }

    /// Expression node `id`.
    #[inline]
    pub fn expr(&self, id: ExprId) -> ExprNode {
        self.exprs[id.0 as usize]
    }

    /// Array reference `id`.
    #[inline]
    pub fn aref(&self, id: RefId) -> ArrayRef {
        self.refs[id.0 as usize]
    }

    /// The subscripts of `r`, one per dimension (none for a scalar or a
    /// whole-array reference written without parentheses).
    #[inline]
    pub fn subs(&self, r: ArrayRef) -> &[Subscript] {
        &self.subs[r.first as usize..][..r.len as usize]
    }

    /// The id of the name spelled `text`, added to the table if new (a
    /// linear probe: for hand-built and transformed trees; the parser
    /// keeps an index of its own).
    pub fn intern(&mut self, text: &str) -> NameId {
        match self.names.iter().position(|n| *n == text) {
            Some(i) => NameId(i as u32),
            None => self.push_name(Name::from(text)),
        }
    }

    /// Adds a name the table does not have yet.
    pub(crate) fn push_name(&mut self, name: Name) -> NameId {
        self.names.push(name);
        NameId(self.names.len() as u32 - 1)
    }

    /// Adds an expression node.
    #[inline]
    pub fn push(&mut self, e: ExprNode) -> ExprId {
        self.exprs.push(e);
        ExprId(self.exprs.len() as u32 - 1)
    }

    /// Adds a reference to `array` with `subs`.
    pub fn push_ref(&mut self, array: NameId, subs: &[Subscript]) -> RefId {
        let first = self.subs.len() as u32;
        self.subs.extend_from_slice(subs);
        self.refs.push(ArrayRef {
            array,
            first,
            len: subs.len() as u32,
        });
        RefId(self.refs.len() as u32 - 1)
    }

    /// Adds a bare reference to `name`.
    pub fn push_name_ref(&mut self, name: NameId) -> ExprId {
        let r = self.push_ref(name, &[]);
        self.push(ExprNode::Ref(r))
    }

    /// An arena with room for `n` of each part: a parse of `n` tokens
    /// makes at most one expression, reference, subscript and name per
    /// token.
    pub(crate) fn with_capacity(n: usize) -> Self {
        Arena {
            names: Vec::with_capacity(n),
            exprs: Vec::with_capacity(n),
            refs: Vec::with_capacity(n),
            subs: Vec::with_capacity(n),
        }
    }

    /// Drops spare capacity: a parsed arena may live in a memo.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.names.shrink_to_fit();
        self.exprs.shrink_to_fit();
        self.refs.shrink_to_fit();
        self.subs.shrink_to_fit();
    }

    /// Calls `f` on every [`ArrayRef`] of expression `e`, including those
    /// inside `sum(...)` (with `true`), in left-to-right order.
    pub fn for_each_ref(&self, e: ExprId, f: &mut impl FnMut(ArrayRef, bool)) {
        match self.expr(e) {
            ExprNode::Int(_) | ExprNode::Num(_) => {}
            ExprNode::Ref(r) => f(self.aref(r), false),
            ExprNode::Bin(_, a, b) => {
                self.for_each_ref(a, f);
                self.for_each_ref(b, f);
            }
            ExprNode::Neg(a) => self.for_each_ref(a, f),
            ExprNode::Sum(r) => f(self.aref(r), true),
        }
    }
}

/// A complete program: size parameters, array declarations, a statement
/// body, and the arena their ids index.
#[derive(Clone)]
pub struct Program {
    /// Program name from the `program` header.
    pub name: Name,
    /// Symbolic size parameters (e.g. `n`, `nx`), in declaration order.
    pub params: Vec<NameId>,
    /// Array (and scalar, rank-0) declarations.
    pub arrays: Vec<ArrayDecl>,
    /// Top-level statements.
    pub body: Vec<Stmt>,
    /// Every expression, reference, subscript and name of the program.
    pub arena: Arc<Arena>,
}

impl Program {
    /// Looks up an array declaration by name.
    pub fn array(&self, name: &str) -> Option<&ArrayDecl> {
        self.arrays
            .iter()
            .find(|a| *self.arena.name(a.name) == name)
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
#[derive(Debug, Clone)]
pub struct ArrayDecl {
    /// Array name (lowercase).
    pub name: NameId,
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
#[derive(Debug, Clone, Copy)]
pub struct DeclDim {
    /// Inclusive lower bound.
    pub lo: ExprId,
    /// Inclusive upper bound.
    pub hi: ExprId,
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
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone, Copy)]
pub struct Assign {
    /// Destination reference.
    pub lhs: RefId,
    /// Source expression (also the lowered `StmtKind::Assign`'s).
    pub rhs: ExprId,
    /// 1-based source line (0 when synthesized).
    pub line: u32,
}

/// A counted loop `do var = lo, hi[, step] ... enddo`. `step` is a compile-
/// time integer (the analyses need a known sign).
#[derive(Debug, Clone)]
pub struct DoLoop {
    /// Loop index variable name.
    pub var: NameId,
    /// Lower bound expression.
    pub lo: ExprId,
    /// Upper bound expression (inclusive).
    pub hi: ExprId,
    /// Constant step (non-zero).
    pub step: i64,
    /// Loop body.
    pub body: Vec<Stmt>,
}

/// A conditional `if (cond) then ... [else ...] endif`.
#[derive(Debug, Clone)]
pub struct IfStmt {
    /// Branch condition (also the lowered `branch_conds` entry's).
    pub cond: ExprId,
    /// Statements of the `then` arm.
    pub then_body: Vec<Stmt>,
    /// Statements of the `else` arm (possibly empty).
    pub else_body: Vec<Stmt>,
}

/// A reference to an array (or scalar): its name and a run of the arena's
/// subscripts ([`Arena::subs`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayRef {
    /// Referenced array name.
    pub array: NameId,
    first: u32,
    len: u32,
}

/// One subscript position: either a single index expression or an `lo:hi:step`
/// section (triplet). `None` bounds mean "declared bound".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subscript {
    /// Single element index.
    Index(ExprId),
    /// Regular section `lo : hi : step`.
    Range {
        /// Lower bound, `None` = declared lower bound.
        lo: Option<ExprId>,
        /// Upper bound, `None` = declared upper bound.
        hi: Option<ExprId>,
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

/// An expression node. The variants keep the order of the boxed `Expr`
/// they replaced: a node hashes its discriminant as that did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExprNode {
    /// Integer literal.
    Int(i64),
    /// Floating literal.
    Num(f64),
    /// Reference to a parameter, loop variable, or scalar/array. The parser
    /// cannot always distinguish these; the validator and IR resolve them.
    Ref(RefId),
    /// Binary operation.
    Bin(BinOp, ExprId, ExprId),
    /// Unary negation.
    Neg(ExprId),
    /// `sum(section)` global reduction.
    Sum(RefId),
}

/// How a part of a tree held in an [`Arena`] prints and hashes: as the
/// `#[derive]`d impls of the boxed tree it replaced did, reading ids in
/// the arena given. [`In`] turns the two into `Debug`, `Hash` and
/// `PartialEq`.
pub trait Walk {
    /// `Debug`, reading ids in `a`.
    fn fmt_in(&self, a: &Arena, f: &mut fmt::Formatter<'_>) -> fmt::Result;
    /// `Hash`, reading ids in `a`.
    fn hash_in<H: Hasher>(&self, a: &Arena, h: &mut H);
    /// `==`, reading own ids in `a` and `other`'s in `b`: the same writes
    /// to a hasher. Those of a derived `Hash` spell a tree out without
    /// ambiguity — a sequence starts with its length, a string ends in
    /// `0xff`, which UTF-8 never holds — so equal writes are equal trees
    /// (with a float equal to one of the same bits).
    fn eq_in(&self, a: &Arena, other: &Self, b: &Arena) -> bool {
        let writes = |x: &Self, arena| {
            let mut w = Writes(Vec::new());
            x.hash_in(arena, &mut w);
            w.0
        };
        writes(self, a) == writes(other, b)
    }
}

/// Every byte written to it, in order.
struct Writes(Vec<u8>);

impl Hasher for Writes {
    fn write(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }
    fn finish(&self) -> u64 {
        0
    }
}

/// `.1` read in the arena `.0`: prints, hashes and compares as a tree.
#[derive(Clone, Copy)]
pub struct In<'a, T: ?Sized>(pub &'a Arena, pub &'a T);

impl<T: Walk + ?Sized> fmt::Debug for In<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.1.fmt_in(self.0, f)
    }
}

impl<T: Walk + ?Sized> Hash for In<'_, T> {
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.1.hash_in(self.0, h);
    }
}

impl<T: Walk + ?Sized> PartialEq for In<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.1.eq_in(self.0, other.1, other.0)
    }
}

/// [`Walk`] for a struct, field by field in declaration order, or for an
/// enum of tuple variants (hashing its discriminant first): a `walk` field
/// goes through the arena, a `plain` one through its own impls, a `bits`
/// one (an `f64`) hashes its bit pattern.
#[macro_export]
macro_rules! walk_struct {
    ($ty:ident { $($field:ident: $how:ident),* $(,)? }) => {
        impl $crate::ast::Walk for $ty {
            fn fmt_in(
                &self,
                a: &$crate::ast::Arena,
                f: &mut ::std::fmt::Formatter<'_>,
            ) -> ::std::fmt::Result {
                f.debug_struct(stringify!($ty))
                    $(.field(stringify!($field), &$crate::walk_struct!(@$how a, &self.$field)))*
                    .finish()
            }
            fn hash_in<H: ::std::hash::Hasher>(&self, a: &$crate::ast::Arena, h: &mut H) {
                $(::std::hash::Hash::hash(&$crate::walk_struct!(@$how a, &self.$field), h);)*
            }
        }
    };
    ($ty:ident { $($var:ident($($field:ident: $how:ident),*)),* $(,)? }) => {
        impl $crate::ast::Walk for $ty {
            fn fmt_in(
                &self,
                a: &$crate::ast::Arena,
                f: &mut ::std::fmt::Formatter<'_>,
            ) -> ::std::fmt::Result {
                match self {
                    $($ty::$var($($field),*) => f.debug_tuple(stringify!($var))
                        $(.field(&$crate::walk_struct!(@$how a, $field)))*
                        .finish(),)*
                }
            }
            fn hash_in<H: ::std::hash::Hasher>(&self, a: &$crate::ast::Arena, h: &mut H) {
                ::std::hash::Hash::hash(&::std::mem::discriminant(self), h);
                match self {
                    $($ty::$var($($field),*) => {
                        $(::std::hash::Hash::hash(&$crate::walk_struct!(@$how a, $field), h);)*
                    })*
                }
            }
        }
    };
    (@walk $a:expr, $x:expr) => { $crate::ast::In($a, $x) };
    (@plain $a:expr, $x:expr) => { $x };
    (@bits $a:expr, $x:expr) => { $crate::ast::Bits(*$x) };
}

/// An `f64` that prints as itself and hashes its bit pattern: `0.0` and
/// `-0.0` hash apart, as their `Debug` text differs.
pub(crate) struct Bits(pub(crate) f64);

impl fmt::Debug for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0, f)
    }
}

impl Hash for Bits {
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.0.to_bits().hash(h);
    }
}

walk_struct! { Program { name: plain, params: walk, arrays: walk, body: walk } }
walk_struct! { ArrayDecl { name: walk, dims: walk, dist: plain, align: plain } }
walk_struct! { DeclDim { lo: walk, hi: walk } }
walk_struct! { Assign { lhs: walk, rhs: walk, line: plain } }
walk_struct! { DoLoop { var: walk, lo: walk, hi: walk, step: plain, body: walk } }
walk_struct! { IfStmt { cond: walk, then_body: walk, else_body: walk } }
walk_struct! { Stmt { Assign(s: walk), Do(s: walk), If(s: walk) } }
walk_struct! { ExprNode {
    Int(v: plain), Num(v: bits), Ref(r: walk), Bin(op: plain, x: walk, y: walk), Neg(x: walk),
    Sum(r: walk),
} }

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        In(&self.arena, self).fmt(f)
    }
}

impl Hash for Program {
    fn hash<H: Hasher>(&self, h: &mut H) {
        In(&self.arena, self).hash(h);
    }
}

impl PartialEq for Program {
    fn eq(&self, other: &Program) -> bool {
        In(&self.arena, self) == In(&other.arena, other)
    }
}

impl<T: Walk> Walk for [T] {
    fn fmt_in(&self, a: &Arena, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.iter().map(|x| In(a, x)))
            .finish()
    }
    fn hash_in<H: Hasher>(&self, a: &Arena, h: &mut H) {
        h.write_usize(self.len());
        self.iter().for_each(|x| x.hash_in(a, h));
    }
}

impl<T: Walk> Walk for Vec<T> {
    fn fmt_in(&self, a: &Arena, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self[..].fmt_in(a, f)
    }
    fn hash_in<H: Hasher>(&self, a: &Arena, h: &mut H) {
        self[..].hash_in(a, h);
    }
}

impl<T: Walk> Walk for Option<T> {
    fn fmt_in(&self, a: &Arena, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            None => f.write_str("None"),
            Some(x) => f.debug_tuple("Some").field(&In(a, x)).finish(),
        }
    }
    fn hash_in<H: Hasher>(&self, a: &Arena, h: &mut H) {
        discriminant(self).hash(h);
        if let Some(x) = self {
            x.hash_in(a, h);
        }
    }
}

/// A name prints and hashes as its text.
impl Walk for NameId {
    fn fmt_in(&self, a: &Arena, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(a.name(*self), f)
    }
    fn hash_in<H: Hasher>(&self, a: &Arena, h: &mut H) {
        a.name(*self).hash(h);
    }
}

/// As the boxed tree's `Expr`.
impl Walk for ExprId {
    fn fmt_in(&self, a: &Arena, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        a.expr(*self).fmt_in(a, f)
    }
    fn hash_in<H: Hasher>(&self, a: &Arena, h: &mut H) {
        a.expr(*self).hash_in(a, h);
    }
}

/// As the boxed tree's `ArrayRef { array, subs }`.
impl Walk for RefId {
    fn fmt_in(&self, a: &Arena, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = a.aref(*self);
        f.debug_struct("ArrayRef")
            .field("array", &In(a, &r.array))
            .field("subs", &In(a, a.subs(r)))
            .finish()
    }
    fn hash_in<H: Hasher>(&self, a: &Arena, h: &mut H) {
        let r = a.aref(*self);
        r.array.hash_in(a, h);
        a.subs(r).hash_in(a, h);
    }
}

impl Walk for Subscript {
    fn fmt_in(&self, a: &Arena, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Subscript::Index(e) => f.debug_tuple("Index").field(&In(a, e)).finish(),
            Subscript::Range { lo, hi, step } => f
                .debug_struct("Range")
                .field("lo", &In(a, lo))
                .field("hi", &In(a, hi))
                .field("step", step)
                .finish(),
        }
    }
    fn hash_in<H: Hasher>(&self, a: &Arena, h: &mut H) {
        discriminant(self).hash(h);
        match self {
            Subscript::Index(e) => e.hash_in(a, h),
            Subscript::Range { lo, hi, step } => {
                (In(a, lo), In(a, hi), step).hash(h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stmt_count_recurses() {
        let mut arena = Arena::default();
        let inner = Stmt::Assign(Assign {
            lhs: RefId(0),
            rhs: ExprId(0),
            line: 0,
        });
        let prog = Program {
            name: "t".into(),
            params: vec![],
            arrays: vec![],
            body: vec![Stmt::Do(DoLoop {
                var: arena.intern("i"),
                lo: ExprId(0),
                hi: ExprId(0),
                step: 1,
                body: vec![inner.clone(), inner],
            })],
            arena: Arc::new(arena),
        };
        assert_eq!(prog.stmt_count(), 3);
    }

    #[test]
    fn for_each_ref_visits_sum() {
        let mut arena = Arena::default();
        let a = arena.intern("a");
        let a = arena.push_name_ref(a);
        let b = arena.intern("b");
        let b = arena.push_ref(b, &[]);
        let b = arena.push(ExprNode::Sum(b));
        let e = arena.push(ExprNode::Bin(BinOp::Add, a, b));
        let mut seen = Vec::new();
        arena.for_each_ref(e, &mut |r, in_sum| {
            seen.push((arena.name(r.array).to_string(), in_sum))
        });
        assert_eq!(seen, [("a".into(), false), ("b".into(), true)]);
    }

    #[test]
    fn replicated_detection() {
        let d = ArrayDecl {
            name: NameId(0),
            dims: vec![],
            dist: vec![],
            align: vec![],
        };
        assert!(d.is_replicated());
        let d2 = ArrayDecl {
            dims: vec![DeclDim {
                lo: ExprId(0),
                hi: ExprId(1),
            }],
            dist: vec![Dist::Block],
            ..d
        };
        assert!(!d2.is_replicated());
    }

    /// Equal names share an id; structure, not ids, decides `==`.
    #[test]
    fn interning_and_structural_equality() {
        let mut a = Arena::default();
        assert_eq!(a.intern("n"), a.intern("n"));
        let one = a.push(ExprNode::Int(1));
        let n = a.intern("n");
        let n = a.push_name_ref(n);
        let sum = a.push(ExprNode::Bin(BinOp::Add, one, n));
        let mut b = Arena::default();
        let n2 = b.intern("n");
        let n2 = b.push_name_ref(n2);
        let one2 = b.push(ExprNode::Int(1));
        let sum2 = b.push(ExprNode::Bin(BinOp::Add, one2, n2));
        assert!(In(&a, &sum) == In(&b, &sum2));
        assert!(In(&a, &one) != In(&b, &n2));
        assert_eq!(
            format!("{:?}", In(&a, &sum)),
            format!("{:?}", In(&b, &sum2))
        );
    }
}
