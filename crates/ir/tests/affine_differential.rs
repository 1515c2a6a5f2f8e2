//! Differential test of the inline-terms [`Affine`] against the
//! `Vec` + `BTreeMap` implementation it replaced, kept here verbatim as the
//! reference: seeded random operation sequences over six distinct
//! variables — enough to run the heap-spill path, which no kernel or
//! corpus program reaches — must leave both with identical `terms()`,
//! equality, `Fingerprinter::of` (program fingerprints are persisted and
//! replicated, so the hash must not move), `{:?}` and `{}`.

use gcomm_ir::{Affine, LoopId, ParamId, Var};
use gcomm_query::Fingerprinter;
use proptest::test_runner::TestRng;

/// The implementation `crates/ir/src/affine.rs` had before the inline
/// representation (only the imports and the shared `Var` differ).
mod reference {
    use std::collections::BTreeMap;
    use std::fmt;

    use gcomm_ir::{LoopId, Var};

    /// An affine expression: constant plus a sum of integer-scaled variables.
    ///
    /// The representation is canonical: terms are sorted by variable and no term
    /// has a zero coefficient, so `PartialEq`/`Hash` give semantic equality.
    #[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
    pub struct Affine {
        /// Constant term.
        pub k: i64,
        /// Scaled variables, sorted by `Var`, no zero coefficients.
        terms: Vec<(Var, i64)>,
    }

    impl Affine {
        /// The constant expression `k`.
        pub fn constant(k: i64) -> Self {
            Affine { k, terms: vec![] }
        }

        /// The expression `v` (coefficient 1).
        pub fn var(v: Var) -> Self {
            Affine {
                k: 0,
                terms: vec![(v, 1)],
            }
        }

        /// Builds from a constant and arbitrary (possibly unsorted, duplicated)
        /// terms.
        pub fn new(k: i64, terms: impl IntoIterator<Item = (Var, i64)>) -> Self {
            let mut map: BTreeMap<Var, i64> = BTreeMap::new();
            for (v, c) in terms {
                *map.entry(v).or_insert(0) += c;
            }
            Affine {
                k,
                terms: map.into_iter().filter(|&(_, c)| c != 0).collect(),
            }
        }

        /// The terms, sorted by variable.
        pub fn terms(&self) -> &[(Var, i64)] {
            &self.terms
        }

        /// Coefficient of `v` (0 if absent).
        pub fn coeff(&self, v: Var) -> i64 {
            self.terms
                .iter()
                .find(|&&(tv, _)| tv == v)
                .map_or(0, |&(_, c)| c)
        }

        /// True if the expression is a plain constant.
        pub fn is_const(&self) -> bool {
            self.terms.is_empty()
        }

        /// Returns the constant value if the expression is constant.
        pub fn as_const(&self) -> Option<i64> {
            self.is_const().then_some(self.k)
        }

        /// True if the expression mentions any loop variable.
        pub fn has_loop_vars(&self) -> bool {
            self.terms.iter().any(|(v, _)| matches!(v, Var::Loop(_)))
        }

        /// All loop variables mentioned.
        pub fn loop_vars(&self) -> impl Iterator<Item = LoopId> + '_ {
            self.terms.iter().filter_map(|(v, _)| match v {
                Var::Loop(l) => Some(*l),
                Var::Param(_) => None,
            })
        }

        /// Sum of two expressions.
        pub fn add(&self, other: &Affine) -> Affine {
            Affine::new(
                self.k + other.k,
                self.terms.iter().chain(other.terms.iter()).copied(),
            )
        }

        /// Difference `self - other`.
        pub fn sub(&self, other: &Affine) -> Affine {
            self.add(&other.scale(-1))
        }

        /// Adds a constant.
        pub fn offset(&self, d: i64) -> Affine {
            Affine {
                k: self.k + d,
                terms: self.terms.clone(),
            }
        }

        /// Multiplies by a constant.
        pub fn scale(&self, c: i64) -> Affine {
            if c == 0 {
                return Affine::constant(0);
            }
            Affine {
                k: self.k * c,
                terms: self.terms.iter().map(|&(v, t)| (v, t * c)).collect(),
            }
        }

        /// Substitutes `v := e` and returns the result.
        pub fn subst(&self, v: Var, e: &Affine) -> Affine {
            let c = self.coeff(v);
            if c == 0 {
                return self.clone();
            }
            let rest = Affine::new(
                self.k,
                self.terms.iter().copied().filter(|&(tv, _)| tv != v),
            );
            rest.add(&e.scale(c))
        }

        /// Evaluates with the given variable bindings.
        ///
        /// Returns `None` if some variable is unbound.
        pub fn eval(&self, bind: &dyn Fn(Var) -> Option<i64>) -> Option<i64> {
            let mut acc = self.k;
            for &(v, c) in &self.terms {
                acc += c * bind(v)?;
            }
            Some(acc)
        }

        /// Difference `self - other` if it is a compile-time constant.
        pub fn const_diff(&self, other: &Affine) -> Option<i64> {
            self.sub(other).as_const()
        }

        /// The split `dep::direction` made before `Affine::split_loops`:
        /// both halves rebuilt through `new`.
        pub fn partition(&self, first: impl Fn(Var) -> bool) -> (Affine, Affine) {
            let yes = Affine::new(0, self.terms.iter().copied().filter(|t| first(t.0)));
            let no = Affine::new(self.k, self.terms.iter().copied().filter(|t| !first(t.0)));
            (yes, no)
        }
    }

    impl From<i64> for Affine {
        fn from(k: i64) -> Self {
            Affine::constant(k)
        }
    }

    impl fmt::Display for Affine {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let mut first = true;
            if self.k != 0 || self.terms.is_empty() {
                write!(f, "{}", self.k)?;
                first = false;
            }
            for &(v, c) in &self.terms {
                if first {
                    if c == -1 {
                        write!(f, "-")?;
                    } else if c != 1 {
                        write!(f, "{c}*")?;
                    }
                    first = false;
                } else if c < 0 {
                    write!(f, " - ")?;
                    if c != -1 {
                        write!(f, "{}*", -c)?;
                    }
                } else {
                    write!(f, " + ")?;
                    if c != 1 {
                        write!(f, "{c}*")?;
                    }
                }
                match v {
                    Var::Param(p) => write!(f, "p{}", p.0)?,
                    Var::Loop(l) => write!(f, "i{}", l.0)?,
                }
            }
            Ok(())
        }
    }
}

const VARS: [Var; 6] = [
    Var::Param(ParamId(0)),
    Var::Param(ParamId(1)),
    Var::Param(ParamId(7)),
    Var::Loop(LoopId(0)),
    Var::Loop(LoopId(1)),
    Var::Loop(LoopId(5)),
];

/// The same value in both representations.
#[derive(Clone)]
struct Pair(Affine, reference::Affine);

fn small(rng: &mut TestRng) -> i64 {
    rng.below(9) as i64 - 4
}

/// Unsorted, duplicated, zero-coefficient terms over `VARS`.
fn raw_terms(rng: &mut TestRng) -> Vec<(Var, i64)> {
    (0..rng.below(9))
        .map(|_| (VARS[rng.below(6) as usize], small(rng)))
        .collect()
}

fn fresh(rng: &mut TestRng) -> Pair {
    let (k, t) = (small(rng) * 3, raw_terms(rng));
    Pair(Affine::new(k, t.clone()), reference::Affine::new(k, t))
}

fn assert_same(p: &Pair, what: &str) {
    let Pair(new, old) = p;
    assert_eq!(new.terms(), old.terms(), "{what}: terms");
    assert_eq!(new.k, old.k, "{what}: k");
    assert!(
        new.terms().windows(2).all(|w| w[0].0 < w[1].0),
        "{what}: not strictly sorted: {new:?}"
    );
    assert!(new.terms().iter().all(|t| t.1 != 0), "{what}: zero term");
    assert_eq!(
        Fingerprinter::of(new),
        Fingerprinter::of(old),
        "{what}: fingerprint"
    );
    assert_eq!(format!("{new:?}"), format!("{old:?}"), "{what}: Debug");
    assert_eq!(format!("{new:#?}"), format!("{old:#?}"), "{what}: {{:#?}}");
    assert_eq!(new.to_string(), old.to_string(), "{what}: Display");
    assert_eq!(new.is_const(), old.is_const(), "{what}: is_const");
    assert_eq!(new.as_const(), old.as_const(), "{what}: as_const");
    assert_eq!(new.has_loop_vars(), old.has_loop_vars(), "{what}: loops");
    assert!(new.loop_vars().eq(old.loop_vars()), "{what}: loop_vars");
}

#[test]
fn inline_affine_matches_the_btreemap_reference() {
    let mut spilled = 0u32;
    for seed in 0..400u64 {
        let mut rng = TestRng::new(0xaff1_4e00 + seed);
        let mut pool: Vec<Pair> = (0..4).map(|_| fresh(&mut rng)).collect();
        for step in 0..60 {
            let a = pool[rng.below(pool.len() as u64) as usize].clone();
            let b = pool[rng.below(pool.len() as u64) as usize].clone();
            let v = VARS[rng.below(6) as usize];
            let what = format!("seed {seed} step {step}");
            let out = match rng.below(7) {
                0 => fresh(&mut rng),
                1 => Pair(a.0.add(&b.0), a.1.add(&b.1)),
                2 => Pair(a.0.sub(&b.0), a.1.sub(&b.1)),
                3 => {
                    let c = [0, 1, -1, 2, -3, 1 << 20][rng.below(6) as usize];
                    Pair(a.0.scale(c), a.1.scale(c))
                }
                4 => {
                    let d = small(&mut rng) * 1000;
                    Pair(a.0.offset(d), a.1.offset(d))
                }
                5 => Pair(a.0.subst(v, &b.0), a.1.subst(v, &b.1)),
                _ => {
                    // Queries only: nothing new enters the pool.
                    assert_eq!(a.0.coeff(v), a.1.coeff(v), "{what}: coeff");
                    assert_eq!(
                        a.0.const_diff(&b.0),
                        a.1.const_diff(&b.1),
                        "{what}: const_diff"
                    );
                    let bind = |x: Var| (x != v).then_some(3i64);
                    assert_eq!(a.0.eval(&bind), a.1.eval(&bind), "{what}: eval");
                    assert_eq!(a.0 == b.0, a.1 == b.1, "{what}: ==");
                    continue;
                }
            };
            assert_same(&out, &what);
            spilled += u32::from(out.0.terms().len() > 3);
            // Keep coefficients small enough that no product overflows.
            let tame = out.0.k.abs() < 1 << 20 && out.0.terms().iter().all(|t| t.1.abs() < 1 << 20);
            if tame {
                let slot = rng.below(pool.len() as u64) as usize;
                pool[slot] = out;
            }
        }
    }
    assert!(spilled > 1000, "spill path barely ran: {spilled} results");
}

/// `split_loops` borrows the sorted list where the direction test used to
/// rebuild both halves through `new`: against the reference's rebuild, on
/// inline and spilled inputs.
#[test]
fn split_loops_matches_the_rebuild_through_new() {
    let mut spilled = 0u32;
    for seed in 0..400u64 {
        let mut rng = TestRng::new(0x5917_7000 + seed);
        let (a, b) = (fresh(&mut rng), fresh(&mut rng));
        let x = Pair(a.0.add(&b.0), a.1.add(&b.1));
        let (params, loops) = x.0.split_loops();
        let (ref_loops, ref_rest) = x.1.partition(|v| matches!(v, Var::Loop(_)));
        assert_eq!(loops, ref_loops.terms(), "seed {seed}: loop terms");
        assert_eq!(params, ref_rest.terms(), "seed {seed}: parameter terms");
        assert!(
            params.iter().all(|t| matches!(t.0, Var::Param(_))),
            "seed {seed}"
        );
        assert!(
            loops.iter().all(|t| matches!(t.0, Var::Loop(_))),
            "seed {seed}"
        );
        spilled += u32::from(x.0.terms().len() > 3);
    }
    assert!(spilled > 50, "spill path barely ran: {spilled} inputs");
}

#[test]
fn default_and_constructors_agree() {
    let d = Pair(Affine::default(), reference::Affine::default());
    assert_same(&d, "default");
    let v = Pair(Affine::var(VARS[4]), reference::Affine::var(VARS[4]));
    assert_same(&v, "var");
    let c = Pair(Affine::from(-7), reference::Affine::from(-7));
    assert_same(&c, "from");
}
