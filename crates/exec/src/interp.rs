//! Sequential reference interpreter over the IR control-flow graph.
//!
//! Semantics follow Fortran 90: array-section assignments evaluate the
//! entire right-hand side before storing, counted `do` loops evaluate their
//! bounds on entry (zero-trip when empty), and `sum(...)` reduces a whole
//! section. Every array element carries a **version counter** (bumped on
//! each write) so that monitors — notably the distributed-schedule verifier
//! — can reason about data freshness without tracking values.

use std::collections::HashMap;
use std::fmt;

use gcomm_ir::{
    AccessRef, Affine, ArrayId, IrProgram, LoopId, NodeId, NodeKind, Pos, StmtId, StmtKind,
    SubscriptIr, Var,
};
use gcomm_lang::{ArrayRef, BinOp, Expr, Name, Subscript};

/// An error raised during execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    /// Description of the failure.
    pub message: String,
}

impl ExecError {
    fn new(m: impl Into<String>) -> Self {
        ExecError { message: m.into() }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ExecError {}

/// Concrete storage for one array: values plus per-element versions.
#[derive(Debug, Clone)]
pub struct ArrayData {
    /// Per-dimension inclusive lower bounds.
    pub lo: Vec<i64>,
    /// Per-dimension extents.
    pub extents: Vec<i64>,
    /// Row-major values (single cell for scalars).
    pub vals: Vec<f64>,
    /// Write-version per element (0 = never written).
    pub vers: Vec<u64>,
}

impl ArrayData {
    /// Flattens a multi-index; `None` when out of bounds.
    pub fn flat(&self, idx: &[i64]) -> Option<usize> {
        if idx.len() != self.lo.len() {
            return None;
        }
        let mut acc: usize = 0;
        #[allow(clippy::needless_range_loop)]
        for d in 0..idx.len() {
            let off = idx[d] - self.lo[d];
            if off < 0 || off >= self.extents[d] {
                return None;
            }
            acc = acc * self.extents[d] as usize + off as usize;
        }
        Some(acc)
    }
}

/// Mutable execution state, visible to monitors.
#[derive(Debug, Clone)]
pub struct State {
    /// Storage per array (indexed by `ArrayId`).
    pub arrays: Vec<ArrayData>,
    /// Current loop-variable values by loop id.
    pub loop_vals: HashMap<LoopId, i64>,
    /// Parameter values by name.
    pub params: HashMap<String, i64>,
}

impl State {
    /// Evaluates an affine expression against parameters and live loops.
    pub fn eval_affine(&self, prog: &IrProgram, e: &Affine) -> Option<i64> {
        e.eval(&|v| match v {
            Var::Param(p) => self
                .params
                .get(prog.params.get(p.0 as usize)?.as_str())
                .copied(),
            Var::Loop(l) => self.loop_vals.get(&l).copied(),
        })
    }

    /// Enumerates the concrete elements of an IR access at the current
    /// loop bindings: returns (multi-indices, per-dimension range shape).
    pub fn enumerate_access(
        &self,
        prog: &IrProgram,
        acc: &AccessRef,
    ) -> Result<Vec<Vec<i64>>, ExecError> {
        let mut dims: Vec<Vec<i64>> = Vec::with_capacity(acc.subs.len());
        for s in &acc.subs {
            match s {
                SubscriptIr::Elem(e) => {
                    let v = self
                        .eval_affine(prog, e)
                        .ok_or_else(|| ExecError::new("unbound variable in subscript"))?;
                    dims.push(vec![v]);
                }
                SubscriptIr::Range { lo, hi, step } => {
                    let lo = self
                        .eval_affine(prog, lo)
                        .ok_or_else(|| ExecError::new("unbound variable in section bound"))?;
                    let hi = self
                        .eval_affine(prog, hi)
                        .ok_or_else(|| ExecError::new("unbound variable in section bound"))?;
                    let mut v = Vec::new();
                    let mut i = lo;
                    while (*step > 0 && i <= hi) || (*step < 0 && i >= hi) {
                        v.push(i);
                        i += step;
                    }
                    dims.push(v);
                }
                SubscriptIr::NonAffine => {
                    return Err(ExecError::new("non-affine subscript in execution"));
                }
            }
        }
        // Cartesian product, row-major.
        let mut out: Vec<Vec<i64>> = vec![Vec::new()];
        for d in &dims {
            let mut next = Vec::with_capacity(out.len() * d.len());
            for pre in &out {
                for &x in d {
                    let mut e = pre.clone();
                    e.push(x);
                    next.push(e);
                }
            }
            out = next;
        }
        Ok(out)
    }
}

/// Observer of execution events (the schedule verifier implements this).
pub trait Monitor {
    /// Called at every program position, *before* the statement at that
    /// slot executes (top-of-node positions included).
    fn at_pos(&mut self, prog: &IrProgram, st: &State, pos: Pos) -> Result<(), ExecError>;

    /// Called immediately before a statement executes (after `at_pos` for
    /// its slot).
    fn before_stmt(&mut self, prog: &IrProgram, st: &State, stmt: StmtId) -> Result<(), ExecError>;
}

/// A monitor that does nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoMonitor;

impl Monitor for NoMonitor {
    fn at_pos(&mut self, _: &IrProgram, _: &State, _: Pos) -> Result<(), ExecError> {
        Ok(())
    }
    fn before_stmt(&mut self, _: &IrProgram, _: &State, _: StmtId) -> Result<(), ExecError> {
        Ok(())
    }
}

/// Final state of a completed run.
#[derive(Debug, Clone)]
pub struct FinalState {
    /// The execution state at program exit.
    pub state: State,
}

impl FinalState {
    /// Reads one element of a named array.
    pub fn value(&self, prog: &IrProgram, name: &str, idx: &[i64]) -> Option<f64> {
        let a = prog.array_by_name(name)?;
        let data = &self.state.arrays[a.0 as usize];
        data.flat(idx).map(|f| data.vals[f])
    }

    /// Reads a scalar.
    pub fn scalar(&self, prog: &IrProgram, name: &str) -> Option<f64> {
        self.value(prog, name, &[])
    }
}

/// The interpreter.
pub struct Interp<'a> {
    prog: &'a IrProgram,
    st: State,
    names: HashMap<Name, ArrayId>,
    fuel: u64,
}

/// Runs a program to completion with no monitor.
///
/// # Errors
///
/// Returns [`ExecError`] on unbound parameters, out-of-bounds accesses,
/// non-affine subscripts, or fuel exhaustion.
pub fn interpret(prog: &IrProgram, params: &HashMap<String, i64>) -> Result<FinalState, ExecError> {
    let mut it = Interp::new(prog, params)?;
    it.run(&mut NoMonitor)?;
    Ok(FinalState { state: it.st })
}

impl<'a> Interp<'a> {
    /// Prepares an interpreter: allocates arrays (zero-initialized,
    /// version 0) from the declared bounds.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] if a parameter is unbound or an extent is
    /// non-positive/oversized.
    pub fn new(prog: &'a IrProgram, params: &HashMap<String, i64>) -> Result<Self, ExecError> {
        let st0 = State {
            arrays: Vec::new(),
            loop_vals: HashMap::new(),
            params: params.clone(),
        };
        let mut arrays = Vec::with_capacity(prog.arrays.len());
        let mut total: u64 = 0;
        for a in &prog.arrays {
            let mut lo = Vec::new();
            let mut extents = Vec::new();
            let mut count: u64 = 1;
            for (l, h) in &a.dims {
                let lv = st0
                    .eval_affine(prog, l)
                    .ok_or_else(|| ExecError::new(format!("array `{}`: unbound bound", a.name)))?;
                let hv = st0
                    .eval_affine(prog, h)
                    .ok_or_else(|| ExecError::new(format!("array `{}`: unbound bound", a.name)))?;
                if hv < lv {
                    return Err(ExecError::new(format!("array `{}`: empty extent", a.name)));
                }
                lo.push(lv);
                extents.push(hv - lv + 1);
                count = count.saturating_mul((hv - lv + 1) as u64);
            }
            total = total.saturating_add(count);
            if total > 64 * 1024 * 1024 {
                return Err(ExecError::new("arrays too large for interpretation"));
            }
            arrays.push(ArrayData {
                lo,
                extents,
                vals: vec![0.0; count as usize],
                vers: vec![0; count as usize],
            });
        }
        let names = prog
            .arrays
            .iter()
            .enumerate()
            .map(|(i, a)| (a.name.clone(), ArrayId(i as u32)))
            .collect();
        Ok(Interp {
            prog,
            st: State { arrays, ..st0 },
            names,
            fuel: 200_000_000,
        })
    }

    /// The current state (for monitors driving the run themselves).
    pub fn state(&self) -> &State {
        &self.st
    }

    /// Executes the program from entry to exit.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on evaluation failure, monitor failure, or
    /// fuel exhaustion.
    pub fn run(&mut self, mon: &mut dyn Monitor) -> Result<(), ExecError> {
        let prog = self.prog;
        let mut node = prog.cfg.entry;
        // Tracks whether a header is being entered from its preheader (next
        // iteration state).
        loop {
            mon.at_pos(prog, &self.st, Pos::top(node))?;
            match prog.cfg.node(node).kind {
                NodeKind::Exit => return Ok(()),
                NodeKind::PreHeader(l) => {
                    let li = prog.loop_info(l);
                    let lo = self
                        .st
                        .eval_affine(prog, &li.lo)
                        .ok_or_else(|| ExecError::new("unbound loop bound"))?;
                    let hi = self
                        .st
                        .eval_affine(prog, &li.hi)
                        .ok_or_else(|| ExecError::new("unbound loop bound"))?;
                    let trips = if li.step > 0 { hi >= lo } else { hi <= lo };
                    if trips {
                        self.st.loop_vals.insert(l, lo);
                        node = li.header;
                    } else {
                        node = li.postexit; // zero-trip edge
                    }
                }
                NodeKind::Header(l) => {
                    // The loop variable was set by the preheader (first
                    // iteration) or advanced at the backedge below; test it.
                    let li = prog.loop_info(l);
                    let hi = self
                        .st
                        .eval_affine(prog, &li.hi)
                        .ok_or_else(|| ExecError::new("unbound loop bound"))?;
                    let v = *self
                        .st
                        .loop_vals
                        .get(&l)
                        .ok_or_else(|| ExecError::new("loop variable unset at header"))?;
                    let more = if li.step > 0 { v <= hi } else { v >= hi };
                    if more {
                        // Body is the non-postexit successor.
                        node = *prog
                            .cfg
                            .node(node)
                            .succs
                            .iter()
                            .find(|&&s| s != li.postexit)
                            .ok_or_else(|| ExecError::new("header without body"))?;
                    } else {
                        node = li.postexit;
                    }
                }
                NodeKind::Entry | NodeKind::Block | NodeKind::PostExit(_) => {
                    if let NodeKind::PostExit(l) = prog.cfg.node(node).kind {
                        // The loop variable goes out of scope at the loop
                        // exit; a stale binding would shadow a later loop
                        // that reuses the same variable name.
                        self.st.loop_vals.remove(&l);
                    }
                    let stmts = prog.cfg.node(node).stmts.clone();
                    for (i, sid) in stmts.iter().enumerate() {
                        if i > 0 {
                            mon.at_pos(prog, &self.st, Pos { node, slot: i })?;
                        }
                        mon.before_stmt(prog, &self.st, *sid)?;
                        self.exec_stmt(*sid)?;
                    }
                    if !stmts.is_empty() {
                        mon.at_pos(
                            prog,
                            &self.st,
                            Pos {
                                node,
                                slot: stmts.len(),
                            },
                        )?;
                    }
                    node = self.next_node(node)?;
                }
            }
        }
    }

    /// Chooses the successor of a straight-line or branching node.
    fn next_node(&mut self, node: NodeId) -> Result<NodeId, ExecError> {
        let prog = self.prog;
        let succs = &prog.cfg.node(node).succs;
        match succs.len() {
            0 => Err(ExecError::new("dangling node")),
            1 => {
                let next = succs[0];
                self.maybe_advance_backedge(node, next);
                Ok(next)
            }
            _ => {
                // Branch: successor 0 is the then-arm by construction.
                let cond = prog
                    .branch_conds
                    .get(&node)
                    .ok_or_else(|| ExecError::new("branch without condition"))?
                    .clone();
                let v = self.eval_scalar(&cond)?;
                let next = if v != 0.0 { succs[0] } else { succs[1] };
                self.maybe_advance_backedge(node, next);
                Ok(next)
            }
        }
    }

    /// Advances the loop variable when following a backedge into a header.
    fn maybe_advance_backedge(&mut self, from: NodeId, to: NodeId) {
        if let NodeKind::Header(l) = self.prog.cfg.node(to).kind {
            // Entering a header from anywhere other than its preheader is a
            // backedge.
            let li = self.prog.loop_info(l);
            if from != li.preheader {
                if let Some(v) = self.st.loop_vals.get_mut(&l) {
                    *v += li.step;
                }
            }
        }
    }

    fn exec_stmt(&mut self, sid: StmtId) -> Result<(), ExecError> {
        let info = self.prog.stmt(sid).clone();
        match &info.kind {
            StmtKind::Cond { .. } => Ok(()), // evaluated at the branch
            StmtKind::Assign { lhs, rhs, .. } => self.exec_assign(lhs, rhs),
        }
    }

    fn exec_assign(&mut self, lhs: &AccessRef, rhs: &Expr) -> Result<(), ExecError> {
        let space = self.st.enumerate_access(self.prog, lhs)?;
        // Shape of the lhs section: positions of range dimensions.
        let lhs_ranges: Vec<usize> = lhs
            .subs
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, SubscriptIr::Range { .. }))
            .map(|(i, _)| i)
            .collect();
        self.spend(space.len() as u64)?;

        // Fully evaluate the RHS first (F90 semantics).
        let mut writes: Vec<(usize, f64)> = Vec::with_capacity(space.len());
        let arr = lhs.array;
        for idx in &space {
            // The conformable position k = the range coordinates of idx.
            let k: Vec<i64> = lhs_ranges.iter().map(|&d| idx[d]).collect();
            // Convert to 0-based offsets within each lhs range.
            let k0 = self.range_offsets(lhs, &k)?;
            let v = self.eval_expr(rhs, &k0)?;
            let flat = self.st.arrays[arr.0 as usize]
                .flat(idx)
                .ok_or_else(|| ExecError::new("lhs index out of bounds"))?;
            writes.push((flat, v));
        }
        let data = &mut self.st.arrays[arr.0 as usize];
        for (flat, v) in writes {
            data.vals[flat] = v;
            data.vers[flat] += 1;
        }
        Ok(())
    }

    /// Converts absolute range coordinates of the lhs to 0-based offsets.
    fn range_offsets(&self, lhs: &AccessRef, k: &[i64]) -> Result<Vec<i64>, ExecError> {
        let mut out = Vec::with_capacity(k.len());
        let mut ki = 0;
        for s in &lhs.subs {
            if let SubscriptIr::Range { lo, step, .. } = s {
                let lo = self
                    .st
                    .eval_affine(self.prog, lo)
                    .ok_or_else(|| ExecError::new("unbound bound"))?;
                out.push((k[ki] - lo) / step);
                ki += 1;
            }
        }
        Ok(out)
    }

    fn spend(&mut self, n: u64) -> Result<(), ExecError> {
        if self.fuel < n {
            return Err(ExecError::new("execution fuel exhausted"));
        }
        self.fuel -= n;
        Ok(())
    }

    /// Evaluates an expression at conformable offset `k0` (0-based offsets
    /// into each section range, outermost first).
    fn eval_expr(&mut self, e: &Expr, k0: &[i64]) -> Result<f64, ExecError> {
        Ok(match e {
            Expr::Int(v) => *v as f64,
            Expr::Num(v) => *v,
            Expr::Neg(a) => -self.eval_expr(a, k0)?,
            Expr::Bin(op, a, b) => {
                let x = self.eval_expr(a, k0)?;
                let y = self.eval_expr(b, k0)?;
                match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => {
                        if y == 0.0 {
                            0.0 // Fortran codes guard this; keep totals finite
                        } else {
                            x / y
                        }
                    }
                    BinOp::Lt => f64::from(x < y),
                    BinOp::Gt => f64::from(x > y),
                    BinOp::Le => f64::from(x <= y),
                    BinOp::Ge => f64::from(x >= y),
                    BinOp::Eq => f64::from(x == y),
                    BinOp::Ne => f64::from(x != y),
                }
            }
            Expr::Sum(r) => {
                let (arr, elems) = self.resolve_full(r)?;
                self.spend(elems.len() as u64)?;
                let data = &self.st.arrays[arr.0 as usize];
                let mut acc = 0.0;
                for idx in &elems {
                    let flat = data
                        .flat(idx)
                        .ok_or_else(|| ExecError::new("sum index out of bounds"))?;
                    acc += data.vals[flat];
                }
                acc
            }
            Expr::Ref(r) => {
                // Parameter or loop variable?
                if r.subs.is_empty() {
                    if let Some(v) = self.st.params.get(r.array.as_str()) {
                        return Ok(*v as f64);
                    }
                    if let Some((_, l)) = self
                        .prog
                        .loops
                        .iter()
                        .enumerate()
                        .map(|(i, li)| (li, LoopId(i as u32)))
                        .rfind(|(li, l)| li.var == r.array && self.st.loop_vals.contains_key(l))
                    {
                        return Ok(self.st.loop_vals[&l] as f64);
                    }
                }
                let arr = *self
                    .names
                    .get(&r.array)
                    .ok_or_else(|| ExecError::new(format!("unknown name `{}`", r.array)))?;
                let idx = self.element_at(arr, r, k0)?;
                let data = &self.st.arrays[arr.0 as usize];
                let flat = data
                    .flat(&idx)
                    .ok_or_else(|| ExecError::new(format!("`{}` index out of bounds", r.array)))?;
                data.vals[flat]
            }
        })
    }

    /// The concrete element a reference touches at conformable offset `k0`.
    fn element_at(&self, arr: ArrayId, r: &ArrayRef, k0: &[i64]) -> Result<Vec<i64>, ExecError> {
        let info = self.prog.array(arr);
        let mut idx = Vec::with_capacity(info.rank());
        let mut ki = 0;
        if r.subs.is_empty() {
            // Whole-array reference: ranges over every dimension.
            for (d, (lo, _)) in info.dims.iter().enumerate() {
                let lo = self
                    .st
                    .eval_affine(self.prog, lo)
                    .ok_or_else(|| ExecError::new("unbound bound"))?;
                let off = k0.get(d).copied().unwrap_or(0);
                idx.push(lo + off);
            }
            return Ok(idx);
        }
        for s in &r.subs {
            match s {
                Subscript::Index(e) => idx.push(self.eval_int(e)?),
                Subscript::Range { lo, step, .. } => {
                    let lo = match lo {
                        Some(e) => self.eval_int(e)?,
                        None => {
                            let (dlo, _) = &info.dims[idx.len()];
                            self.st
                                .eval_affine(self.prog, dlo)
                                .ok_or_else(|| ExecError::new("unbound bound"))?
                        }
                    };
                    let off = k0.get(ki).copied().unwrap_or(0);
                    ki += 1;
                    idx.push(lo + off * step);
                }
            }
        }
        Ok(idx)
    }

    /// Resolves a `sum(...)` argument to its full element list.
    fn resolve_full(&self, r: &ArrayRef) -> Result<(ArrayId, Vec<Vec<i64>>), ExecError> {
        let arr = *self
            .names
            .get(&r.array)
            .ok_or_else(|| ExecError::new(format!("unknown name `{}`", r.array)))?;
        let info = self.prog.array(arr);
        let mut dims: Vec<Vec<i64>> = Vec::new();
        let subs: Vec<Subscript> = if r.subs.is_empty() {
            vec![Subscript::full(); info.rank()]
        } else {
            r.subs.clone()
        };
        for (d, s) in subs.iter().enumerate() {
            match s {
                Subscript::Index(e) => dims.push(vec![self.eval_int(e)?]),
                Subscript::Range { lo, hi, step } => {
                    let (dlo, dhi) = &info.dims[d];
                    let lo = match lo {
                        Some(e) => self.eval_int(e)?,
                        None => self
                            .st
                            .eval_affine(self.prog, dlo)
                            .ok_or_else(|| ExecError::new("unbound bound"))?,
                    };
                    let hi = match hi {
                        Some(e) => self.eval_int(e)?,
                        None => self
                            .st
                            .eval_affine(self.prog, dhi)
                            .ok_or_else(|| ExecError::new("unbound bound"))?,
                    };
                    let mut v = Vec::new();
                    let mut i = lo;
                    while (*step > 0 && i <= hi) || (*step < 0 && i >= hi) {
                        v.push(i);
                        i += step;
                    }
                    dims.push(v);
                }
            }
        }
        let mut out: Vec<Vec<i64>> = vec![Vec::new()];
        for d in &dims {
            let mut next = Vec::with_capacity(out.len() * d.len());
            for pre in &out {
                for &x in d {
                    let mut e = pre.clone();
                    e.push(x);
                    next.push(e);
                }
            }
            out = next;
        }
        Ok((arr, out))
    }

    /// Integer evaluation of a subscript / bound expression.
    fn eval_int(&self, e: &Expr) -> Result<i64, ExecError> {
        Ok(match e {
            Expr::Int(v) => *v,
            Expr::Num(v) => *v as i64,
            Expr::Neg(a) => -self.eval_int(a)?,
            Expr::Bin(op, a, b) => {
                let x = self.eval_int(a)?;
                let y = self.eval_int(b)?;
                match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => {
                        if y == 0 {
                            return Err(ExecError::new("division by zero in subscript"));
                        }
                        x / y
                    }
                    _ => return Err(ExecError::new("comparison in subscript")),
                }
            }
            Expr::Ref(r) if r.subs.is_empty() => {
                if let Some(v) = self.st.params.get(r.array.as_str()) {
                    *v
                } else if let Some(v) = self
                    .prog
                    .loops
                    .iter()
                    .enumerate()
                    .filter(|(_, li)| li.var == r.array)
                    .filter_map(|(i, _)| self.st.loop_vals.get(&LoopId(i as u32)))
                    .next_back()
                {
                    *v
                } else {
                    return Err(ExecError::new(format!(
                        "`{}` is not an integer variable",
                        r.array
                    )));
                }
            }
            _ => return Err(ExecError::new("unsupported subscript expression")),
        })
    }

    /// Scalar (rank-0) evaluation, used for branch conditions.
    fn eval_scalar(&mut self, e: &Expr) -> Result<f64, ExecError> {
        self.eval_expr(e, &[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str, params: &[(&str, i64)]) -> (IrProgram, FinalState) {
        let ast = gcomm_lang::parse_program(src).unwrap();
        let prog = gcomm_ir::lower(&ast).unwrap();
        let map: HashMap<String, i64> = params.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        let fs = interpret(&prog, &map).unwrap();
        (prog, fs)
    }

    #[test]
    fn saxpy_values() {
        let (prog, fs) = run(
            "
program t
param n
real a(n), b(n), c(n) distribute (block)
a(1:n) = 2
b(1:n) = 3
c(1:n) = a(1:n) * b(1:n) + 1
end",
            &[("n", 8)],
        );
        for i in 1..=8 {
            assert_eq!(fs.value(&prog, "c", &[i]), Some(7.0));
        }
    }

    #[test]
    fn stencil_shifts_values() {
        let (prog, fs) = run(
            "
program t
param n
real a(n), c(n) distribute (block)
do i = 1, n
  a(i) = i
enddo
c(2:n) = a(1:n-1)
end",
            &[("n", 6)],
        );
        // c(i) = a(i-1) = i-1.
        for i in 2..=6 {
            assert_eq!(fs.value(&prog, "c", &[i]), Some((i - 1) as f64));
        }
        assert_eq!(fs.value(&prog, "c", &[1]), Some(0.0));
    }

    #[test]
    fn loop_accumulation_and_versions() {
        let (prog, fs) = run(
            "
program t
param n
real s
s = 0
do i = 1, n
  s = s + i
enddo
end",
            &[("n", 10)],
        );
        assert_eq!(fs.scalar(&prog, "s"), Some(55.0));
        let a = prog.array_by_name("s").unwrap();
        // 1 initial write + 10 loop writes.
        assert_eq!(fs.state.arrays[a.0 as usize].vers[0], 11);
    }

    #[test]
    fn zero_trip_loop_skips_body() {
        let (prog, fs) = run(
            "
program t
param n
real s
s = 7
do i = 5, 4
  s = 0
enddo
end",
            &[("n", 4)],
        );
        assert_eq!(fs.scalar(&prog, "s"), Some(7.0));
    }

    #[test]
    fn negative_step_loop() {
        let (prog, fs) = run(
            "
program t
param n
real a(n) distribute (block)
real s
s = 0
do i = n, 1, -1
  a(i) = s
  s = s + 1
enddo
end",
            &[("n", 4)],
        );
        // a(4)=0, a(3)=1, a(2)=2, a(1)=3.
        assert_eq!(fs.value(&prog, "a", &[1]), Some(3.0));
        assert_eq!(fs.value(&prog, "a", &[4]), Some(0.0));
    }

    #[test]
    fn branch_both_arms() {
        let src = "
program t
param n
real s, r
s = SVAL
if (s > 0) then
  r = 1
else
  r = 2
endif
end";
        let (prog, fs) = run(&src.replace("SVAL", "5"), &[("n", 4)]);
        assert_eq!(fs.scalar(&prog, "r"), Some(1.0));
        let (prog2, fs2) = run(&src.replace("SVAL", "-5"), &[("n", 4)]);
        assert_eq!(fs2.scalar(&prog2, "r"), Some(2.0));
    }

    #[test]
    fn sum_reduction_value() {
        let (prog, fs) = run(
            "
program t
param n
real g(n,n) distribute (block,block)
real s
g(1:n, 1:n) = 2
s = sum(g(1, 1:n)) + sum(g(2, 1:n))
end",
            &[("n", 5)],
        );
        assert_eq!(fs.scalar(&prog, "s"), Some(20.0));
    }

    #[test]
    fn strided_sections() {
        let (prog, fs) = run(
            "
program t
param n
real b(n) distribute (block)
b(1:n:2) = 1
b(2:n:2) = 2
end",
            &[("n", 6)],
        );
        assert_eq!(fs.value(&prog, "b", &[1]), Some(1.0));
        assert_eq!(fs.value(&prog, "b", &[2]), Some(2.0));
        assert_eq!(fs.value(&prog, "b", &[5]), Some(1.0));
        assert_eq!(fs.value(&prog, "b", &[6]), Some(2.0));
    }

    #[test]
    fn rhs_evaluated_before_store() {
        // Classic aliasing test: a(2:n) = a(1:n-1) must shift, not smear.
        let (prog, fs) = run(
            "
program t
param n
real a(n) distribute (block)
do i = 1, n
  a(i) = i
enddo
a(2:n) = a(1:n-1)
end",
            &[("n", 5)],
        );
        assert_eq!(fs.value(&prog, "a", &[2]), Some(1.0));
        assert_eq!(fs.value(&prog, "a", &[5]), Some(4.0));
    }

    #[test]
    fn two_dim_conformable_sections() {
        let (prog, fs) = run(
            "
program t
param n
real a(n,n), b(n,n) distribute (block,block)
do i = 1, n
  do j = 1, n
    a(i, j) = i * 10 + j
  enddo
enddo
b(2:n, 1:n-1) = a(1:n-1, 2:n)
end",
            &[("n", 4)],
        );
        // b(i,j) = a(i-1, j+1).
        assert_eq!(fs.value(&prog, "b", &[2, 1]), Some(12.0));
        assert_eq!(fs.value(&prog, "b", &[4, 3]), Some(34.0));
    }

    #[test]
    fn whole_array_reference() {
        let (prog, fs) = run(
            "
program t
param n
real a(n,n), b(n,n) distribute (block,block)
a(1:n, 1:n) = 3
b = a
end",
            &[("n", 3)],
        );
        assert_eq!(fs.value(&prog, "b", &[3, 3]), Some(3.0));
    }

    #[test]
    fn unbound_parameter_is_error() {
        let ast = gcomm_lang::parse_program(
            "program t\nparam n\nreal a(n) distribute (block)\na(1:n) = 0\nend",
        )
        .unwrap();
        let prog = gcomm_ir::lower(&ast).unwrap();
        assert!(interpret(&prog, &HashMap::new()).is_err());
    }

    #[test]
    fn kernels_interpret_cleanly() {
        for (bench, routine, src) in gcomm_kernels::all_kernels() {
            let ast = gcomm_lang::parse_program(src).unwrap();
            let prog = gcomm_ir::lower(&ast).unwrap();
            let mut params = HashMap::new();
            for p in &prog.params {
                params.insert(p.clone(), 8);
            }
            params.insert("nsteps".into(), 2);
            interpret(&prog, &params)
                .unwrap_or_else(|e| panic!("{bench}:{routine} failed to interpret: {e}"));
        }
    }
}
