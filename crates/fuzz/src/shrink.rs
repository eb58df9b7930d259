//! Greedy structural minimization of divergent modules.
//!
//! The shrinker works on the generator's [`GenModule`] IR, not on text:
//! each candidate reduction is a structural edit (drop an output, remove a
//! register, inline a constant over a wire, replace a subexpression with
//! one of its children), applied only if the reduced module still
//! diverges. Passes repeat to a fixpoint, so the result is 1-minimal with
//! respect to the edit set — every remaining element is load-bearing for
//! the reproduction.

use crate::gen::{FsmDef, GExpr, GenModule, RegDef, WireDef};
use crate::oracle::{check_module, OracleConfig, Verdict};
use rtlock_governor::CancelToken;

/// Returns `true` when the module still reproduces a divergence (at any
/// layer — a shrink step is allowed to move the failure between layers, as
/// long as one remains).
fn still_diverges(m: &GenModule, seed: u64, cfg: &OracleConfig) -> bool {
    matches!(check_module(m, seed, cfg), Verdict::Diverged { .. })
}

/// Candidate replacements for an expression node: its same-width children
/// first (the biggest cut), then a zero constant.
fn replacements(m: &GenModule, e: &GExpr) -> Vec<GExpr> {
    let w = m.expr_width(e);
    let mut out = Vec::new();
    let mut push_child = |c: &GExpr| {
        if m.expr_width(c) == w {
            out.push(c.clone());
        }
    };
    match e {
        GExpr::Unary { a, .. } => push_child(a),
        GExpr::Binary { a, b, .. } => {
            push_child(a);
            push_child(b);
        }
        GExpr::Mux { t, e: els, .. } => {
            push_child(t);
            push_child(els);
        }
        GExpr::Const { .. } | GExpr::Ref(_) | GExpr::Slice { .. } | GExpr::IndexDyn { .. } => {}
    }
    if !matches!(e, GExpr::Const { .. }) {
        out.push(GExpr::Const { width: w, value: 0 });
    }
    out
}

/// All mutable expression slots of a module, addressed by index.
fn expr_slot_count(m: &GenModule) -> usize {
    m.wires.len() + m.regs.len() + m.fsm.as_ref().map_or(0, |f| f.arms.len())
}

fn expr_slot(m: &mut GenModule, idx: usize) -> &mut GExpr {
    if idx < m.wires.len() {
        return &mut m.wires[idx].expr;
    }
    let idx = idx - m.wires.len();
    if idx < m.regs.len() {
        return &mut m.regs[idx].next;
    }
    let idx = idx - m.regs.len();
    &mut m.fsm.as_mut().expect("fsm slot index").arms[idx].1
}

/// Walks `e` and tries `edit` at every node position, returning the first
/// variant that keeps the divergence alive.
fn shrink_expr_at(
    m: &GenModule,
    slot: usize,
    seed: u64,
    cfg: &OracleConfig,
    cancel: &CancelToken,
) -> Option<GenModule> {
    // Enumerate node paths depth-first; for each, try its replacements.
    fn paths(e: &GExpr, prefix: Vec<usize>, out: &mut Vec<Vec<usize>>) {
        out.push(prefix.clone());
        let children: Vec<&GExpr> = match e {
            GExpr::Unary { a, .. } => vec![a],
            GExpr::Binary { a, b, .. } => vec![a, b],
            GExpr::Mux { cond, t, e } => vec![cond, t, e],
            GExpr::IndexDyn { index, .. } => vec![index],
            _ => Vec::new(),
        };
        for (i, c) in children.into_iter().enumerate() {
            let mut p = prefix.clone();
            p.push(i);
            paths(c, p, out);
        }
    }
    fn node_at<'a>(e: &'a GExpr, path: &[usize]) -> &'a GExpr {
        let Some((&head, rest)) = path.split_first() else { return e };
        let child: &GExpr = match e {
            GExpr::Unary { a, .. } => a,
            GExpr::Binary { a, b, .. } => {
                if head == 0 {
                    a
                } else {
                    b
                }
            }
            GExpr::Mux { cond, t, e } => match head {
                0 => cond,
                1 => t,
                _ => e,
            },
            GExpr::IndexDyn { index, .. } => index,
            _ => unreachable!("path into leaf"),
        };
        node_at(child, rest)
    }
    fn replace_at(e: &mut GExpr, path: &[usize], with: GExpr) {
        let Some((&head, rest)) = path.split_first() else {
            *e = with;
            return;
        };
        let child: &mut GExpr = match e {
            GExpr::Unary { a, .. } => a,
            GExpr::Binary { a, b, .. } => {
                if head == 0 {
                    a
                } else {
                    b
                }
            }
            GExpr::Mux { cond, t, e } => match head {
                0 => cond,
                1 => t,
                _ => e,
            },
            GExpr::IndexDyn { index, .. } => index,
            _ => unreachable!("path into leaf"),
        };
        replace_at(child, rest, with);
    }

    let mut all_paths = Vec::new();
    {
        let mut probe = m.clone();
        paths(expr_slot(&mut probe, slot), Vec::new(), &mut all_paths);
    }
    for path in all_paths {
        if cancel.should_stop().is_some() {
            return None;
        }
        let mut probe = m.clone();
        let node = node_at(expr_slot(&mut probe, slot), &path).clone();
        for r in replacements(m, &node) {
            if r == node {
                continue;
            }
            let mut cand = m.clone();
            replace_at(expr_slot(&mut cand, slot), &path, r);
            if still_diverges(&cand, seed, cfg) {
                return Some(cand);
            }
        }
    }
    None
}

/// Every signal some expression or output still references.
fn referenced_signals(m: &GenModule) -> std::collections::HashSet<usize> {
    fn walk(e: &GExpr, out: &mut std::collections::HashSet<usize>) {
        match e {
            GExpr::Ref(s) | GExpr::Slice { sig: s, .. } => {
                out.insert(*s);
            }
            GExpr::IndexDyn { sig, index } => {
                out.insert(*sig);
                walk(index, out);
            }
            GExpr::Unary { a, .. } => walk(a, out),
            GExpr::Binary { a, b, .. } => {
                walk(a, out);
                walk(b, out);
            }
            GExpr::Mux { cond, t, e } => {
                walk(cond, out);
                walk(t, out);
                walk(e, out);
            }
            GExpr::Const { .. } => {}
        }
    }
    let mut refs = std::collections::HashSet::new();
    for d in &m.wires {
        walk(&d.expr, &mut refs);
    }
    for r in &m.regs {
        walk(&r.next, &mut refs);
    }
    if let Some(f) = &m.fsm {
        for (_, e) in &f.arms {
            walk(e, &mut refs);
        }
    }
    for &(_, s) in &m.outputs {
        refs.insert(s);
    }
    refs
}

/// Structural deletions: outputs, FSM, registers, wires, unused inputs. A
/// deleted wire or register is replaced by a constant everywhere it is
/// referenced, which keeps the module well-formed without renumbering the
/// signal table; registers and the FSM state are also tried as *demotions*
/// to free input ports — that keeps a non-constant signal alive while
/// deleting the sequential machinery around it.
fn structural_candidates(m: &GenModule) -> Vec<GenModule> {
    let mut out = Vec::new();

    if m.outputs.len() > 1 {
        for i in 0..m.outputs.len() {
            let mut c = m.clone();
            c.outputs.remove(i);
            out.push(c);
        }
    }

    if m.fsm.is_some() {
        // Demote `state` to a free input (biggest cut: both processes go).
        let mut c = m.clone();
        let state = c.fsm.take().expect("checked").state;
        c.extra_inputs.push(state);
        out.push(c);
        // Or constant-fold it away entirely.
        let mut c = m.clone();
        let FsmDef { state, .. } = c.fsm.take().expect("checked");
        let w = c.signals[state].width;
        subst_signal(&mut c, state, GExpr::Const { width: w, value: 0 });
        c.outputs.retain(|&(_, s)| s != state);
        if !c.outputs.is_empty() {
            out.push(c);
        }
    }

    if let Some(f) = &m.fsm {
        for i in 0..f.arms.len() {
            let mut c = m.clone();
            c.fsm.as_mut().expect("checked").arms.remove(i);
            out.push(c);
        }
    }

    for i in 0..m.regs.len() {
        // Demote the register to a free input.
        let mut c = m.clone();
        let sig = c.regs.remove(i).sig;
        c.extra_inputs.push(sig);
        out.push(c);
        // Or replace it with its reset constant.
        let mut c = m.clone();
        let RegDef { sig, init, .. } = c.regs.remove(i);
        let w = c.signals[sig].width;
        subst_signal(&mut c, sig, GExpr::Const { width: w, value: init });
        c.outputs.retain(|&(_, s)| s != sig);
        if !c.outputs.is_empty() {
            out.push(c);
        }
    }

    for i in 0..m.wires.len() {
        let mut c = m.clone();
        let WireDef { sig, .. } = c.wires.remove(i);
        let w = c.signals[sig].width;
        subst_signal(&mut c, sig, GExpr::Const { width: w, value: 0 });
        c.outputs.retain(|&(_, s)| s != sig);
        if !c.outputs.is_empty() {
            out.push(c);
        }
    }

    // Drop inputs nothing references any more.
    let refs = referenced_signals(m);
    for i in 0..m.n_inputs {
        if !refs.contains(&i) && !m.dropped_inputs.contains(&i) {
            let mut c = m.clone();
            c.dropped_inputs.push(i);
            out.push(c);
        }
    }
    for (k, &sig) in m.extra_inputs.iter().enumerate() {
        if !refs.contains(&sig) {
            let mut c = m.clone();
            c.extra_inputs.remove(k);
            out.push(c);
        }
    }

    out
}

/// Replaces every reference to `sig` (whole, sliced, or indexed) with a
/// constant expression of the right width.
fn subst_signal(m: &mut GenModule, sig: usize, with: GExpr) {
    fn subst(e: &mut GExpr, sig: usize, with: &GExpr, full_width: usize) {
        match e {
            GExpr::Ref(s) if *s == sig => *e = with.clone(),
            GExpr::Slice { sig: s, hi, lo } if *s == sig => {
                // A slice of a constant is a narrower constant.
                let value = match with {
                    GExpr::Const { value, .. } => {
                        let w = *hi - *lo + 1;
                        let mask = if w >= 64 { u64::MAX } else { (1u64 << w) - 1 };
                        (value >> *lo) & mask
                    }
                    _ => 0,
                };
                *e = GExpr::Const { width: *hi - *lo + 1, value };
            }
            GExpr::IndexDyn { sig: s, .. } if *s == sig => {
                let _ = full_width;
                *e = GExpr::Const { width: 1, value: 0 };
            }
            GExpr::Unary { a, .. } => subst(a, sig, with, full_width),
            GExpr::Binary { a, b, .. } => {
                subst(a, sig, with, full_width);
                subst(b, sig, with, full_width);
            }
            GExpr::Mux { cond, t, e: els } => {
                subst(cond, sig, with, full_width);
                subst(t, sig, with, full_width);
                subst(els, sig, with, full_width);
            }
            GExpr::IndexDyn { index, .. } => subst(index, sig, with, full_width),
            _ => {}
        }
    }
    let w = m.signals[sig].width;
    for d in &mut m.wires {
        subst(&mut d.expr, sig, &with, w);
    }
    for r in &mut m.regs {
        subst(&mut r.next, sig, &with, w);
    }
    if let Some(f) = &mut m.fsm {
        for (_, e) in &mut f.arms {
            subst(e, sig, &with, w);
        }
    }
}

/// Shrinks a divergent module to a (locally) minimal reproducer.
///
/// Alternates structural deletions with expression-level replacements
/// until neither makes progress or `cancel` fires. The input is returned
/// unchanged if it does not actually diverge (defensive: the caller
/// decides divergence, but budgets can make verdicts flaky).
pub fn shrink(
    module: &GenModule,
    seed: u64,
    cfg: &OracleConfig,
    cancel: &CancelToken,
) -> GenModule {
    if !still_diverges(module, seed, cfg) {
        return module.clone();
    }
    let mut cur = module.clone();
    loop {
        if cancel.should_stop().is_some() {
            return cur;
        }
        let mut progressed = false;

        // Structural pass: take the first deletion that keeps the bug.
        'structural: loop {
            if cancel.should_stop().is_some() {
                return cur;
            }
            for cand in structural_candidates(&cur) {
                if still_diverges(&cand, seed, cfg) {
                    cur = cand;
                    progressed = true;
                    continue 'structural;
                }
            }
            break;
        }

        // Expression pass: shrink each definition's tree greedily.
        for slot in 0..expr_slot_count(&cur) {
            while let Some(next) = shrink_expr_at(&cur, slot, seed, cfg, cancel) {
                cur = next;
                progressed = true;
                if cancel.should_stop().is_some() {
                    return cur;
                }
            }
            // Deleting definitions above may shift slot indices; bail out
            // of the pass if the module shrank under us.
            if slot >= expr_slot_count(&cur) {
                break;
            }
        }

        if !progressed {
            return cur;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{GenConfig, Signal};

    /// A module whose only real content is an inverted-select mux; with
    /// the optimizer bug armed it diverges, and shrinking must strip the
    /// decoys without losing the divergence.
    fn mux_module_with_decoys() -> GenModule {
        let signals = vec![
            Signal { name: "i0".into(), width: 1 },
            Signal { name: "i1".into(), width: 4 },
            Signal { name: "i2".into(), width: 4 },
            Signal { name: "w0".into(), width: 4 },
            Signal { name: "w1".into(), width: 4 },
            Signal { name: "w2".into(), width: 4 },
        ];
        let mux = GExpr::Mux {
            cond: Box::new(GExpr::Unary {
                op: crate::gen::GUnOp::Not,
                a: Box::new(GExpr::Ref(0)),
            }),
            t: Box::new(GExpr::Ref(1)),
            e: Box::new(GExpr::Ref(2)),
        };
        GenModule {
            name: "shrinkme".into(),
            signals,
            n_inputs: 3,
            wires: vec![
                WireDef { sig: 3, expr: mux },
                WireDef {
                    sig: 4,
                    expr: GExpr::Binary {
                        op: crate::gen::GBinOp::Add,
                        a: Box::new(GExpr::Ref(1)),
                        b: Box::new(GExpr::Ref(2)),
                    },
                },
                WireDef {
                    sig: 5,
                    expr: GExpr::Binary {
                        op: crate::gen::GBinOp::Xor,
                        a: Box::new(GExpr::Ref(3)),
                        b: Box::new(GExpr::Const { width: 4, value: 0 }),
                    },
                },
            ],
            regs: Vec::new(),
            fsm: None,
            outputs: vec![("o0".into(), 5), ("o1".into(), 4)],
            extra_inputs: Vec::new(),
            dropped_inputs: Vec::new(),
        }
    }

    #[test]
    fn shrinks_decoys_away_under_injected_bug() {
        let _gate = crate::inject_gate::armed();
        let m = mux_module_with_decoys();
        let cfg = OracleConfig { check_locked: false, ..OracleConfig::default() };
        rtlock_synth::opt::inject::set_opt_mux_bug(true);
        let diverges = still_diverges(&m, 11, &cfg);
        let shrunk = shrink(&m, 11, &cfg, &CancelToken::unlimited());
        let still = still_diverges(&shrunk, 11, &cfg);
        rtlock_synth::opt::inject::set_opt_mux_bug(false);
        assert!(diverges, "armed bug must make the seed module diverge");
        assert!(still, "shrunk module must still diverge");
        assert!(shrunk.outputs.len() == 1, "decoy output dropped: {:?}", shrunk.outputs);
        assert!(shrunk.wires.len() <= 2, "decoy wires dropped: {}", shrunk.wires.len());
        let lines = crate::gen::render(&shrunk).lines().count();
        assert!(lines <= 20, "shrunk module must be small, got {lines} lines");
    }

    #[test]
    fn non_divergent_module_is_returned_unchanged() {
        let _gate = crate::inject_gate::disarmed();
        let m = crate::gen::generate(3, &GenConfig::default());
        let cfg = OracleConfig { check_locked: false, ..OracleConfig::default() };
        let out = shrink(&m, 3, &cfg, &CancelToken::unlimited());
        assert_eq!(out, m);
    }
}
