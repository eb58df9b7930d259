//! Typed get-or-compute helpers over the byte-level [`ArtifactStore`].
//!
//! Each helper takes `Option<&ArtifactStore>` so call sites stay a
//! one-line change from their uncached form: `None` is exactly the old
//! code path. Every helper upholds the determinism contract — a hit
//! returns precisely the value the miss path would compute (the payload
//! is the canonical encoding of that value, and the identity-bytes check
//! in the store rules out collisions), so cached and uncached runs are
//! byte-identical apart from the stats counters.

use crate::hash::{bytes_hash, structural_hash};
use crate::store::{ArtifactKind, ArtifactStore};
use rtlock_governor::CancelToken;
use rtlock_netlist::{codec, Clauses, CnfBuilder, Netlist, Scoap};
use rtlock_rtl::Module;
use rtlock_synth::{elaborate, optimize, OptStats, SynthError};

/// Canonical identity bytes of an RTL module: its printed source.
pub fn module_identity(module: &Module) -> Vec<u8> {
    rtlock_rtl::printer::print(module).into_bytes()
}

/// Elaborates `module`, consulting the cache first. Only successful
/// elaborations are cached; errors always recompute.
pub fn cached_elaborate(
    store: Option<&ArtifactStore>,
    module: &Module,
    token: &CancelToken,
) -> Result<Netlist, SynthError> {
    let Some(store) = store else { return elaborate(module) };
    let identity = module_identity(module);
    let hash = bytes_hash(&identity);
    if let Some(bytes) = store.get(ArtifactKind::ElabNetlist, hash, &identity, token) {
        match codec::decode(&bytes) {
            Ok(n) => return Ok(n),
            Err(_) => store.note_poisoned(),
        }
    }
    let n = elaborate(module)?;
    store.put(ArtifactKind::ElabNetlist, hash, &identity, &codec::encode(&n));
    Ok(n)
}

fn encode_opt(netlist: &Netlist, stats: &OptStats) -> Vec<u8> {
    let mut out = codec::encode(netlist);
    out.extend_from_slice(&(stats.gates_removed as u64).to_le_bytes());
    out.extend_from_slice(&(stats.iterations as u64).to_le_bytes());
    out
}

fn decode_opt(bytes: &[u8]) -> Option<(Netlist, OptStats)> {
    if bytes.len() < 16 {
        return None;
    }
    let (net_bytes, tail) = bytes.split_at(bytes.len() - 16);
    let netlist = codec::decode(net_bytes).ok()?;
    let gates_removed = u64::from_le_bytes(tail[..8].try_into().ok()?) as usize;
    let iterations = u64::from_le_bytes(tail[8..].try_into().ok()?) as usize;
    Some((netlist, OptStats { gates_removed, iterations, interrupted: false }))
}

/// Returns an optimized copy of `netlist` (and the optimizer stats),
/// consulting the cache first. Interrupted (partially optimized) results
/// are returned but never cached — the store holds complete artifacts
/// only.
pub fn cached_optimize(
    store: Option<&ArtifactStore>,
    netlist: &Netlist,
    token: &CancelToken,
) -> (Netlist, OptStats) {
    let Some(store) = store else {
        let mut n = netlist.clone();
        let stats = optimize(&mut n);
        return (n, stats);
    };
    let identity = codec::encode(netlist);
    let hash = structural_hash(netlist);
    if let Some(bytes) = store.get(ArtifactKind::OptNetlist, hash, &identity, token) {
        match decode_opt(&bytes) {
            Some(hit) => return hit,
            None => store.note_poisoned(),
        }
    }
    let mut n = netlist.clone();
    let stats = optimize(&mut n);
    if !stats.interrupted {
        store.put(ArtifactKind::OptNetlist, hash, &identity, &encode_opt(&n, &stats));
    }
    (n, stats)
}

fn encode_scoap(s: &Scoap) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + s.co.len() * 12);
    for v in [&s.cc0, &s.cc1, &s.co] {
        out.extend_from_slice(&(v.len() as u32).to_le_bytes());
        for &x in v {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
    out
}

fn decode_scoap(bytes: &[u8], expect_len: usize) -> Option<Scoap> {
    let mut cur = bytes;
    let mut vecs = Vec::with_capacity(3);
    for _ in 0..3 {
        if cur.len() < 4 {
            return None;
        }
        let (len, rest) = cur.split_at(4);
        let len = u32::from_le_bytes(len.try_into().ok()?) as usize;
        if len != expect_len || rest.len() < len * 4 {
            return None;
        }
        let (data, rest) = rest.split_at(len * 4);
        vecs.push(data.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect());
        cur = rest;
    }
    if !cur.is_empty() {
        return None;
    }
    let co = vecs.pop()?;
    let cc1 = vecs.pop()?;
    let cc0 = vecs.pop()?;
    Some(Scoap { cc0, cc1, co })
}

/// SCOAP profile of `netlist`, consulting the cache first.
pub fn cached_scoap(store: Option<&ArtifactStore>, netlist: &Netlist, token: &CancelToken) -> Scoap {
    let Some(store) = store else { return rtlock_netlist::scoap::analyze(netlist) };
    let identity = codec::encode(netlist);
    let hash = structural_hash(netlist);
    if let Some(bytes) = store.get(ArtifactKind::Scoap, hash, &identity, token) {
        match decode_scoap(&bytes, netlist.len()) {
            Some(s) => return s,
            None => store.note_poisoned(),
        }
    }
    let s = rtlock_netlist::scoap::analyze(netlist);
    store.put(ArtifactKind::Scoap, hash, &identity, &encode_scoap(&s));
    s
}

/// A reusable Tseitin encoding of a netlist's combinational function.
///
/// [`CnfBuilder::encode_comb`] takes caller-chosen input/state variables,
/// so the cacheable object is a *template* encoded against canonical
/// variables (inputs `1..=n_in`, states `n_in+1..=n_in+n_state`, internals
/// above). [`CnfTemplate::instantiate`] rewrites the template into a
/// target builder: external variables map to the caller's literals,
/// internal variables shift onto freshly allocated ones. Because
/// `encode_comb` allocates internals in deterministic topological order,
/// instantiation reproduces the exact clause list and variable numbering a
/// direct `encode_comb` call would have produced — cached and uncached
/// attacks solve literally the same CNF.
///
/// The clauses sit in one flat [`Clauses`] buffer, as in the builder. The
/// cold-tier bytes still spell each clause out as its length and literals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CnfTemplate {
    n_in: u32,
    n_state: u32,
    /// Total variables in template numbering (externals + internals).
    num_vars: u32,
    /// Per-gate output literal, template numbering.
    gate_vars: Vec<i32>,
    clauses: Clauses,
}

impl CnfTemplate {
    /// Encodes `netlist` once against canonical variables.
    pub fn build(netlist: &Netlist) -> CnfTemplate {
        let mut cnf = CnfBuilder::new();
        let in_vars: Vec<i32> = netlist.inputs().iter().map(|_| cnf.fresh_var()).collect();
        let state_vars: Vec<i32> = netlist.dffs().iter().map(|_| cnf.fresh_var()).collect();
        let gate_vars = cnf.encode_comb(netlist, &in_vars, &state_vars);
        let n_in = in_vars.len() as u32;
        let n_state = state_vars.len() as u32;
        let (num_vars, clauses) = cnf.into_parts();
        CnfTemplate { n_in, n_state, num_vars: num_vars as u32, gate_vars, clauses }
    }

    /// Replays the template into `cnf` with the caller's external
    /// literals, returning the per-gate literal map (the exact value
    /// `encode_comb` would return).
    ///
    /// # Panics
    ///
    /// Panics if the literal counts do not match the template.
    pub fn instantiate(
        &self,
        cnf: &mut CnfBuilder,
        in_vars: &[i32],
        state_vars: &[i32],
    ) -> Vec<i32> {
        assert_eq!(in_vars.len(), self.n_in as usize, "wrong number of input vars");
        assert_eq!(state_vars.len(), self.n_state as usize, "wrong number of state vars");
        let ext = (self.n_in + self.n_state) as i32;
        let base = cnf.num_vars() as i32;
        for _ in ext..self.num_vars as i32 {
            cnf.fresh_var();
        }
        let map = |l: i32| -> i32 {
            let v = l.abs();
            let m = if v <= self.n_in as i32 {
                in_vars[(v - 1) as usize]
            } else if v <= ext {
                state_vars[(v - 1 - self.n_in as i32) as usize]
            } else {
                base + (v - ext)
            };
            if l < 0 {
                -m
            } else {
                m
            }
        };
        let mut mapped = Vec::with_capacity(8);
        for clause in &self.clauses {
            mapped.clear();
            mapped.extend(clause.iter().map(|&l| map(l)));
            cnf.add_clause(&mapped);
        }
        self.gate_vars.iter().map(|&l| map(l)).collect()
    }

    fn encode_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for v in [self.n_in, self.n_state, self.num_vars] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&(self.gate_vars.len() as u32).to_le_bytes());
        for &l in &self.gate_vars {
            out.extend_from_slice(&l.to_le_bytes());
        }
        out.extend_from_slice(&(self.clauses.len() as u32).to_le_bytes());
        for clause in &self.clauses {
            out.extend_from_slice(&(clause.len() as u32).to_le_bytes());
            for &l in clause {
                out.extend_from_slice(&l.to_le_bytes());
            }
        }
        out
    }

    fn decode_bytes(bytes: &[u8]) -> Option<CnfTemplate> {
        struct R<'a>(&'a [u8]);
        impl R<'_> {
            fn u32(&mut self) -> Option<u32> {
                if self.0.len() < 4 {
                    return None;
                }
                let (w, rest) = self.0.split_at(4);
                self.0 = rest;
                Some(u32::from_le_bytes(w.try_into().ok()?))
            }
            fn i32s(&mut self, n: usize) -> Option<Vec<i32>> {
                if self.0.len() < n * 4 {
                    return None;
                }
                let (data, rest) = self.0.split_at(n * 4);
                self.0 = rest;
                Some(data.chunks_exact(4).map(|c| i32::from_le_bytes(c.try_into().unwrap())).collect())
            }
        }
        let mut r = R(bytes);
        let n_in = r.u32()?;
        let n_state = r.u32()?;
        let num_vars = r.u32()?;
        let gv_len = r.u32()? as usize;
        let gate_vars = r.i32s(gv_len)?;
        let clause_count = r.u32()? as usize;
        let mut clauses = Clauses::new();
        for _ in 0..clause_count {
            let len = r.u32()? as usize;
            clauses.push(&r.i32s(len)?);
        }
        if !r.0.is_empty() {
            return None;
        }
        // Sanity: every literal must reference a template variable.
        let in_range = |l: i32| l != 0 && l.unsigned_abs() <= num_vars;
        if !gate_vars.iter().chain(clauses.iter().flatten()).all(|&l| in_range(l)) {
            return None;
        }
        Some(CnfTemplate { n_in, n_state, num_vars, gate_vars, clauses })
    }
}

/// CNF template for `netlist`, consulting the cache first.
pub fn cached_cnf_template(
    store: Option<&ArtifactStore>,
    netlist: &Netlist,
    token: &CancelToken,
) -> CnfTemplate {
    let Some(store) = store else { return CnfTemplate::build(netlist) };
    let identity = codec::encode(netlist);
    let hash = structural_hash(netlist);
    if let Some(bytes) = store.get(ArtifactKind::Cnf, hash, &identity, token) {
        match CnfTemplate::decode_bytes(&bytes) {
            Some(t) => return t,
            None => store.note_poisoned(),
        }
    }
    let t = CnfTemplate::build(netlist);
    store.put(ArtifactKind::Cnf, hash, &identity, &t.encode_bytes());
    t
}

/// Drop-in cached replacement for [`CnfBuilder::encode_comb`].
pub fn encode_comb_cached(
    store: Option<&ArtifactStore>,
    cnf: &mut CnfBuilder,
    netlist: &Netlist,
    in_vars: &[i32],
    state_vars: &[i32],
    token: &CancelToken,
) -> Vec<i32> {
    match store {
        None => cnf.encode_comb(netlist, in_vars, state_vars),
        Some(_) => cached_cnf_template(store, netlist, token).instantiate(cnf, in_vars, state_vars),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlock_netlist::GateKind;

    fn sample() -> Netlist {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let x = n.add_gate(GateKind::Xor, vec![a, b]);
        let m = n.add_gate(GateKind::Mux, vec![c, x, a]);
        let q = n.add_named_gate(GateKind::Dff { init: false }, vec![m], "q");
        let y = n.add_gate(GateKind::Nand, vec![q, x]);
        n.add_output("y", y);
        n
    }

    #[test]
    fn template_instantiation_matches_direct_encode() {
        let n = sample();
        // Direct encode into a builder with some pre-existing vars.
        let mut direct = CnfBuilder::new();
        let pre: Vec<i32> = (0..5).map(|_| direct.fresh_var()).collect();
        let in_vars = [pre[0], -pre[1], pre[2]];
        let state_vars = [pre[3]];
        let direct_vars = direct.encode_comb(&n, &in_vars, &state_vars);

        let mut via_tpl = CnfBuilder::new();
        let pre2: Vec<i32> = (0..5).map(|_| via_tpl.fresh_var()).collect();
        assert_eq!(pre, pre2);
        let tpl = CnfTemplate::build(&n);
        let tpl_vars = tpl.instantiate(&mut via_tpl, &in_vars, &state_vars);

        assert_eq!(direct_vars, tpl_vars);
        assert_eq!(direct.num_vars(), via_tpl.num_vars());
        assert_eq!(direct.clauses(), via_tpl.clauses());
    }

    #[test]
    fn template_bytes_roundtrip() {
        let tpl = CnfTemplate::build(&sample());
        let bytes = tpl.encode_bytes();
        assert_eq!(CnfTemplate::decode_bytes(&bytes).as_ref(), Some(&tpl));
        for len in 0..bytes.len() {
            let _ = CnfTemplate::decode_bytes(&bytes[..len]);
        }
    }

    /// The cold-tier wire format, as little-endian words: `n_in`,
    /// `n_state`, `num_vars`, the gate-literal count and literals, then
    /// the clause count and each clause as its length and literals.
    /// Entries already on disk must stay readable, so this never changes.
    #[test]
    fn template_bytes_keep_their_wire_format() {
        let bytes = CnfTemplate::build(&sample()).encode_bytes();
        let words: Vec<i32> =
            bytes.chunks_exact(4).map(|w| i32::from_le_bytes(w.try_into().unwrap())).collect();
        #[rustfmt::skip]
        let pinned = [
            3, 1, 7,
            7, 1, 2, 3, 5, 6, 4, 7,
            11,
            3, -5, 1, 2, 3, -5, -1, -2, 3, 5, -1, 2, 3, 5, 1, -2,
            3, 3, -5, 6, 3, 3, 5, -6, 3, -3, -1, 6, 3, -3, 1, -6,
            2, 7, 4, 2, 7, 5, 3, -7, -4, -5,
        ];
        assert_eq!(words, pinned);
        let decoded = CnfTemplate::decode_bytes(&bytes).expect("decodes");
        assert_eq!(decoded.encode_bytes(), bytes);
    }

    #[test]
    fn cached_scoap_hits_return_exact_profile() {
        let n = sample();
        let store = ArtifactStore::in_memory();
        let t = CancelToken::unlimited();
        let cold = cached_scoap(Some(&store), &n, &t);
        let warm = cached_scoap(Some(&store), &n, &t);
        assert_eq!(cold, warm);
        assert_eq!(cold, rtlock_netlist::scoap::analyze(&n));
        let st = store.stats();
        assert_eq!((st.hits, st.misses), (1, 1));
    }

    #[test]
    fn cached_optimize_hot_equals_cold() {
        let n = sample();
        let store = ArtifactStore::in_memory();
        let t = CancelToken::unlimited();
        let (cold, cold_stats) = cached_optimize(Some(&store), &n, &t);
        let (warm, warm_stats) = cached_optimize(Some(&store), &n, &t);
        assert_eq!(cold, warm);
        assert_eq!(cold_stats, warm_stats);
        let (plain, _) = cached_optimize(None, &n, &t);
        assert_eq!(cold, plain);
        assert_eq!(store.stats().hits, 1);
    }

    #[test]
    fn cached_elaborate_hot_equals_cold() {
        let m = rtlock_rtl::parse(
            "module t(input a, input b, output y);\n  assign y = a & b;\nendmodule",
        )
        .expect("parse");
        let store = ArtifactStore::in_memory();
        let t = CancelToken::unlimited();
        let cold = cached_elaborate(Some(&store), &m, &t).expect("elab");
        let warm = cached_elaborate(Some(&store), &m, &t).expect("elab");
        assert_eq!(cold, warm);
        assert_eq!(cold, elaborate(&m).expect("elab"));
        assert_eq!(store.stats().hits, 1);
    }
}
