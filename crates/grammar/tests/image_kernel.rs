//! Equivalence of the packed FST image kernel with the reference
//! worklist construction it replaced, plus its budget contract and the
//! pinned prepared-grammar fingerprints.
//!
//! `oracle::image_with` is the HashMap-per-nonterminal worklist image
//! kept verbatim as a reference: it builds a standalone grammar that
//! `Cfg::import_from` then copies into the arena. The kernel must give
//! the same bounded language, the same tainted sub-languages, and the
//! same arena growth (|V| and |R|) as that two-step path.

use std::collections::BTreeSet;

use proptest::prelude::*;

use strtaint_automata::byteset::ByteSet;
use strtaint_automata::fst::{builders, Fst};
use strtaint_automata::{Dfa, Regex};
use strtaint_grammar::budget::Resource;
use strtaint_grammar::image::{image, image_into};
use strtaint_grammar::{Budget, Cfg, NtId, PreparedGrammar, Symbol, Taint};

mod oracle {
    use std::collections::HashMap;

    use strtaint_automata::fst::{resolve_output, Fst};
    use strtaint_automata::StateId;

    use strtaint_grammar::budget::{Budget, BudgetExceeded};
    use strtaint_grammar::normal::normalize;
    use strtaint_grammar::Cfg;
    use strtaint_grammar::{NtId, Symbol};

    /// The reference image: the worklist construction the packed kernel
    /// replaced, returning a standalone grammar and its root.
    pub fn image_with(
        g: &Cfg,
        root: NtId,
        fst: &Fst,
        budget: &Budget,
    ) -> Result<(Cfg, NtId), BudgetExceeded> {
        assert!(
            !fst.has_input_epsilons(),
            "image requires an input-epsilon-free transducer"
        );
        let (trimmed, troot) = g.trimmed(root);
        let norm = normalize(&trimmed);
        let nv = norm.num_nonterminals();
        let q = fst.num_states() as u32;

        // Terminal step relation with outputs: steps[b][i] = [(j, out)].
        let mut used_bytes: Vec<u8> = Vec::new();
        for (_, rhs) in norm.iter_productions() {
            for s in rhs {
                if let Symbol::T(b) = s {
                    used_bytes.push(*b);
                }
            }
        }
        used_bytes.sort_unstable();
        used_bytes.dedup();
        let mut steps: HashMap<u8, Vec<Vec<(u32, Vec<u8>)>>> = HashMap::new();
        for &b in &used_bytes {
            let mut per_state: Vec<Vec<(u32, Vec<u8>)>> = Vec::with_capacity(q as usize);
            for i in 0..q {
                let mut v = Vec::new();
                for arc in fst.arcs(i as StateId) {
                    if arc.input.contains(b) {
                        v.push((arc.target, resolve_output(&arc.output, b)));
                    }
                }
                per_state.push(v);
            }
            steps.insert(b, per_state);
        }

        // Worklist discovery of realized triples (X, i, j), identical in
        // structure to `intersect` but nondeterministic on terminals.
        let mut by_start: Vec<HashMap<u32, Vec<u32>>> = vec![HashMap::new(); nv];
        let mut by_end: Vec<HashMap<u32, Vec<u32>>> = vec![HashMap::new(); nv];
        let mut worklist: Vec<(NtId, u32, u32)> = Vec::new();
        let mut triples: usize = 0;

        macro_rules! discover {
            ($x:expr, $i:expr, $j:expr) => {{
                budget.charge(1)?;
                let (x, i, j): (NtId, u32, u32) = ($x, $i, $j);
                let ends = by_start[x.index()].entry(i).or_default();
                if !ends.contains(&j) {
                    ends.push(j);
                    by_end[x.index()].entry(j).or_default().push(i);
                    triples += 1;
                    budget.check_grammar_size(triples)?;
                    worklist.push((x, i, j));
                }
            }};
        }

        // Occurrence indexes.
        let mut occ_unit: Vec<Vec<(NtId, usize)>> = vec![Vec::new(); nv];
        let mut occ_left: Vec<Vec<(NtId, usize)>> = vec![Vec::new(); nv];
        let mut occ_right: Vec<Vec<(NtId, usize)>> = vec![Vec::new(); nv];
        let mut all_prods: Vec<(NtId, Vec<Symbol>)> = Vec::new();
        for (lhs, rhs) in norm.iter_productions() {
            let pid = all_prods.len();
            all_prods.push((lhs, rhs.to_vec()));
            match rhs {
                [Symbol::N(x)] => occ_unit[x.index()].push((lhs, pid)),
                [Symbol::T(_), Symbol::N(x)] => occ_right[x.index()].push((lhs, pid)),
                [Symbol::N(x), Symbol::T(_)] => occ_left[x.index()].push((lhs, pid)),
                [Symbol::N(x), Symbol::N(y)] => {
                    occ_left[x.index()].push((lhs, pid));
                    occ_right[y.index()].push((lhs, pid));
                }
                _ => {}
            }
        }

        // Byte-pair reachability helper.
        let t_steps = |b: u8, i: u32| -> &[(u32, Vec<u8>)] { &steps[&b][i as usize] };
        // Reverse byte step: all i with i --b--> j.
        let mut t_rev: HashMap<u8, HashMap<u32, Vec<u32>>> = HashMap::new();
        for &b in &used_bytes {
            let mut rev: HashMap<u32, Vec<u32>> = HashMap::new();
            for i in 0..q {
                for (j, _) in t_steps(b, i) {
                    rev.entry(*j).or_default().push(i);
                }
            }
            t_rev.insert(b, rev);
        }

        // Seed.
        for (lhs, rhs) in norm.iter_productions() {
            match rhs {
                [] => {
                    for i in 0..q {
                        discover!(lhs, i, i);
                    }
                }
                [Symbol::T(a)] => {
                    for i in 0..q {
                        for (j, _) in t_steps(*a, i) {
                            discover!(lhs, i, *j);
                        }
                    }
                }
                [Symbol::T(a), Symbol::T(b)] => {
                    for i in 0..q {
                        for (m, _) in t_steps(*a, i).to_vec() {
                            for (j, _) in t_steps(*b, m) {
                                discover!(lhs, i, *j);
                            }
                        }
                    }
                }
                _ => {}
            }
        }

        while let Some((x, i, j)) = worklist.pop() {
            budget.charge(1)?;
            for &(lhs, _) in occ_unit[x.index()].clone().iter() {
                discover!(lhs, i, j);
            }
            for &(lhs, pid) in occ_right[x.index()].clone().iter() {
                match all_prods[pid].1.as_slice() {
                    [Symbol::T(a), Symbol::N(_)] => {
                        if let Some(starts) = t_rev[a].get(&i) {
                            for &i0 in starts.clone().iter() {
                                discover!(lhs, i0, j);
                            }
                        }
                    }
                    [Symbol::N(left), Symbol::N(_)] => {
                        if let Some(starts) = by_end[left.index()].get(&i).cloned() {
                            for i0 in starts {
                                discover!(lhs, i0, j);
                            }
                        }
                    }
                    _ => unreachable!(),
                }
            }
            for &(lhs, pid) in occ_left[x.index()].clone().iter() {
                match all_prods[pid].1.as_slice() {
                    [Symbol::N(_), Symbol::T(b)] => {
                        for (k, _) in t_steps(*b, j).to_vec() {
                            discover!(lhs, i, k);
                        }
                    }
                    [Symbol::N(_), Symbol::N(right)] => {
                        if let Some(ends) = by_start[right.index()].get(&j).cloned() {
                            for k in ends {
                                discover!(lhs, i, k);
                            }
                        }
                    }
                    _ => unreachable!(),
                }
            }
        }

        // Reconstruction.
        let mut out = Cfg::new();
        let out_root = out.add_nonterminal(format!("{}↦", g.name(root)));
        out.set_taint(out_root, g.taint(root));
        let mut map: HashMap<(u32, u32, u32), NtId> = HashMap::new();
        for x in norm.nonterminals() {
            for (&i, ends) in &by_start[x.index()] {
                for &j in ends {
                    let id = out.add_nonterminal(norm.name(x));
                    out.set_taint(id, norm.taint(x)); // TAINTIF
                    map.insert((x.0, i, j), id);
                }
            }
        }
        let lit = |bytes: &[u8]| -> Vec<Symbol> { bytes.iter().map(|&b| Symbol::T(b)).collect() };
        for x in norm.nonterminals() {
            for (&i, ends) in &by_start[x.index()] {
                for &j in ends {
                    budget.charge(1)?;
                    let lhs = map[&(x.0, i, j)];
                    for rhs in norm.productions(x) {
                        match rhs.as_slice() {
                            [] => {
                                if i == j {
                                    out.add_production(lhs, vec![]);
                                }
                            }
                            [Symbol::T(a)] => {
                                for (t, outb) in t_steps(*a, i) {
                                    if *t == j {
                                        out.add_production(lhs, lit(outb));
                                    }
                                }
                            }
                            [Symbol::N(y)] => {
                                if let Some(&sub) = map.get(&(y.0, i, j)) {
                                    out.add_production(lhs, vec![Symbol::N(sub)]);
                                }
                            }
                            [Symbol::T(a), Symbol::T(b)] => {
                                for (m, out_a) in t_steps(*a, i) {
                                    for (t, out_b) in t_steps(*b, *m) {
                                        if *t == j {
                                            let mut r = lit(out_a);
                                            r.extend(lit(out_b));
                                            out.add_production(lhs, r);
                                        }
                                    }
                                }
                            }
                            [Symbol::T(a), Symbol::N(y)] => {
                                for (m, out_a) in t_steps(*a, i) {
                                    if let Some(&sub) = map.get(&(y.0, *m, j)) {
                                        let mut r = lit(out_a);
                                        r.push(Symbol::N(sub));
                                        out.add_production(lhs, r);
                                    }
                                }
                            }
                            [Symbol::N(y), Symbol::T(b)] => {
                                if let Some(mids) = by_start[y.index()].get(&i) {
                                    for &m in mids {
                                        for (t, out_b) in t_steps(*b, m) {
                                            if *t == j {
                                                let sub = map[&(y.0, i, m)];
                                                let mut r = vec![Symbol::N(sub)];
                                                r.extend(lit(out_b));
                                                out.add_production(lhs, r);
                                            }
                                        }
                                    }
                                }
                            }
                            [Symbol::N(y), Symbol::N(z)] => {
                                if let Some(mids) = by_start[y.index()].get(&i) {
                                    for &m in mids {
                                        if by_start[z.index()]
                                            .get(&m)
                                            .is_some_and(|v| v.contains(&j))
                                        {
                                            let sy = map[&(y.0, i, m)];
                                            let sz = map[&(z.0, m, j)];
                                            out.add_production(
                                                lhs,
                                                vec![Symbol::N(sy), Symbol::N(sz)],
                                            );
                                        }
                                    }
                                }
                            }
                            _ => unreachable!("grammar is normalized"),
                        }
                    }
                }
            }
        }
        // Start productions: root triples from the FST start to final states,
        // appending per-state flush output.
        let q0 = fst.start();
        for qf in 0..q {
            if let Some(flush) = fst.final_output(qf as StateId) {
                if let Some(&sub) = map.get(&(troot.0, q0, qf)) {
                    let mut rhs = vec![Symbol::N(sub)];
                    rhs.extend(lit(flush));
                    out.add_production(out_root, rhs);
                }
            }
        }
        Ok((out, out_root))
    }
}

/// Every string of length at most `max` that `root` derives.
fn bounded(g: &Cfg, root: NtId, max: usize) -> BTreeSet<Vec<u8>> {
    let ids = g.reachable_list(root);
    let mut sets: Vec<BTreeSet<Vec<u8>>> = vec![BTreeSet::new(); g.num_nonterminals()];
    loop {
        let mut changed = false;
        for &id in &ids {
            for rhs in g.productions(id) {
                let mut partial: BTreeSet<Vec<u8>> = BTreeSet::from([Vec::new()]);
                for s in rhs {
                    let mut next = BTreeSet::new();
                    for p in &partial {
                        match s {
                            Symbol::T(b) if p.len() < max => {
                                let mut v = p.clone();
                                v.push(*b);
                                next.insert(v);
                            }
                            Symbol::T(_) => {}
                            Symbol::N(n) => {
                                for tail in &sets[n.index()] {
                                    if p.len() + tail.len() <= max {
                                        let mut v = p.clone();
                                        v.extend_from_slice(tail);
                                        next.insert(v);
                                    }
                                }
                            }
                        }
                    }
                    partial = next;
                }
                for p in partial {
                    changed |= sets[id.index()].insert(p);
                }
            }
        }
        if !changed {
            return std::mem::take(&mut sets[root.index()]);
        }
    }
}

/// `(taint, string)` for every bounded string some tainted nonterminal
/// reachable from `root` derives.
fn tainted(g: &Cfg, root: NtId, max: usize) -> BTreeSet<(String, Vec<u8>)> {
    let mut out = BTreeSet::new();
    for id in g.reachable_list(root) {
        if !g.taint(id).is_empty() {
            for s in bounded(g, id, max) {
                out.insert((g.taint(id).to_string(), s));
            }
        }
    }
    out
}

/// Every transducer builder, with small parameters.
fn all_fsts() -> Vec<(&'static str, Fst)> {
    let pattern = Dfa::from_nfa(&Regex::new("a+b").unwrap().anchored_nfa()).minimize();
    vec![
        ("identity", builders::identity()),
        ("constant", builders::constant(b"N")),
        (
            "byte_map",
            builders::byte_map(|b| if b == b'a' { b'b' } else { b }),
        ),
        ("lowercase", builders::lowercase()),
        ("uppercase", builders::uppercase()),
        ("ucfirst", builders::ucfirst()),
        ("lcfirst", builders::lcfirst()),
        ("addslashes", builders::addslashes()),
        ("mysql_escape", builders::mysql_escape()),
        ("stripslashes", builders::stripslashes()),
        (
            "delete_set",
            builders::delete_set(ByteSet::from_bytes(*b"'b")),
        ),
        ("replace_literal", builders::replace_literal(b"ab", b"<Q>")),
        ("trim", builders::trim()),
        ("ltrim", builders::ltrim()),
        ("rtrim", builders::rtrim()),
        ("replace_regex", builders::replace_regex(&pattern, b"R")),
        ("figure6", builders::figure6()),
    ]
}

/// Runs both paths on a copy of `g` and checks they agree.
fn assert_equivalent(g: &Cfg, root: NtId, name: &str, fst: &Fst) {
    let unlimited = Budget::unlimited();
    let mut reference = g.clone();
    let (standalone, sroot) = oracle::image_with(g, root, fst, &unlimited).unwrap();
    let want = reference.import_from(&standalone, sroot);
    let mut arena = g.clone();
    let got = arena.add_nonterminal("");
    image_into(&mut arena, root, fst, &unlimited, got).unwrap();
    assert_eq!(got, want, "{name}: image root id");
    assert_eq!(
        arena.num_nonterminals(),
        reference.num_nonterminals(),
        "{name}: |V|"
    );
    assert_eq!(
        arena.num_productions(),
        reference.num_productions(),
        "{name}: |R|"
    );
    assert_eq!(
        bounded(&arena, got, 8),
        bounded(&reference, want, 8),
        "{name}: language"
    );
    assert_eq!(
        tainted(&arena, got, 8),
        tainted(&reference, want, 8),
        "{name}: tainted strings"
    );
    // The standalone form is the same grammar, numbered from zero.
    let (alone, aroot) = image(g, root, fst);
    assert_eq!(
        alone.num_productions(),
        arena.num_productions() - g.num_productions()
    );
    assert_eq!(
        bounded(&alone, aroot, 8),
        bounded(&arena, got, 8),
        "{name}: standalone"
    );
}

/// A random grammar: up to four nonterminals, each with one to four
/// productions of up to four symbols over a small alphabet that the
/// transducers treat specially (quotes, backslashes, spaces, pattern
/// bytes). Nonterminal references point forward, or back to the same
/// nonterminal for right or left recursion, so languages stay small.
fn grammar() -> impl Strategy<Value = (Cfg, NtId)> {
    let sym = (0usize..12, 0usize..4);
    let prod = proptest::collection::vec(sym, 0..5);
    let nt = (proptest::collection::vec(prod, 1..5), 0usize..3);
    proptest::collection::vec(nt, 1..5).prop_map(|nts| {
        const ALPHABET: &[u8] = b"ab' \\Aa";
        let mut g = Cfg::new();
        let ids: Vec<NtId> = (0..nts.len())
            .map(|k| g.add_nonterminal(format!("X{k}")))
            .collect();
        for (k, (prods, taint)) in nts.iter().enumerate() {
            g.set_taint(
                ids[k],
                [Taint::NONE, Taint::DIRECT, Taint::INDIRECT][*taint],
            );
            for (p, rhs) in prods.iter().enumerate() {
                let rhs = rhs
                    .iter()
                    .map(|&(kind, v)| match kind {
                        // The first production stays nonrecursive so
                        // every nonterminal is productive.
                        10..=11 if p > 0 => Symbol::N(ids[k]),
                        6..=11 if k + 1 + v < ids.len() => Symbol::N(ids[k + 1 + v]),
                        _ => Symbol::T(ALPHABET[(kind + v) % ALPHABET.len()]),
                    })
                    .collect();
                g.add_production(ids[k], rhs);
            }
        }
        (g, ids[0])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kernel_matches_reference_on_every_builder((g, root) in grammar()) {
        // Keep enumeration cheap: the images of large languages make
        // the bounded comparison slow without covering more shapes.
        prop_assume!(bounded(&g, root, 8).len() <= 48);
        for (name, fst) in all_fsts() {
            assert_equivalent(&g, root, name, &fst);
        }
    }
}

#[test]
fn kernel_matches_reference_on_unproductive_and_empty_roots() {
    let mut g = Cfg::new();
    let dead = g.add_nonterminal("dead");
    g.add_production(dead, vec![Symbol::N(dead)]);
    let eps = g.add_nonterminal("eps");
    g.add_production(eps, vec![]);
    for (name, fst) in all_fsts() {
        assert_equivalent(&g, dead, name, &fst);
        assert_equivalent(&g, eps, name, &fst);
    }
}

/// A pattern longer than 64 bytes gives `replace_literal` more than 64
/// states, so every relation row spans two words.
#[test]
fn multi_word_rows_match_reference() {
    let pat: Vec<u8> = (0..70u8).map(|k| b'a' + k % 3).collect();
    let fst = builders::replace_literal(&pat, b"<P>");
    assert!(fst.num_states() > 64);
    let mut g = Cfg::new();
    let body = g.add_nonterminal("body");
    g.set_taint(body, Taint::DIRECT);
    g.add_literal_production(body, &pat);
    g.add_literal_production(body, &pat[..40]);
    let mut rhs = g.literal_symbols(b"x");
    rhs.push(Symbol::N(body));
    g.add_production(body, rhs);
    let root = g.add_nonterminal("root");
    g.add_production(
        root,
        vec![Symbol::N(body), Symbol::T(b'|'), Symbol::N(body)],
    );
    assert_equivalent(&g, root, "replace_literal/70", &fst);

    let (out, r) = image(&g, root, &fst);
    assert!(out.derives(r, b"<P>|x<P>"));
    let mut pending = pat[..40].to_vec();
    pending.extend_from_slice(b"|<P>");
    assert!(out.derives(r, &pending));
    let mut raw = pat.clone();
    raw.extend_from_slice(b"|<P>");
    assert!(!out.derives(r, &raw));
}

/// A grammar whose image is large enough that the budget can trip at
/// every stage: nested alternations under `addslashes`.
fn wide_grammar() -> (Cfg, NtId) {
    let mut g = Cfg::new();
    let leaf = g.add_nonterminal("leaf");
    g.set_taint(leaf, Taint::DIRECT);
    for lit in [&b"a'"[..], b"b\\", b"c", b"''"] {
        g.add_literal_production(leaf, lit);
    }
    let mut prev = leaf;
    for k in 0..6 {
        let n = g.add_nonterminal(format!("level{k}"));
        g.add_production(n, vec![Symbol::N(prev), Symbol::T(b','), Symbol::N(prev)]);
        g.add_production(n, vec![Symbol::T(b'('), Symbol::N(n), Symbol::T(b')')]);
        g.add_production(n, vec![Symbol::N(leaf)]);
        prev = n;
    }
    (g, prev)
}

/// Arena contents, for checking that a failed image wrote nothing.
fn snapshot(g: &Cfg) -> (usize, usize, String) {
    (g.num_nonterminals(), g.num_productions(), format!("{g:?}"))
}

#[test]
fn fuel_trips_in_fixpoint_and_rebuild_leave_arena_untouched() {
    let (g, root) = wide_grammar();
    let fst = builders::addslashes();

    // Measure the total charge and the rebuild's share (one unit per
    // emitted triple: every image nonterminal but the root).
    let metered = Budget::new(None, Some(u64::MAX / 2), None);
    let mut arena = g.clone();
    let out = arena.add_nonterminal("");
    image_into(&mut arena, root, &fst, &metered, out).unwrap();
    let total = u64::MAX / 2 - metered.fuel_left().unwrap();
    let rebuild = (arena.num_nonterminals() - out.index() - 1) as u64;
    assert!(total > rebuild && rebuild > 0);
    let fixpoint = total - rebuild;

    for fuel in [1, fixpoint / 2, fixpoint - 1, fixpoint + 1, total - 1] {
        let mut arena = g.clone();
        let into = arena.add_nonterminal("");
        let before = snapshot(&arena);
        let err = image_into(
            &mut arena,
            root,
            &fst,
            &Budget::new(None, Some(fuel), None),
            into,
        )
        .expect_err("fuel below the total charge must trip");
        assert_eq!(err.resource, Resource::Fuel, "fuel {fuel}");
        assert_eq!(
            snapshot(&arena),
            before,
            "arena changed after a trip at fuel {fuel}"
        );
    }
    let mut arena = g.clone();
    let into = arena.add_nonterminal("");
    image_into(
        &mut arena,
        root,
        &fst,
        &Budget::new(None, Some(total), None),
        into,
    )
    .expect("the measured total suffices");
}

#[test]
fn grammar_cap_trips_as_triples_grow_and_leaves_arena_untouched() {
    let (g, root) = wide_grammar();
    let fst = builders::addslashes();
    // The reference worklist counts every realized triple; the kernel's
    // cap must trip at exactly the same size.
    let realized = {
        let mut cap = 1;
        while oracle::image_with(&g, root, &fst, &Budget::new(None, None, Some(cap))).is_err() {
            cap += 1;
        }
        cap
    };
    let mut arena = g.clone();
    let into = arena.add_nonterminal("");
    let before = snapshot(&arena);
    let err = image_into(
        &mut arena,
        root,
        &fst,
        &Budget::new(None, None, Some(realized - 1)),
        into,
    )
    .expect_err("a cap below the realized triple count must trip");
    assert_eq!(err.resource, Resource::GrammarSize);
    assert_eq!(snapshot(&arena), before);
    image_into(
        &mut arena,
        root,
        &fst,
        &Budget::new(None, None, Some(realized)),
        into,
    )
    .expect("a cap at the realized triple count suffices");
    // A cap far below the final count trips long before the fixpoint
    // ends, so it charges less fuel than a full run.
    let full = Budget::new(None, Some(u64::MAX / 2), None);
    let mut arena = g.clone();
    let into = arena.add_nonterminal("");
    image_into(&mut arena.clone(), root, &fst, &full, into).unwrap();
    let early = Budget::new(None, Some(u64::MAX / 2), Some(2));
    assert!(image_into(&mut arena, root, &fst, &early, into).is_err());
    assert!(early.fuel_left().unwrap() > full.fuel_left().unwrap());
}

/// The grammars whose prepared fingerprints are pinned.
fn pinned_grammars() -> Vec<(&'static str, Cfg, NtId)> {
    let mut out = Vec::new();

    // A -> '(' A ')' | 'x'
    let mut g = Cfg::new();
    let a = g.add_nonterminal("A");
    g.add_production(a, vec![Symbol::T(b'('), Symbol::N(a), Symbol::T(b')')]);
    g.add_literal_production(a, b"x");
    out.push(("parens", g, a));

    // Long rules (chain helpers), a tainted operand, left recursion, a
    // dead alternative, a productive nonterminal reachable only through
    // that dead alternative, and an unreachable one.
    let mut g = Cfg::new();
    let zed = g.add_nonterminal("Z");
    g.add_literal_production(zed, b"z");
    let r = g.add_nonterminal("R");
    let u = g.add_nonterminal("U");
    let d = g.add_nonterminal("D");
    let q = g.add_nonterminal("Q");
    let e = g.add_nonterminal("E");
    g.set_taint(u, Taint::DIRECT);
    let mut rhs = g.literal_symbols(b"SELECT ");
    rhs.push(Symbol::N(u));
    rhs.extend(g.literal_symbols(b" FROM t"));
    g.add_production(r, rhs);
    g.add_production(r, vec![Symbol::N(d), Symbol::T(b'x')]);
    g.add_production(r, vec![Symbol::N(r), Symbol::T(b','), Symbol::N(u)]);
    g.add_literal_production(u, b"1");
    g.add_literal_production(u, b"it's");
    g.add_production(u, vec![Symbol::N(e)]);
    g.add_production(d, vec![Symbol::N(d), Symbol::T(b'd')]);
    g.add_production(d, vec![Symbol::N(q), Symbol::N(d)]);
    g.add_literal_production(q, b"q");
    g.add_production(e, vec![]);
    out.push(("query", g, r));

    // id='<any>' over the arena's Σ* nonterminal, with an indirect label.
    let mut g = Cfg::new();
    let any = g.any_string_nt();
    g.set_taint(any, Taint::INDIRECT);
    let s = g.add_nonterminal("S");
    let mut rhs = g.literal_symbols(b"id='");
    rhs.push(Symbol::N(any));
    rhs.push(Symbol::T(b'\''));
    g.add_production(s, rhs);
    out.push(("sigma-star", g, s));
    out
}

/// Prepared fingerprints key the query cache and the preparation memo;
/// these values were recorded with the two-copy trim + normalize
/// construction and must not move.
#[test]
fn prepared_fingerprints_are_pinned() {
    let pinned = [
        ("parens", (0x1ad2_eb3a_3c81_fe74, 0xa344_b4ec_1e31_446b), 2),
        ("query", (0x6d5a_2a28_f721_2c02, 0xbccd_a28c_1d88_8a69), 20),
        (
            "sigma-star",
            (0x4b9f_b4bb_83ec_6b1a, 0x2bcf_9536_bdb9_9e37),
            6,
        ),
    ];
    for ((name, g, root), (want_name, fp, nv)) in pinned_grammars().into_iter().zip(pinned) {
        assert_eq!(name, want_name);
        let prep = PreparedGrammar::new(&g, root);
        assert_eq!(prep.fingerprint(), fp, "{name}");
        assert_eq!(prep.num_nonterminals(), nv, "{name}");
    }
}
