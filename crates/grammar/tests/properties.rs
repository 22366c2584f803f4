//! Property-based tests of the grammar algebra (normalization,
//! intersection, image) against membership oracles.

use proptest::prelude::*;

use strtaint_automata::fst::builders;
use strtaint_automata::Regex;
use strtaint_grammar::image::{image, image_into};
use strtaint_grammar::intersect::{intersect, is_intersection_empty};
use strtaint_grammar::lang::{sample_strings, shortest_string};
use strtaint_grammar::normal::{is_normalized, normalize};
use strtaint_grammar::{Budget, Cfg, NtId, Symbol, Taint};

/// A small random grammar: literals, concatenations, alternations, and
/// an optional self-recursive wrap.
fn grammar() -> impl Strategy<Value = (Cfg, NtId)> {
    let lit = prop_oneof![
        Just(b"a".to_vec()),
        Just(b"bb".to_vec()),
        Just(b"a'c".to_vec()),
        Just(b"12".to_vec()),
        Just(b"".to_vec()),
    ];
    (
        proptest::collection::vec(lit, 1..4),
        proptest::bool::ANY,
        proptest::bool::ANY,
    )
        .prop_map(|(lits, recursive, wrap)| {
            let mut g = Cfg::new();
            let leaf = g.add_nonterminal("leaf");
            for l in &lits {
                g.add_literal_production(leaf, l);
            }
            let root = g.add_nonterminal("root");
            if wrap {
                let mut rhs = g.literal_symbols(b"[");
                rhs.push(Symbol::N(leaf));
                rhs.extend(g.literal_symbols(b"]"));
                g.add_production(root, rhs);
            } else {
                g.add_production(root, vec![Symbol::N(leaf)]);
            }
            if recursive {
                // root -> root leaf (left recursion)
                g.add_production(root, vec![Symbol::N(root), Symbol::N(leaf)]);
            }
            (g, root)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn normalization_preserves_membership((g, root) in grammar()) {
        let n = normalize(&g);
        prop_assert!(is_normalized(&n));
        for s in sample_strings(&g, root, 10, 12) {
            prop_assert!(n.derives(root, &s), "{:?}", s);
        }
        // And conversely on samples of the normalized grammar.
        for s in sample_strings(&n, root, 10, 12) {
            prop_assert!(g.derives(root, &s), "{:?}", s);
        }
    }

    #[test]
    fn intersection_is_exact((g, root) in grammar()) {
        let dfa = Regex::new("'").unwrap().match_dfa(); // contains a quote
        let (out, new_root) = intersect(&g, root, &dfa);
        for s in sample_strings(&g, root, 10, 16) {
            let expected = dfa.accepts(&s);
            prop_assert_eq!(out.derives(new_root, &s), expected, "{:?}", s);
        }
        // Emptiness agrees with the constructed grammar.
        prop_assert_eq!(
            is_intersection_empty(&g, root, &dfa),
            out.is_empty_language(new_root)
        );
    }

    #[test]
    fn image_agrees_with_transduction((g, root) in grammar()) {
        let fst = builders::addslashes();
        let (out, new_root) = image(&g, root, &fst);
        for s in sample_strings(&g, root, 10, 12) {
            let expected = fst.transduce_unique(&s).expect("addslashes is a function");
            prop_assert!(out.derives(new_root, &expected), "{:?} -> {:?}", s, expected);
        }
    }

    #[test]
    fn shortest_string_is_derivable_and_minimal((g, root) in grammar()) {
        if let Some(w) = shortest_string(&g, root) {
            prop_assert!(g.derives(root, &w));
            for s in sample_strings(&g, root, 10, 16) {
                prop_assert!(s.len() >= w.len(), "{:?} shorter than witness {:?}", s, w);
            }
        } else {
            prop_assert!(g.is_empty_language(root));
        }
    }

    #[test]
    fn trim_preserves_language_and_taint((g, root) in grammar()) {
        let (t, new_root) = g.trimmed(root);
        for s in sample_strings(&g, root, 10, 12) {
            prop_assert!(t.derives(new_root, &s));
        }
        prop_assert!(t.num_productions() <= g.num_productions());
    }

    #[test]
    fn import_roundtrip((g, root) in grammar()) {
        let mut host = Cfg::new();
        host.literal_nonterminal("unrelated", b"zzz");
        let new_root = host.import_from(&g, root);
        for s in sample_strings(&g, root, 10, 12) {
            prop_assert!(host.derives(new_root, &s));
        }
    }
}

/// One step of an arena-building script. Indices pick among the
/// nonterminals that exist when the step runs (modulo their count).
#[derive(Debug, Clone)]
enum Op {
    Nonterminal(u8),
    /// Target, then symbols: `(true, k)` is nonterminal `k`, `(false,
    /// k)` a terminal.
    Production(usize, Vec<(bool, usize)>),
    Name(usize, u8),
    Taint(usize, u8),
    /// Operand root, placeholder pick among the nonterminals without
    /// productions, transducer pick.
    Image(usize, usize, u8),
}

fn op() -> impl Strategy<Value = Op> {
    let production = || {
        let sym = (proptest::bool::ANY, 0..16usize);
        (0..16usize, proptest::collection::vec(sym, 0..4))
            .prop_map(|(t, rhs)| Op::Production(t, rhs))
    };
    // Productions weigh most: three arms of six.
    prop_oneof![
        (0..256usize).prop_map(|k| Op::Nonterminal(k as u8)),
        production(),
        production(),
        production(),
        (0..16usize, 0..256usize, 0..4usize).prop_map(|(t, k, which)| match which {
            0 | 1 => Op::Name(t, k as u8),
            _ => Op::Taint(t, k as u8 % 4),
        }),
        (0..16usize, 0..16usize, 0..3usize).prop_map(|(r, p, f)| Op::Image(r, p, f as u8)),
    ]
}

/// The arena's contents kept the plain way: per nonterminal its name,
/// taint and a `Vec` per production.
#[derive(Default)]
struct Model {
    names: Vec<String>,
    taints: Vec<Taint>,
    prods: Vec<Vec<Vec<Symbol>>>,
}

impl Model {
    fn add(&mut self, name: &str, taint: Taint) -> NtId {
        self.names.push(name.to_owned());
        self.taints.push(taint);
        self.prods.push(Vec::new());
        NtId(self.names.len() as u32 - 1)
    }

    /// A fresh arena holding the model's grammar, built without any
    /// interleaving.
    fn build(&self) -> Cfg {
        let mut g = Cfg::new();
        for (k, name) in self.names.iter().enumerate() {
            let id = g.add_nonterminal(name);
            g.set_taint(id, self.taints[k]);
        }
        for (k, rules) in self.prods.iter().enumerate() {
            for rhs in rules {
                g.add_production(NtId(k as u32), rhs.clone());
            }
        }
        g
    }

    /// Nonterminals reachable from `root`, breadth first.
    fn reach(&self, root: NtId) -> Vec<NtId> {
        let mut order = vec![root];
        let mut cursor = 0;
        while cursor < order.len() {
            for rhs in &self.prods[order[cursor].index()] {
                for s in rhs {
                    if let Symbol::N(t) = *s {
                        if !order.contains(&t) {
                            order.push(t);
                        }
                    }
                }
            }
            cursor += 1;
        }
        order
    }

    /// `trimmed`, the slow way: productive by repeated sweeps, the root
    /// kept as 0 and the other productive nonterminals in reach order; a
    /// production survives when every nonterminal in it is productive
    /// (so an unproductive root keeps none, and is mentioned by none).
    fn trimmed(&self, root: NtId) -> Model {
        let order = self.reach(root);
        let mut productive = vec![false; self.names.len()];
        let mut changed = true;
        while changed {
            changed = false;
            for &x in &order {
                let fires = self.prods[x.index()].iter().any(|rhs| {
                    rhs.iter()
                        .all(|s| s.as_nt().is_none_or(|t| productive[t.index()]))
                });
                if fires && !productive[x.index()] {
                    productive[x.index()] = true;
                    changed = true;
                }
            }
        }
        let kept: Vec<NtId> = order
            .iter()
            .copied()
            .filter(|&x| x == root || productive[x.index()])
            .collect();
        let new_id = |t: NtId| kept.iter().position(|&k| k == t);
        let mut out = Model::default();
        for &x in &kept {
            out.add(&self.names[x.index()], self.taints[x.index()]);
        }
        for (k, &x) in kept.iter().enumerate() {
            for rhs in &self.prods[x.index()] {
                let mapped: Option<Vec<Symbol>> = rhs
                    .iter()
                    .map(|&s| match s {
                        Symbol::T(b) => Some(Symbol::T(b)),
                        Symbol::N(t) => new_id(t)
                            .filter(|_| productive[t.index()])
                            .map(|n| Symbol::N(NtId(n as u32))),
                    })
                    .collect();
                if let Some(rhs) = mapped {
                    out.prods[k].push(rhs);
                }
            }
        }
        out
    }

    /// Copies the nonterminals `ids` of `other` and their productions
    /// to the ids `new_id` gives them: an existing id is overwritten,
    /// the next free one appended.
    fn splice(&mut self, other: &Cfg, ids: &[NtId], new_id: impl Fn(NtId) -> NtId) {
        for &x in ids {
            let n = new_id(x);
            if n.index() == self.names.len() {
                self.add(other.name(x), other.taint(x));
            } else {
                self.names[n.index()] = other.name(x).to_owned();
                self.taints[n.index()] = other.taint(x);
            }
        }
        for &x in ids {
            let n = new_id(x);
            for rhs in other.productions(x) {
                let rhs = rhs
                    .iter()
                    .map(|&s| match s {
                        Symbol::N(t) => Symbol::N(new_id(t)),
                        t => t,
                    })
                    .collect();
                self.prods[n.index()].push(rhs);
            }
        }
    }
}

/// Asserts that `g` holds exactly the model's grammar.
fn assert_matches(g: &Cfg, m: &Model) {
    prop_assert_eq!(g.num_nonterminals(), m.names.len());
    let total: usize = m.prods.iter().map(Vec::len).sum();
    prop_assert_eq!(g.num_productions(), total);
    for id in g.nonterminals() {
        let k = id.index();
        prop_assert_eq!(g.name(id), m.names[k].as_str());
        prop_assert_eq!(g.taint(id), m.taints[k]);
        let view = g.productions(id);
        prop_assert_eq!(view.len(), m.prods[k].len());
        prop_assert_eq!(view.is_empty(), m.prods[k].is_empty());
        let rules: Vec<Vec<Symbol>> = view.iter().map(<[Symbol]>::to_vec).collect();
        prop_assert_eq!(&rules, &m.prods[k]);
        for (p, rhs) in m.prods[k].iter().enumerate() {
            prop_assert_eq!(&view[p], rhs.as_slice());
            prop_assert_eq!(view.get(p), Some(rhs.as_slice()));
        }
        prop_assert_eq!(view.get(m.prods[k].len()), None);
        prop_assert_eq!(view.iter().len(), m.prods[k].len());
    }
    let flat: Vec<(NtId, Vec<Symbol>)> = g
        .iter_productions()
        .map(|(lhs, rhs)| (lhs, rhs.to_vec()))
        .collect();
    let want: Vec<(NtId, Vec<Symbol>)> = m
        .prods
        .iter()
        .enumerate()
        .flat_map(|(k, rules)| rules.iter().map(move |rhs| (NtId(k as u32), rhs.clone())))
        .collect();
    prop_assert_eq!(flat, want);
    prop_assert_eq!(format!("{g:?}"), format!("{:?}", m.build()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random interleavings of every arena write — productions added
    /// to earlier nonterminals (so their runs move), renames, taints
    /// and images written into earlier placeholders — against the
    /// plain model, read back through every accessor.
    #[test]
    fn arena_matches_a_plain_model(ops in proptest::collection::vec(op(), 1..48)) {
        const TERMINALS: &[u8] = b"a'b\\";
        let fsts = [builders::identity(), builders::addslashes(), builders::replace_literal(b"a", b"xy")];
        let mut g = Cfg::new();
        let mut m = Model::default();
        g.add_nonterminal("start");
        m.add("start", Taint::NONE);
        for op in ops {
            let n = m.names.len();
            match op {
                Op::Nonterminal(k) => {
                    let name = format!("n{k}");
                    prop_assert_eq!(g.add_nonterminal(&name), m.add(&name, Taint::NONE));
                }
                Op::Production(t, rhs) => {
                    let rhs: Vec<Symbol> = rhs
                        .into_iter()
                        .map(|(nt, k)| if nt {
                            Symbol::N(NtId((k % n) as u32))
                        } else {
                            Symbol::T(TERMINALS[k % TERMINALS.len()])
                        })
                        .collect();
                    g.add_production(NtId((t % n) as u32), &rhs);
                    m.prods[t % n].push(rhs);
                }
                Op::Name(t, k) => {
                    let name = format!("renamed{k}");
                    g.set_name(NtId((t % n) as u32), &name);
                    m.names[t % n] = name;
                }
                Op::Taint(t, k) => {
                    let taint = [Taint::NONE, Taint::DIRECT, Taint::INDIRECT, Taint::DIRECT.union(Taint::INDIRECT)][k as usize];
                    g.set_taint(NtId((t % n) as u32), taint);
                    m.taints[t % n] = taint;
                }
                Op::Image(r, p, f) => {
                    let empty: Vec<usize> = (0..n).filter(|&k| m.prods[k].is_empty()).collect();
                    if empty.is_empty() {
                        continue;
                    }
                    let (root, into) = (NtId((r % n) as u32), NtId(empty[p % empty.len()] as u32));
                    let fst = &fsts[f as usize];
                    // `image` numbers the image root 0 and entry k as k;
                    // `image_into` puts the root in `into` and entry k at
                    // `n + k - 1`.
                    let (img, img_root) = image(&m.build(), root, fst);
                    prop_assert_eq!(img_root, NtId(0));
                    image_into(&mut g, root, fst, &Budget::unlimited(), into).unwrap();
                    let ids: Vec<NtId> = img.nonterminals().collect();
                    m.splice(&img, &ids, |k| if k.0 == 0 { into } else { NtId(n as u32 + k.0 - 1) });
                }
            }
        }
        assert_matches(&g, &m);

        for root in g.nonterminals() {
            prop_assert_eq!(g.reachable_list(root), m.reach(root));
            let (t, t_root) = g.trimmed(root);
            prop_assert_eq!(t_root, NtId(0));
            assert_matches(&t, &m.trimmed(root));
        }

        let mut host = Cfg::new();
        host.literal_nonterminal("unrelated", b"zzz");
        let mut want = Model::default();
        want.add("unrelated", Taint::NONE);
        want.prods[0].push(host.literal_symbols(b"zzz"));
        let root = NtId(m.names.len() as u32 - 1);
        prop_assert_eq!(host.import_from(&g, root), NtId(1));
        let order = m.reach(root);
        let built = m.build();
        want.splice(&built, &order, |t| {
            NtId(1 + order.iter().position(|&o| o == t).unwrap() as u32)
        });
        assert_matches(&host, &want);
    }
}
