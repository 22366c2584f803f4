//! The shortest-derivation kernel against the code it replaced.
//!
//! `oracle` keeps the old multi-pass `lang::shortest_string` body
//! verbatim, and `reference_witness` keeps the old witness path:
//! complete the fixpoint, rebuild the intersection grammar with
//! `Intersection::grammar`, and run the multi-pass body over it. The
//! kernel must give the same bytes, charge the same fuel, realize the
//! same triples, and trip the budget at the same point.

use proptest::prelude::*;

use strtaint_automata::{ClassDfa, Regex};
use strtaint_grammar::lang::shortest_string;
use strtaint_grammar::prepared::{Intersection, PreparedGrammar, QueryMode};
use strtaint_grammar::{Budget, BudgetExceeded, Cfg, NtId, Symbol};

mod oracle {
    use strtaint_grammar::{Cfg, NtId, Symbol};

    /// The multi-pass relaxation `lang::shortest_string` used to run:
    /// sweep every reachable production until no value improves.
    pub fn shortest_string(g: &Cfg, root: NtId) -> Option<Vec<u8>> {
        let n = g.num_nonterminals();
        let ids = g.reachable_list(root);
        let mut best: Vec<Option<Vec<u8>>> = vec![None; n];
        loop {
            let mut changed = false;
            for (lhs, rhs) in ids
                .iter()
                .flat_map(|&id| g.productions(id).iter().map(move |r| (id, r)))
            {
                let mut candidate: Vec<u8> = Vec::new();
                let mut ok = true;
                for s in rhs {
                    match s {
                        Symbol::T(b) => candidate.push(*b),
                        Symbol::N(id) => match &best[id.index()] {
                            Some(w) => candidate.extend_from_slice(w),
                            None => {
                                ok = false;
                                break;
                            }
                        },
                    }
                }
                if !ok {
                    continue;
                }
                let better = match &best[lhs.index()] {
                    None => true,
                    Some(cur) => {
                        candidate.len() < cur.len()
                            || (candidate.len() == cur.len() && candidate < *cur)
                    }
                };
                if better {
                    best[lhs.index()] = Some(candidate);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        best[root.index()].clone()
    }
}

/// The old `Intersection::witness`: reconstruct, then relax.
fn reference_witness(
    ix: &mut Intersection<'_, '_>,
    budget: &Budget,
) -> Result<Option<Vec<u8>>, BudgetExceeded> {
    ix.complete(budget)?;
    if ix.is_empty() {
        return Ok(None);
    }
    let (g, root) = ix.grammar(budget)?;
    Ok(oracle::shortest_string(&g, root))
}

const TERMINALS: [u8; 4] = [b'a', b'b', b'\'', b'1'];

/// A random grammar over nonterminals `0..n`: each symbol code below 4
/// is a terminal, any other picks a nonterminal. Unproductive
/// nonterminals, ε, unit cycles and `X -> Y Y` all occur.
fn grammar() -> impl Strategy<Value = Cfg> {
    let rhs = proptest::collection::vec(0..10usize, 0..4);
    let nonterminal = proptest::collection::vec(rhs, 0..4);
    proptest::collection::vec(nonterminal, 1..6).prop_map(|spec| {
        let mut g = Cfg::new();
        let n = spec.len();
        let ids: Vec<NtId> = (0..n).map(|k| g.add_nonterminal(format!("N{k}"))).collect();
        for (k, prods) in spec.iter().enumerate() {
            for codes in prods {
                let rhs: Vec<Symbol> = codes
                    .iter()
                    .map(|&c| match TERMINALS.get(c) {
                        Some(&t) => Symbol::T(t),
                        None => Symbol::N(ids[(c - TERMINALS.len()) % n]),
                    })
                    .collect();
                g.add_production(ids[k], rhs);
            }
        }
        g
    })
}

fn pattern() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("'"),
        Just("a"),
        Just("^[ab]*$"),
        Just("a'"),
        Just("^1"),
        Just("b$"),
        Just("^(a|b)(a|b)"),
        Just("'.*'"),
        Just("zzz"),
    ]
}

/// Runs the kernel path and the reference path on fresh queries under
/// budgets of the same class and asserts they are indistinguishable.
fn assert_witness_parity(g: &Cfg, root: NtId, pat: &str, fuel: Option<u64>) {
    let dfa = ClassDfa::new(&Regex::new(pat).unwrap().match_dfa());
    let prep = PreparedGrammar::new(g, root);
    let (kernel_budget, ref_budget) =
        (Budget::new(None, fuel, None), Budget::new(None, fuel, None));
    let kernel_ix = prep.query(&dfa, &kernel_budget, QueryMode::EarlyExit);
    let ref_ix = prep.query(&dfa, &ref_budget, QueryMode::EarlyExit);
    let (mut kernel_ix, mut ref_ix) = match (kernel_ix, ref_ix) {
        (Ok(k), Ok(r)) => (k, r),
        (Err(k), Err(r)) => return assert_eq!(k, r),
        _ => panic!("query trip differs for {pat}"),
    };
    let got = kernel_ix.witness(&kernel_budget);
    let want = reference_witness(&mut ref_ix, &ref_budget);
    assert_eq!(
        got, want,
        "witness differs for {pat} (fuel {fuel:?}) on\n{g}"
    );
    assert_eq!(
        kernel_ix.charged(),
        ref_ix.charged(),
        "charged() differs for {pat}"
    );
    assert_eq!(
        kernel_ix.triples(),
        ref_ix.triples(),
        "triples() differs for {pat}"
    );
    assert_eq!(kernel_ix.completions(), ref_ix.completions());
    assert_eq!(kernel_budget.fuel_left(), ref_budget.fuel_left());
    assert_eq!(
        kernel_budget.charge(0).is_err(),
        ref_budget.charge(0).is_err()
    );
    if let Ok(Some(w)) = &got {
        assert!(g.derives(root, w), "witness {w:?} not derivable");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn kernel_matches_multi_pass_relaxation(g in grammar()) {
        for root in g.nonterminals() {
            let want = oracle::shortest_string(&g, root);
            prop_assert_eq!(shortest_string(&g, root), want.clone(), "root {} of\n{}", root, g);
            prop_assert_eq!(PreparedGrammar::new(&g, root).shortest_string(), want);
        }
    }

    #[test]
    fn witness_matches_reconstruction(g in grammar(), pat in pattern()) {
        assert_witness_parity(&g, NtId(0), pat, None);
    }

    /// Every fuel level from a trip in the emptiness query to a
    /// witness with fuel to spare: the two paths trip (or not) at the
    /// same charge and leave the budget in the same state.
    #[test]
    fn witness_trips_where_reconstruction_tripped(g in grammar(), pat in pattern()) {
        let dfa = ClassDfa::new(&Regex::new(pat).unwrap().match_dfa());
        let prep = PreparedGrammar::new(&g, NtId(0));
        let unlimited = Budget::unlimited();
        let mut ix = prep.query(&dfa, &unlimited, QueryMode::EarlyExit).unwrap();
        let _ = ix.witness(&unlimited).unwrap();
        for fuel in 0..=ix.charged() + 1 {
            assert_witness_parity(&g, NtId(0), pat, Some(fuel));
        }
    }
}

fn literal_grammar(words: &[&[u8]]) -> (Cfg, NtId) {
    let mut g = Cfg::new();
    let s = g.add_nonterminal("S");
    for w in words {
        g.add_literal_production(s, w);
    }
    (g, s)
}

#[test]
fn lex_order_breaks_length_ties_across_dfa_states() {
    // Three equal-length strings reach the accepting states of a
    // multi-state automaton by different paths; production order puts
    // the lexicographic loser first.
    let (g, s) = literal_grammar(&[b"ba'", b"b'a", b"'ab", b"zz"]);
    let dfa = ClassDfa::new(&Regex::new("'").unwrap().match_dfa());
    assert!(dfa.num_states() > 1);
    let prep = PreparedGrammar::new(&g, s);
    let unlimited = Budget::unlimited();
    let mut ix = prep.query(&dfa, &unlimited, QueryMode::EarlyExit).unwrap();
    assert_eq!(ix.witness(&unlimited).unwrap(), Some(b"'ab".to_vec()));
    for pat in ["'", "b", "^b", "a$"] {
        assert_witness_parity(&g, s, pat, None);
    }
}

#[test]
fn tight_fuel_trips_in_witness_charge_and_latches() {
    let (g, s) = literal_grammar(&[b"1'", b"a'b", b"''"]);
    let dfa = ClassDfa::new(&Regex::new("'").unwrap().match_dfa());
    let prep = PreparedGrammar::new(&g, s);
    // Fuel spent before extraction charges anything: the query plus
    // the resumed fixpoint.
    let unlimited = Budget::unlimited();
    let mut ix = prep.query(&dfa, &unlimited, QueryMode::EarlyExit).unwrap();
    ix.complete(&unlimited).unwrap();
    let (before, triples) = (ix.charged(), ix.triples() as u64);
    assert!(triples > 0);

    // One unit short of the per-triple extraction charge.
    let tight = Budget::new(None, Some(before + triples - 1), None);
    let mut ix = prep.query(&dfa, &tight, QueryMode::EarlyExit).unwrap();
    assert!(ix.witness(&tight).is_err());
    assert_eq!(ix.charged(), before, "a tripped extraction charges nothing");
    assert!(tight.charge(0).is_err(), "the budget latches exhausted");
    assert_witness_parity(&g, s, "'", Some(before + triples - 1));

    // Exactly enough.
    let exact = Budget::new(None, Some(before + triples), None);
    let mut ix = prep.query(&dfa, &exact, QueryMode::EarlyExit).unwrap();
    assert_eq!(ix.witness(&exact).unwrap(), Some(b"''".to_vec()));
    assert_eq!(exact.fuel_left(), Some(0));
}

#[test]
fn passed_deadline_stops_extraction() {
    let (g, s) = literal_grammar(&[b"1'", b"a'b", b"''"]);
    let dfa = ClassDfa::new(&Regex::new("'").unwrap().match_dfa());
    let prep = PreparedGrammar::new(&g, s);
    let unlimited = Budget::unlimited();
    let mut ix = prep.query(&dfa, &unlimited, QueryMode::Full).unwrap();
    let before = ix.charged();
    // The fixpoint is complete, so only extraction can meet the
    // deadline; it checks it while the kernel runs.
    let expired = Budget::new(Some(std::time::Duration::ZERO), None, None);
    let err = ix.witness(&expired).unwrap_err();
    assert_eq!(err.resource, strtaint_grammar::Resource::Deadline);
    assert_eq!(ix.charged(), before);
}

#[test]
fn named_shapes_match_the_relaxation() {
    let mut g = Cfg::new();
    let dead = g.add_nonterminal("dead"); // dead -> dead
    g.add_production(dead, vec![Symbol::N(dead)]);
    let eps = g.add_nonterminal("eps"); // eps -> ε | 'a' eps
    g.add_production(eps, vec![]);
    g.add_production(eps, vec![Symbol::T(b'a'), Symbol::N(eps)]);
    let (u1, u2) = (g.add_nonterminal("u1"), g.add_nonterminal("u2"));
    g.add_production(u1, vec![Symbol::N(u2)]); // u1 <-> u2 unit cycle
    g.add_production(u2, vec![Symbol::N(u1)]);
    g.add_literal_production(u2, b"ba");
    g.add_literal_production(u1, b"bb");
    let y = g.add_nonterminal("y"); // sq -> y y
    g.add_literal_production(y, b"b");
    g.add_literal_production(y, b"a");
    let sq = g.add_nonterminal("sq");
    g.add_production(sq, vec![Symbol::N(y), Symbol::N(y)]);
    let mixed = g.add_nonterminal("mixed"); // mixed -> dead | u1 eps sq
    g.add_production(mixed, vec![Symbol::N(dead)]);
    g.add_production(mixed, vec![Symbol::N(u1), Symbol::N(eps), Symbol::N(sq)]);

    let want: [(NtId, Option<&[u8]>); 6] = [
        (dead, None),
        (eps, Some(b"")),
        (u1, Some(b"ba")),
        (u2, Some(b"ba")),
        (sq, Some(b"aa")),
        (mixed, Some(b"baaa")),
    ];
    for (root, w) in want {
        assert_eq!(shortest_string(&g, root).as_deref(), w, "{}", g.name(root));
        assert_eq!(
            oracle::shortest_string(&g, root).as_deref(),
            w,
            "{}",
            g.name(root)
        );
    }
}
