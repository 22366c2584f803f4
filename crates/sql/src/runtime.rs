//! Runtime syntactic-confinement checking — the SqlCheck approach of
//! the paper's companion work (Su & Wassermann, POPL 2006, cited as
//! \[25\] and used for Definition 2.2/2.3).
//!
//! Where the static analysis of this repository checks *grammars* of
//! queries before deployment, a runtime monitor sees one concrete query
//! with the user-provided substring marked (e.g. by delimiters inserted
//! at the sources) and must decide whether that substring is
//! *syntactically confined*: derivable from a single symbol of the SQL
//! grammar within the query's parse. The paper's §6.3 discusses this
//! family of defenses; implementing it here lets the benches compare
//! static verification against per-query runtime checking on identical
//! policies.

use crate::earley::derives_sentential;
use crate::grammar::{SqlGrammar, SqlNt, TSym};
use crate::lexer::{lex, LexSqlError};
use crate::token::TokenKind;

/// Verdict of the runtime check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeVerdict {
    /// The query parses and the tainted substring is syntactically
    /// confined under the given nonterminal(s).
    Confined(Vec<SqlNt>),
    /// The tainted substring spans a token boundary or cannot be
    /// derived from any single grammar symbol — an injection attack by
    /// Definition 2.3.
    Attack,
    /// The whole query does not lex/parse as a single SQL statement.
    Malformed,
}

/// Checks one concrete query in which `span` (byte range) marks the
/// user-provided substring — Definition 2.2 evaluated at runtime.
///
/// The check is *exact* for the reference grammar: the tainted bytes
/// must cover whole tokens, and replacing that token run by a grammar
/// symbol must leave a sentential form of the grammar.
pub fn check_query(g: &SqlGrammar, query: &[u8], span: (usize, usize)) -> RuntimeVerdict {
    let (lo, hi) = span;
    if lo > hi || hi > query.len() {
        return RuntimeVerdict::Malformed;
    }
    // Tokenize with byte offsets by re-lexing prefixes: the lexer
    // reports token text; recover offsets by scanning.
    let tokens = match lex(query) {
        Ok(t) => t,
        Err(LexSqlError::UnterminatedString)
        | Err(LexSqlError::UnterminatedBackquote)
        | Err(LexSqlError::UnterminatedComment)
        | Err(LexSqlError::BadByte(_)) => return RuntimeVerdict::Malformed,
    };
    // Recover token byte ranges.
    let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(tokens.len());
    let mut cursor = 0usize;
    for t in &tokens {
        // Find the token text at or after the cursor.
        let Some(found) = find_from(query, &t.text, cursor) else {
            return RuntimeVerdict::Malformed;
        };
        ranges.push((found, found + t.text.len()));
        cursor = found + t.text.len();
    }
    // Which tokens does the tainted span overlap?
    let overlapping: Vec<usize> = ranges
        .iter()
        .enumerate()
        .filter(|(_, &(s, e))| s < hi && lo < e)
        .map(|(i, _)| i)
        .collect();
    let full_syms: Vec<TSym> = tokens.iter().map(|t| TSym::T(t.kind)).collect();
    if overlapping.is_empty() {
        // Tainted bytes are whitespace/comments only: harmless iff the
        // whole query parses.
        return if derives_sentential(g, SqlNt::Query, &full_syms) {
            RuntimeVerdict::Confined(Vec::new())
        } else {
            RuntimeVerdict::Malformed
        };
    }
    let first = overlapping[0];
    let last = *overlapping.last().expect("nonempty");
    // The classic quoted-input case: the span lies strictly inside a
    // single string-literal or identifier token.
    let single_literal_containment = first == last
        && matches!(tokens[first].kind, TokenKind::StringLit | TokenKind::Ident)
        && ranges[first].0 < lo
        && hi < ranges[first].1;

    // Skeleton test: replace the tainted region with a benign literal
    // and see whether the *program-written* query shape parses at all.
    // If even that fails the query is malformed independent of the
    // input; if it parses but the real query does not, the input broke
    // the syntax — an attack.
    let skeleton_ok = if single_literal_containment {
        derives_sentential(g, SqlNt::Query, &full_syms)
    } else {
        // The benign stand-ins for "what the programmer wrote around
        // the input": a literal value, or nothing at all (appended-
        // clause injections have an empty honest counterpart).
        [Some(TokenKind::NumberLit), None].iter().any(|stand_in| {
            let mut v = Vec::with_capacity(tokens.len());
            for (i, t) in tokens.iter().enumerate() {
                if i == first {
                    if let Some(k) = stand_in {
                        v.push(TSym::T(*k));
                    }
                }
                if overlapping.contains(&i) {
                    continue;
                }
                v.push(TSym::T(t.kind));
            }
            derives_sentential(g, SqlNt::Query, &v)
        })
    };
    if !skeleton_ok {
        return RuntimeVerdict::Malformed;
    }

    if single_literal_containment {
        // Confined within the literal iff the whole query parses (the
        // input cannot have escaped: the lexer kept it inside one
        // token).
        return if derives_sentential(g, SqlNt::Query, &full_syms) {
            RuntimeVerdict::Confined(vec![SqlNt::Literal])
        } else {
            RuntimeVerdict::Malformed
        };
    }

    // Otherwise the span must cover whole tokens: a partial overlap
    // means the attacker controls a token boundary.
    if lo > ranges[first].0 || hi < ranges[last].1 {
        return RuntimeVerdict::Attack;
    }

    // Definition 2.2, both halves: some nonterminal must (a) be
    // grammatical in the tainted run's position and (b) derive the run.
    let run_syms: Vec<TSym> = overlapping
        .iter()
        .map(|&i| TSym::T(tokens[i].kind))
        .collect();
    let mut confined = Vec::new();
    for &nt in SqlNt::ALL {
        let mut syms: Vec<TSym> = Vec::with_capacity(tokens.len());
        for (i, t) in tokens.iter().enumerate() {
            if i == first {
                syms.push(TSym::N(nt));
            }
            if overlapping.contains(&i) {
                continue;
            }
            syms.push(TSym::T(t.kind));
        }
        if derives_sentential(g, SqlNt::Query, &syms)
            && derives_sentential(g, nt, &run_syms)
        {
            confined.push(nt);
        }
    }
    if confined.is_empty() {
        RuntimeVerdict::Attack
    } else {
        RuntimeVerdict::Confined(confined)
    }
}

fn find_from(haystack: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    if needle.is_empty() {
        return Some(from);
    }
    haystack[from..]
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|p| p + from)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g() -> SqlGrammar {
        SqlGrammar::standard()
    }

    /// Builds (query, tainted span) by splicing `input` into the
    /// template at `{}`.
    fn splice(template: &str, input: &str) -> (Vec<u8>, (usize, usize)) {
        let pos = template.find("{}").expect("placeholder");
        let mut q = Vec::new();
        q.extend_from_slice(template[..pos].as_bytes());
        let lo = q.len();
        q.extend_from_slice(input.as_bytes());
        let hi = q.len();
        q.extend_from_slice(template[pos + 2..].as_bytes());
        (q, (lo, hi))
    }

    #[test]
    fn honest_quoted_input_is_confined() {
        let (q, span) = splice("SELECT * FROM `unp_user` WHERE userid='{}'", "42");
        assert!(matches!(
            check_query(&g(), &q, span),
            RuntimeVerdict::Confined(_)
        ));
    }

    #[test]
    fn the_papers_attack_is_caught() {
        // Figure 2's attack: the tainted substring spans quote + two
        // statements — not derivable from any single symbol.
        let (q, span) = splice(
            "SELECT * FROM `unp_user` WHERE userid='{}'",
            "1'; DROP TABLE unp_user; --",
        );
        assert_eq!(check_query(&g(), &q, span), RuntimeVerdict::Attack);
    }

    #[test]
    fn tautology_attack_is_caught() {
        let (q, span) = splice("SELECT * FROM t WHERE name='{}'", "x' OR '1'='1");
        assert_eq!(check_query(&g(), &q, span), RuntimeVerdict::Attack);
    }

    #[test]
    fn honest_numeric_input_unquoted() {
        let (q, span) = splice("SELECT * FROM t WHERE id={}", "7");
        let RuntimeVerdict::Confined(nts) = check_query(&g(), &q, span) else {
            panic!("expected confined");
        };
        assert!(nts.contains(&SqlNt::Literal), "{nts:?}");
    }

    #[test]
    fn unquoted_expression_injection_is_caught() {
        let (q, span) = splice("SELECT * FROM t WHERE id={}", "1 OR 1=1");
        assert_eq!(check_query(&g(), &q, span), RuntimeVerdict::Attack);
    }

    #[test]
    fn whole_clause_injection_is_caught() {
        let (q, span) = splice("SELECT * FROM t WHERE id=1 {}", "UNION SELECT pw FROM u");
        assert_eq!(check_query(&g(), &q, span), RuntimeVerdict::Attack);
    }

    #[test]
    fn malformed_query_detected() {
        let (q, span) = splice("SELECT * FROM WHERE id='{}'", "1");
        assert_eq!(check_query(&g(), &q, span), RuntimeVerdict::Malformed);
        let (q, span) = splice("SELECT * FROM t WHERE id='{}", "1");
        assert_eq!(check_query(&g(), &q, span), RuntimeVerdict::Malformed);
    }

    #[test]
    fn runtime_agrees_with_static_on_figure2() {
        // The runtime monitor catches at execution time what the static
        // analysis reports pre-deployment — same policy, two phases.
        let attacks = [
            "1'; DROP TABLE unp_user; --",
            "0' OR '1'='1",
        ];
        let honest = ["1", "42", "10057"];
        for a in attacks {
            let (q, span) = splice("SELECT * FROM `unp_user` WHERE userid='{}'", a);
            assert_eq!(check_query(&g(), &q, span), RuntimeVerdict::Attack, "{a}");
        }
        for h in honest {
            let (q, span) = splice("SELECT * FROM `unp_user` WHERE userid='{}'", h);
            assert!(
                matches!(check_query(&g(), &q, span), RuntimeVerdict::Confined(_)),
                "{h}"
            );
        }
    }
}
