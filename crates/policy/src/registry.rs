//! The built-in policy registry.
//!
//! A [`Policy`] bundles everything a vulnerability class needs across
//! the pipeline: the analysis layer reads the sink tables to decide
//! which calls become hotspots (and which argument is the sink
//! argument), the checker layer compiles the [`Cascade`] into prepared
//! intersection queries, and the rendering layer reads the rule ids.
//!
//! ## Cascade semantics
//!
//! A cascade is run against `L(X)` — the language of one maximal
//! tainted nonterminal, *not* the whole sink argument, exactly as the
//! paper prescribes — one [`Step`] at a time, in order. A step may be
//! **gated** on the *marked* grammar (the sink argument with `X`
//! replaced by `strtaint_sql::VAR_MARKER`): it runs only when the
//! marked grammar's intersection with its [`Gate`] automaton is empty
//! (or non-empty, as the gate says). A [`StepAction`] says what the
//! step's own query decides: provers verify `X` on an empty
//! intersection with `step.dfa` (the *complement* of a safe language),
//! refuters report on a non-empty one, and deciders do either; each
//! stops the cascade when it fires.
//!
//! If no step fires, the [`Residual`] decides: `Verified` for
//! complete cascades, `Report` for conservative ones (sound default —
//! a fragment neither proven confined nor matched by a refuter is
//! still attacker-shaped). Cheap provers are listed first, so step
//! order is the cascade's work order: `sql` lists the C3 prover ahead
//! of C1 and C2, unlike the paper's C1–C5 presentation.
//!
//! [`builtin`] builds no automaton: each [`Policy`] names its cascade
//! by a constructor, which a checker calls once.

use strtaint_automata::{ByteSet, Dfa, Nfa};

use crate::dfas::{self, HtmlCtx, ATTACK_FRAGMENTS};
use crate::kinds::CheckKind;

/// How bad a confirmed finding of this class typically is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Low,
    Medium,
    High,
    Critical,
}

impl Severity {
    /// Lowercase label for CLI/daemon output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Low => "low",
            Severity::Medium => "medium",
            Severity::High => "high",
            Severity::Critical => "critical",
        }
    }
}

/// What a cascade step does with its intersection result.
#[derive(Debug, Clone)]
pub enum StepAction {
    /// Prover: empty intersection ⇒ fragment verified, stop.
    VerifyIfEmpty,
    /// Refuter: non-empty intersection ⇒ report `kind`, stop. With
    /// `witness` the engine extracts a shortest intersection witness,
    /// spliced into an example query; without, the query asks
    /// emptiness only and the finding carries the shortest string of
    /// `L(X)` and no example query.
    ReportIfNonEmpty {
        kind: CheckKind,
        detail: &'static str,
        witness: bool,
    },
    /// Decider: non-empty intersection ⇒ report `kind` with its
    /// witness, empty ⇒ verified; stop either way.
    ReportElseVerify {
        kind: CheckKind,
        detail: &'static str,
    },
    /// Refuter whose `dfa` accepts the strings containing one of
    /// `fragments` (case-insensitively): non-empty intersection ⇒
    /// report `kind` with its witness, stop. The checker may skip the
    /// query when no fragment is spellable over the target's alphabet.
    Attack {
        kind: CheckKind,
        fragments: &'static [&'static [u8]],
    },
    /// Derivability in context (paper §3.2.2): every query context of
    /// `X` must admit a SQL token kind whose lexeme language contains
    /// `L(X)`. `dfa` is what `L(X)` must avoid in a string-literal
    /// context, `backquote` in a backquoted identifier, and `keywords`
    /// in identifier position. Reports `Unresolved`, `NotDerivable`,
    /// `GluedContext` or `EscapesLiteral`, or verifies; stop.
    Derivable { backquote: Dfa, keywords: Dfa },
}

/// A marked-grammar condition on a [`Step`].
#[derive(Debug, Clone)]
pub struct Gate {
    /// The context automaton intersected with the marked grammar.
    pub dfa: Dfa,
    /// Run the step when that intersection is empty (`true`) or
    /// non-empty (`false`).
    pub when_empty: bool,
}

/// One prepared-intersection query in a policy's cascade.
#[derive(Debug, Clone)]
pub struct Step {
    /// The observability span the step runs under, if any.
    pub span: Option<&'static str>,
    /// Marked-grammar condition; `None` always runs the step.
    pub gate: Option<Gate>,
    /// The policy automaton intersected with `L(X)`.
    pub dfa: Dfa,
    /// What that intersection decides.
    pub action: StepAction,
}

impl Step {
    /// An ungated step with no span of its own.
    fn new(dfa: Dfa, action: StepAction) -> Self {
        Step {
            span: None,
            gate: None,
            dfa,
            action,
        }
    }

    /// A prover.
    fn prove(dfa: Dfa) -> Self {
        Step::new(dfa, StepAction::VerifyIfEmpty)
    }

    /// A refuter reporting its intersection witness.
    fn refute(dfa: Dfa, kind: CheckKind, detail: &'static str) -> Self {
        Step::new(
            dfa,
            StepAction::ReportIfNonEmpty {
                kind,
                detail,
                witness: true,
            },
        )
    }

    /// This step under the span `name`.
    fn in_span(self, name: &'static str) -> Self {
        Step {
            span: Some(name),
            ..self
        }
    }

    /// This step, gated on the marked grammar's intersection with
    /// `dfa` being empty (`when_empty`) or non-empty.
    fn gated(self, dfa: Dfa, when_empty: bool) -> Self {
        Step {
            gate: Some(Gate { dfa, when_empty }),
            ..self
        }
    }
}

/// Verdict when no cascade step fires.
#[derive(Debug, Clone)]
pub enum Residual {
    /// The steps are exhaustive: nothing fired ⇒ verified.
    Verified,
    /// Conservative: nothing fired ⇒ still report `kind`.
    Report {
        kind: CheckKind,
        detail: &'static str,
    },
}

/// An ordered prover/refuter pipeline over byte-class DFAs.
#[derive(Debug, Clone)]
pub struct Cascade {
    pub steps: Vec<Step>,
    pub residual: Residual,
}

/// One vulnerability class, end to end.
#[derive(Debug, Clone)]
pub struct Policy {
    /// Stable id: names the class in `--policy`, `Config::policies`,
    /// daemon requests, and replay evidence. Never reused.
    pub id: &'static str,
    /// Human-readable one-liner for `--list-policies`.
    pub name: &'static str,
    /// What the class means and what the cascade proves.
    pub description: &'static str,
    pub severity: Severity,
    /// Sink functions as `(name, checked-argument index)`. A negative
    /// index counts from the end (`-1` is the last argument); a name
    /// listed twice has both arguments checked.
    pub sink_functions: &'static [(&'static str, isize)],
    /// Sink methods (called as `$obj->m(..)`), same shape.
    pub sink_methods: &'static [(&'static str, isize)],
    /// Language constructs (not plain calls) that act as sinks for
    /// this policy: `"echo"`, `"include"`, `"preg_replace/e"`.
    pub sink_constructs: &'static [&'static str],
    /// Every SARIF rule id findings of this policy can carry.
    pub rule_ids: &'static [&'static str],
    /// Builds the cascade; a checker calls it once.
    pub cascade: fn() -> Cascade,
}

/// `Σ* · [set] · Σ*` — strings containing any byte of `set`.
fn contains_any(set: ByteSet) -> Dfa {
    let any = Nfa::any_string();
    Dfa::from_nfa(&any.concat(&Nfa::class(set)).concat(&any)).minimize()
}

/// `Σ* · lit · Σ*` — strings containing the literal `lit`.
fn contains_literal(lit: &[u8]) -> Dfa {
    let any = Nfa::any_string();
    Dfa::from_nfa(&any.concat(&Nfa::literal(lit)).concat(&any)).minimize()
}

/// `[set] · Σ*` — strings starting with a byte of `set` (rejects ε).
fn starts_with(set: ByteSet) -> Dfa {
    Dfa::from_nfa(&Nfa::class(set).concat(&Nfa::any_string())).minimize()
}

/// Complement of `[set]*` — strings *not* confined to the alphabet
/// `set`. Empty intersection with this proves charset confinement.
fn not_confined_to(set: ByteSet) -> Dfa {
    Dfa::from_nfa(&Nfa::class(set).star()).minimize().complement()
}

fn alnum() -> ByteSet {
    ByteSet::range(b'A', b'Z')
        .union(&ByteSet::range(b'a', b'z'))
        .union(&ByteSet::range(b'0', b'9'))
}

/// Bytes that are always safe inside a single shell word: no
/// whitespace, no quoting, no expansion, no redirection, no globbing.
fn shell_word_safe() -> ByteSet {
    alnum().union(&ByteSet::from_bytes(*b"_-./:=@%+,"))
}

/// Shell metacharacters: bytes that terminate the word or command, or
/// trigger expansion — deriving any one of these refutes confinement.
fn shell_metachars() -> ByteSet {
    ByteSet::from_bytes(*b";|&$`<>(){}[]*?~!'\"\\\n\r")
}

/// Safe relative-path alphabet (dots and slashes allowed; the `..`
/// and leading-`/` refuters have already run when this is consulted).
fn path_safe() -> ByteSet {
    alnum().union(&ByteSet::from_bytes(*b"_-./"))
}

/// PHP code tokens for the eval policy: any of these inside an
/// evaluated string lets the attacker leave the intended expression.
fn code_tokens() -> ByteSet {
    ByteSet::from_bytes(*b";(){}$'\"`=<>[]\\#&|+-*/")
}

fn shell_policy() -> Policy {
    Policy {
        id: "shell",
        name: "shell command injection",
        description: "tainted data reaches a command-execution sink; verified only when \
                      confined to a single shell word with no metacharacters",
        severity: Severity::Critical,
        sink_functions: &[
            ("exec", 0),
            ("system", 0),
            ("shell_exec", 0),
            ("passthru", 0),
            ("popen", 0),
            ("proc_open", 0),
        ],
        sink_methods: &[],
        sink_constructs: &["backtick"],
        rule_ids: &["strtaint/shell-metachar", "strtaint/shell-unconfined"],
        cascade: || Cascade {
            steps: vec![
                // Prover first: confined to one word.
                Step::prove(not_confined_to(shell_word_safe())),
                Step::refute(
                    contains_any(shell_metachars()),
                    CheckKind::ShellMetachar,
                    "shell: can terminate or extend the command",
                ),
            ],
            // Whitespace and other non-word bytes split arguments —
            // argument injection — so the residual stays a report.
            residual: Residual::Report {
                kind: CheckKind::ShellUnconfined,
                detail: "shell: can split into additional arguments",
            },
        },
    }
}

fn path_policy() -> Policy {
    Policy {
        id: "path",
        name: "path traversal",
        description: "tainted data reaches a filesystem path sink; verified only when \
                      confined to a relative path with no .. segments",
        severity: Severity::High,
        sink_functions: &[
            ("fopen", 0),
            ("file_get_contents", 0),
            ("file_put_contents", 0),
            ("readfile", 0),
            ("unlink", 0),
            ("opendir", 0),
        ],
        sink_methods: &[],
        sink_constructs: &["include"],
        rule_ids: &[
            "strtaint/path-traversal",
            "strtaint/path-absolute",
            "strtaint/path-unconfined",
        ],
        cascade: || Cascade {
            steps: vec![
                // Prover: no dots, no slashes — a bare file-name stem.
                Step::prove(not_confined_to(alnum().union(&ByteSet::from_bytes(*b"_-")))),
                Step::refute(
                    contains_literal(b".."),
                    CheckKind::PathTraversal,
                    "path: can escape the intended directory",
                ),
                Step::refute(
                    starts_with(ByteSet::from_bytes(*b"/\\")),
                    CheckKind::PathAbsolute,
                    "path: can name an absolute filesystem path",
                ),
                // Prover: charset-confined, and the two refuters above
                // already proved no `..` and no leading separator, so
                // this is a safe relative path.
                Step::prove(not_confined_to(path_safe())),
            ],
            residual: Residual::Report {
                kind: CheckKind::PathUnconfined,
                detail: "path: NUL bytes, backslashes, or stream wrappers possible",
            },
        },
    }
}

fn eval_policy() -> Policy {
    Policy {
        id: "eval",
        name: "eval/code injection",
        description: "tainted data reaches a code-evaluation sink; verified only when \
                      confined to a single identifier or number token",
        severity: Severity::Critical,
        sink_functions: &[("eval", 0), ("create_function", 1), ("assert", 0)],
        sink_methods: &[],
        sink_constructs: &["preg_replace/e"],
        rule_ids: &["strtaint/code-injection", "strtaint/code-unconfined"],
        cascade: || Cascade {
            steps: vec![
                // Prover: one bare identifier/number token cannot
                // change the parse of the surrounding code template.
                Step::prove(not_confined_to(alnum().union(&ByteSet::singleton(b'_')))),
                Step::refute(
                    contains_any(code_tokens()),
                    CheckKind::CodeInjection,
                    "eval: can inject PHP code tokens",
                ),
            ],
            residual: Residual::Report {
                kind: CheckKind::CodeUnconfined,
                detail: "eval: can span multiple code tokens",
            },
        },
    }
}

/// Paper §3.2, with the C3 prover hoisted ahead of C1 and C2: a
/// numeric-only L(X) contains no quote byte, so neither C1 nor C2's
/// report arm could fire on it. Only the work order differs from the
/// paper's C1–C5.
fn sql_cascade() -> Cascade {
    let fragments = ATTACK_FRAGMENTS;
    Cascade {
        steps: vec![
            // C3: a numeric literal is confined wherever one fits.
            Step::prove(dfas::numeric_literal().complement()).in_span("check:C3"),
            // C1: odd unescaped quotes are confined in no query.
            Step::refute(dfas::odd_unescaped_quotes(), CheckKind::OddQuotes, "")
                .in_span("check:C1"),
            // C2: always in string-literal position ⇒ confined iff no
            // unescaped quote can close the literal.
            Step::new(
                dfas::contains_unescaped_quote(),
                StepAction::ReportElseVerify {
                    kind: CheckKind::EscapesLiteral,
                    detail: "",
                },
            )
            .gated(dfas::marker_outside_literal(), true)
            .in_span("check:C2"),
            // C4: a known attack fragment confirms a vulnerability.
            Step::new(
                dfas::attack_fragments(fragments),
                StepAction::Attack {
                    kind: CheckKind::AttackString,
                    fragments,
                },
            )
            .in_span("check:C4"),
            // C5: derivable from one SQL symbol in every context.
            Step::new(
                dfas::contains_unescaped_quote(),
                StepAction::Derivable {
                    backquote: contains_any(ByteSet::singleton(b'`')),
                    keywords: dfas::sql_keywords(),
                },
            )
            .in_span("check:C5"),
        ],
        residual: Residual::Verified,
    }
}

/// One XSS step: in HTML context `ctx`, `L(X)` must avoid `escape`.
/// Its query asks emptiness only (see `StepAction::ReportIfNonEmpty`).
fn html_ctx(ctx: HtmlCtx, escape: Dfa, detail: &'static str) -> Step {
    Step::new(
        escape,
        StepAction::ReportIfNonEmpty {
            kind: CheckKind::NotDerivable,
            detail,
            witness: false,
        },
    )
    .gated(dfas::marker_in_context(ctx), false)
}

/// The extension the paper names as future work (§7): the same
/// technique over an HTML-context automaton. A tainted substring is
/// confined when, in every context it is emitted in, it cannot
/// introduce markup.
fn xss_cascade() -> Cascade {
    let byte = |b| contains_any(ByteSet::singleton(b));
    Cascade {
        steps: vec![
            html_ctx(
                HtmlCtx::Text,
                byte(b'<'),
                "XSS: can open a tag in text context",
            ),
            html_ctx(
                HtmlCtx::AttrDq,
                byte(b'"'),
                "XSS: can close its double-quoted attribute",
            ),
            html_ctx(
                HtmlCtx::AttrSq,
                byte(b'\''),
                "XSS: can close its single-quoted attribute",
            ),
            // Raw tag-interior position: only bare words are tolerable.
            html_ctx(
                HtmlCtx::Tag,
                dfas::non_word(),
                "XSS: controls tag-interior tokens",
            ),
        ],
        residual: Residual::Verified,
    }
}

/// All built-in policies, in stable order. `Config::default()` enables
/// only `sql`, the paper's analysis.
pub fn builtin() -> Vec<Policy> {
    vec![
        Policy {
            id: "sql",
            name: "SQL command injection (SQLCIV)",
            description: "tainted data reaches a query sink; the C1\u{2013}C5 cascade proves \
                          syntactic confinement against the reference SQL grammar",
            severity: Severity::High,
            // The query follows a link or database name for mysqli_query
            // and mysql_db_query, is last for pg_query (its connection is
            // optional), and is either of the first two for sqlite_query,
            // which accepts both orders.
            sink_functions: &[
                ("mysql_query", 0),
                ("mysqli_query", 1),
                ("mysql_db_query", 1),
                ("pg_query", -1),
                ("sqlite_query", 0),
                ("sqlite_query", 1),
                ("db_query", 0),
            ],
            // `prepare` receives the query template; `execute` receives
            // bound parameters, which placeholders keep out of the SQL
            // syntax, so it is deliberately NOT a sink.
            sink_methods: &[("query", 0), ("sql_query", 0), ("prepare", 0)],
            sink_constructs: &[],
            rule_ids: &[
                "strtaint/odd-quotes",
                "strtaint/escapes-literal",
                "strtaint/attack-string",
                "strtaint/not-derivable",
                "strtaint/glued-context",
                "strtaint/unresolved",
                "strtaint/budget-exhausted",
            ],
            cascade: sql_cascade,
        },
        Policy {
            id: "xss",
            name: "cross-site scripting",
            description: "tainted data reaches an HTML output sink; context-gated checks \
                          prove it cannot open tags or close attributes",
            severity: Severity::Medium,
            sink_functions: &[],
            sink_methods: &[],
            sink_constructs: &["echo"],
            rule_ids: &["strtaint/not-derivable", "strtaint/budget-exhausted"],
            cascade: xss_cascade,
        },
        shell_policy(),
        path_policy(),
        eval_policy(),
    ]
}

/// Looks up one built-in policy by id.
pub fn find(id: &str) -> Option<Policy> {
    builtin().into_iter().find(|p| p.id == id)
}

/// Parses a `--policy`-style comma-separated selection into a
/// validated, deduplicated id list (order preserved).
pub fn parse_selection(spec: &str) -> Result<Vec<String>, String> {
    let known: Vec<&'static str> = builtin().iter().map(|p| p.id).collect();
    let mut out: Vec<String> = Vec::new();
    for raw in spec.split(',') {
        let id = raw.trim();
        if id.is_empty() {
            continue;
        }
        if !known.contains(&id) {
            return Err(format!(
                "unknown policy {id:?} (known: {})",
                known.join(", ")
            ));
        }
        if !out.iter().any(|p| p == id) {
            out.push(id.to_string());
        }
    }
    if out.is_empty() {
        return Err("empty policy selection".to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_five_policies_with_distinct_ids() {
        let all = builtin();
        assert_eq!(all.len(), 5);
        let mut seen = std::collections::HashSet::new();
        for p in &all {
            assert!(seen.insert(p.id), "duplicate policy id {}", p.id);
            assert!(!p.rule_ids.is_empty(), "{} declares no rule ids", p.id);
        }
        assert_eq!(all[0].id, "sql");
        assert_eq!(all[1].id, "xss");
    }

    #[test]
    fn rule_ids_resolve_to_kinds() {
        for p in builtin() {
            for id in p.rule_ids {
                assert!(
                    CheckKind::from_rule_id(id).is_some(),
                    "{}: rule id {id} does not name a CheckKind",
                    p.id
                );
            }
        }
    }

    #[test]
    fn selection_parsing() {
        assert_eq!(
            parse_selection("shell, path,eval,shell"),
            Ok(vec!["shell".into(), "path".into(), "eval".into()])
        );
        assert!(parse_selection("sql,bogus").is_err());
        assert!(parse_selection("").is_err());
    }

    fn cascade_of(id: &str) -> Cascade {
        (find(id).expect("built-in policy").cascade)()
    }

    #[test]
    fn every_emittable_kind_is_a_declared_rule_id() {
        use CheckKind::*;
        for p in builtin() {
            let c = (p.cascade)();
            let mut kinds = vec![];
            for step in &c.steps {
                match &step.action {
                    StepAction::VerifyIfEmpty => {}
                    StepAction::ReportIfNonEmpty { kind, .. }
                    | StepAction::ReportElseVerify { kind, .. }
                    | StepAction::Attack { kind, .. } => kinds.push(*kind),
                    StepAction::Derivable { .. } => {
                        kinds.extend([Unresolved, NotDerivable, GluedContext, EscapesLiteral])
                    }
                }
            }
            if let Residual::Report { kind, .. } = c.residual {
                kinds.push(kind);
            }
            // Budget trips are the driver's, not a step's.
            for kind in kinds {
                assert!(p.rule_ids.contains(&kind.rule_id()), "{}: {kind:?}", p.id);
            }
        }
    }

    /// `s` with every `@` replaced by the marker byte.
    fn marked(s: &[u8]) -> Vec<u8> {
        let m = strtaint_sql::VAR_MARKER;
        s.iter().map(|&b| if b == b'@' { m } else { b }).collect()
    }

    #[test]
    fn sql_cascade_runs_c3_first_then_c1_c2_c4_c5() {
        let c = cascade_of("sql");
        let spans: Vec<_> = c.steps.iter().filter_map(|s| s.span).collect();
        let order = ["check:C3", "check:C1", "check:C2", "check:C4", "check:C5"];
        assert_eq!(spans, order);
        assert!(!c.steps[0].dfa.accepts(b"-3.14")); // numeric verifies
        assert!(c.steps[1].dfa.accepts(b"1'; DROP TABLE t; --"));
        // C2 runs only when the marker never leaves a literal.
        let gate = c.steps[2].gate.as_ref().expect("C2 is gated");
        assert!(gate.when_empty && gate.dfa.accepts(&marked(b"id=@")));
        assert!(!gate.dfa.accepts(&marked(b"id='@'")));
        assert!(c.steps[2].dfa.accepts(b"a' OR 'b") && !c.steps[2].dfa.accepts(b"a''b"));
        let StepAction::Attack { fragments, .. } = &c.steps[3].action else {
            panic!("C4 is an attack step");
        };
        assert!(fragments.iter().all(|f| c.steps[3].dfa.accepts(f)));
        let StepAction::Derivable { keywords, .. } = &c.steps[4].action else {
            panic!("C5 is a derivability step");
        };
        assert!(keywords.accepts(b"UNION") && !keywords.accepts(b"username"));
    }

    #[test]
    fn xss_cascade_gates_each_html_context() {
        let c = cascade_of("xss");
        // Text, double-quoted attribute, single-quoted attribute, tag.
        let contexts: [&[u8]; 4] = [b"<p>@", b"<a href=\"@\">", b"<a href='@'>", b"<a @>"];
        let escapes: [&[u8]; 4] = [b"<script>", b"x\" onload=", b"x' onload=", b"x onload=1"];
        for (i, step) in c.steps.iter().enumerate() {
            let gate = step.gate.as_ref().expect("every XSS step is gated");
            assert!(!gate.when_empty && gate.dfa.accepts(&marked(contexts[i])));
            assert!(!gate.dfa.accepts(&marked(contexts[(i + 1) % 4])));
            assert!(step.dfa.accepts(escapes[i]) && !step.dfa.accepts(b"wide"));
        }
    }

    #[test]
    fn shell_cascade_separates_safe_and_hostile_words() {
        let c = cascade_of("shell");
        // Step 0 prover: its DFA must reject (= verify) plain words
        // and accept (= fail to verify) hostile strings.
        assert!(!c.steps[0].dfa.accepts(b"thumb_01.png"));
        assert!(c.steps[0].dfa.accepts(b"a; rm -rf /"));
        // Step 1 refuter: metacharacters accepted, plain words not.
        assert!(c.steps[1].dfa.accepts(b"x|y"));
        assert!(c.steps[1].dfa.accepts(b"`id`"));
        assert!(!c.steps[1].dfa.accepts(b"two words")); // residual case
    }

    #[test]
    fn path_cascade_catches_traversal_and_absolute() {
        let c = cascade_of("path");
        assert!(!c.steps[0].dfa.accepts(b"home")); // stem verifies
        assert!(c.steps[1].dfa.accepts(b"../../etc/passwd"));
        assert!(!c.steps[1].dfa.accepts(b"a.b/c"));
        assert!(c.steps[2].dfa.accepts(b"/etc/passwd"));
        assert!(!c.steps[2].dfa.accepts(b"etc/passwd"));
        assert!(!c.steps[3].dfa.accepts(b"pages/home.php")); // relative verifies
        assert!(c.steps[3].dfa.accepts(b"php://input")); // wrapper is not
    }

    #[test]
    fn eval_cascade_catches_code_tokens() {
        let c = cascade_of("eval");
        assert!(!c.steps[0].dfa.accepts(b"strtoupper_result"));
        assert!(c.steps[1].dfa.accepts(b"phpinfo()"));
        assert!(c.steps[1].dfa.accepts(b"1;system('id')"));
        assert!(!c.steps[1].dfa.accepts(b"two words"));
    }
}
