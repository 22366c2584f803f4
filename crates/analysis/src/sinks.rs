//! Policy-driven sink recognition.
//!
//! Lowering used to special-case `mysql_query`/`echo`; now every sink
//! decision is a lookup in a [`SinkTable`] built once per analysis
//! from the enabled policies in [`Config::policies`] and the sink
//! tables of the `strtaint-policy` registry.

use std::collections::HashMap;

use crate::config::Config;

/// Which policy a recognized sink call belongs to and which arguments
/// are its sink arguments.
#[derive(Debug, Clone)]
pub(crate) struct SinkEntry {
    pub policy: &'static str,
    /// Registry argument positions: a negative one counts from the end.
    args: Vec<isize>,
}

impl SinkEntry {
    /// The checked argument indices of a call with `n` arguments.
    pub(crate) fn positions(&self, n: usize) -> impl Iterator<Item = usize> + '_ {
        let at = move |&a: &isize| usize::try_from(a).ok().or(n.checked_sub(a.unsigned_abs()));
        self.args.iter().filter_map(at)
    }
}

/// Per-analysis sink lookup table.
#[derive(Debug, Clone, Default)]
pub(crate) struct SinkTable {
    functions: HashMap<&'static str, SinkEntry>,
    methods: HashMap<&'static str, SinkEntry>,
    /// `Some(policy)` when a policy claims `include`/`require` sites
    /// as sinks (the path-traversal policy).
    pub(crate) include_policy: Option<&'static str>,
    /// Whether `preg_replace` with an `/e` pattern modifier is an
    /// eval-class sink for its subject argument.
    pub(crate) preg_replace_e: Option<&'static str>,
    /// `Some(policy)` when a policy checks `echo`/`print` output (XSS).
    pub(crate) echo_policy: Option<&'static str>,
}

/// Adds one policy's `(name, position)` sink pairs to `table`. The
/// first policy to claim a name wins; a name it lists twice has both
/// positions checked.
fn claim(
    table: &mut HashMap<&'static str, SinkEntry>,
    policy: &'static str,
    sinks: &[(&'static str, isize)],
) {
    for &(name, arg) in sinks {
        let entry = table.entry(name).or_insert(SinkEntry {
            policy,
            args: Vec::new(),
        });
        if entry.policy == policy {
            entry.args.push(arg);
        }
    }
}

impl SinkTable {
    pub(crate) fn new(config: &Config) -> Self {
        let mut t = SinkTable::default();
        for p in strtaint_policy::builtin() {
            if !config.policies.iter().any(|id| id == p.id) {
                continue;
            }
            claim(&mut t.functions, p.id, p.sink_functions);
            claim(&mut t.methods, p.id, p.sink_methods);
            for &c in p.sink_constructs {
                match c {
                    "echo" => t.echo_policy = Some(p.id),
                    "include" => t.include_policy = Some(p.id),
                    "preg_replace/e" => t.preg_replace_e = Some(p.id),
                    _ => {}
                }
            }
        }
        t
    }

    /// Looks up a call by bare name; `method` selects the `->name(..)`
    /// table. Returns an owned entry so callers can keep mutating the
    /// emitter while holding it.
    pub(crate) fn lookup(&self, method: bool, bare: &str) -> Option<SinkEntry> {
        if method {
            self.methods.get(bare).cloned()
        } else {
            self.functions.get(bare).cloned()
        }
    }
}

/// `true` when a PCRE pattern literal (delimiter-wrapped, e.g.
/// `/x/e` or `#x#ie`) carries the `e` (evaluate-replacement) modifier.
pub(crate) fn pattern_has_e_modifier(pat: &[u8]) -> bool {
    let Some(&delim) = pat.first() else {
        return false;
    };
    // Bracket-style delimiters close with the matching bracket.
    let close = match delim {
        b'(' => b')',
        b'[' => b']',
        b'{' => b'}',
        b'<' => b'>',
        d => d,
    };
    let Some(end) = pat.iter().rposition(|&b| b == close) else {
        return false;
    };
    end > 0 && pat[end + 1..].contains(&b'e')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_recognizes_only_sql_sinks() {
        let t = SinkTable::new(&Config::default());
        assert_eq!(t.lookup(false, "mysql_query").map(|e| e.policy), Some("sql"));
        assert_eq!(t.lookup(true, "query").map(|e| e.policy), Some("sql"));
        assert!(t.lookup(false, "system").is_none());
        assert!(t.lookup(false, "eval").is_none());
        assert!(t.include_policy.is_none());
        assert!(t.preg_replace_e.is_none());
    }

    #[test]
    fn enabled_policies_arm_their_sink_tables() {
        let mut c = Config::default();
        c.policies = vec!["sql".into(), "shell".into(), "path".into(), "eval".into()];
        let t = SinkTable::new(&c);
        assert_eq!(t.lookup(false, "system").map(|e| e.policy), Some("shell"));
        assert_eq!(
            t.lookup(false, "file_get_contents").map(|e| e.policy),
            Some("path")
        );
        assert_eq!(t.lookup(false, "eval").map(|e| e.policy), Some("eval"));
        // create_function's code body is its *second* argument.
        let create = t.lookup(false, "create_function").expect("eval sink");
        assert_eq!(create.positions(2).collect::<Vec<_>>(), [1]);
        assert_eq!(t.include_policy, Some("path"));
        assert_eq!(t.preg_replace_e, Some("eval"));
        assert_eq!(t.lookup(false, "mysql_query").map(|e| e.policy), Some("sql"));
    }

    #[test]
    fn e_modifier_detection() {
        assert!(pattern_has_e_modifier(b"/x/e"));
        assert!(pattern_has_e_modifier(b"/x/ie"));
        assert!(pattern_has_e_modifier(b"#a.b#e"));
        assert!(pattern_has_e_modifier(b"{a}e"));
        assert!(!pattern_has_e_modifier(b"/x/i"));
        assert!(!pattern_has_e_modifier(b"/e/"));
        assert!(!pattern_has_e_modifier(b""));
        assert!(!pattern_has_e_modifier(b"/"));
    }
}
