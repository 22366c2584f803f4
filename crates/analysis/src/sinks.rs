//! Policy-driven sink recognition.
//!
//! Lowering used to special-case `mysql_query`/`echo`; now every sink
//! decision is a lookup in a [`SinkTable`] built once per analysis
//! from the enabled policies in [`Config::policies`] and the
//! `strtaint-policy` registry. The SQL policy keeps sourcing its live
//! sink names from `Config::{hotspot_functions,hotspot_methods}` (they
//! are user-configurable and part of the config fingerprint); the
//! data-defined policies contribute their registry sink tables.

use std::collections::HashMap;

use crate::config::Config;

/// Which policy a recognized sink call belongs to and which argument
/// is the sink argument.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SinkEntry {
    pub policy: &'static str,
    pub arg: usize,
}

/// Per-analysis sink lookup table.
#[derive(Debug, Clone, Default)]
pub(crate) struct SinkTable {
    functions: HashMap<String, SinkEntry>,
    methods: HashMap<String, SinkEntry>,
    /// `Some(policy)` when a policy claims `include`/`require` sites
    /// as sinks (the path-traversal policy).
    pub(crate) include_policy: Option<&'static str>,
    /// Whether `preg_replace` with an `/e` pattern modifier is an
    /// eval-class sink for its subject argument.
    pub(crate) preg_replace_e: Option<&'static str>,
    /// `Some(policy)` when a policy checks `echo`/`print` output (XSS).
    pub(crate) echo_policy: Option<&'static str>,
}

impl SinkTable {
    pub(crate) fn new(config: &Config) -> Self {
        let mut t = SinkTable::default();
        for p in strtaint_policy::builtin() {
            if !config.policies.iter().any(|id| id == p.id) {
                continue;
            }
            if p.id == strtaint_policy::SQL_POLICY {
                // Live names from the config, not the registry copy.
                for f in &config.hotspot_functions {
                    t.functions
                        .insert(f.clone(), SinkEntry { policy: p.id, arg: 0 });
                }
                for m in &config.hotspot_methods {
                    t.methods
                        .insert(m.clone(), SinkEntry { policy: p.id, arg: 0 });
                }
                continue;
            }
            for &(name, arg) in p.sink_functions {
                // First policy to claim a name wins; SQL ran first.
                t.functions
                    .entry(name.to_string())
                    .or_insert(SinkEntry { policy: p.id, arg });
            }
            for &(name, arg) in p.sink_methods {
                t.methods
                    .entry(name.to_string())
                    .or_insert(SinkEntry { policy: p.id, arg });
            }
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
            self.methods.get(bare).copied()
        } else {
            self.functions.get(bare).copied()
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
        assert_eq!(t.lookup(false, "create_function").map(|e| e.arg), Some(1));
        assert_eq!(t.include_policy, Some("path"));
        assert_eq!(t.preg_replace_e, Some("eval"));
        // SQL sinks still come from the config lists.
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
