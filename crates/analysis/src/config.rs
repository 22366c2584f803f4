//! Analyzer configuration.

use std::collections::HashMap;
use std::time::Duration;

/// Configuration of sources, sinks, and analysis limits.
///
/// The defaults mirror the paper's setup: GET/POST/cookie superglobals
/// are *direct* sources, and database fetch results and designated
/// globals (like Utopia News Pro's `$USER`) are *indirect* sources.
/// Sinks — `$DB->query(...)`-style calls for the default `sql` policy —
/// come from the `strtaint-policy` registry.
#[derive(Debug, Clone)]
pub struct Config {
    /// Superglobal array names whose elements are directly
    /// user-controlled.
    pub direct_superglobals: Vec<String>,
    /// Superglobal / global array names whose elements are indirectly
    /// user-controlled (populated from the database or session).
    pub indirect_globals: Vec<String>,
    /// Method/function names whose result is a row fetched from the
    /// database (an indirect source).
    pub fetch_functions: Vec<String>,
    /// Enabled policy ids (see `strtaint-policy`): which vulnerability
    /// classes sink recognition and checking run for. The default is
    /// `["sql"]` — the paper's SQLCIV analysis. Each enabled policy arms
    /// its registry sink table; `"xss"` routes `echo` sinks through the
    /// XSS checker in multi-policy drivers. Part of
    /// [`Config::fingerprint`]: a cached verdict can never be replayed
    /// under a different policy selection.
    pub policies: Vec<String>,
    /// Manual resolutions for dynamic includes the layout intersection
    /// cannot settle (the paper needed two of these for e107): maps the
    /// include-site label `file:line` to the list of files to include.
    pub include_overrides: HashMap<String, Vec<String>>,
    /// Maximum user-function inlining depth before widening to Σ*.
    pub max_call_depth: usize,
    /// Maximum number of include files expanded from one dynamic
    /// include site.
    pub max_include_fanout: usize,
    /// Size budget (productions) for a transducer operand grammar;
    /// larger operands are widened to tainted Σ* with a warning. Bounds
    /// the multiplicative blow-up of chained `str_replace` calls (paper
    /// §5.3, the Tiger PHP News System effect).
    pub max_transducer_grammar: usize,
    /// Wall-clock deadline for analyzing and checking one page. `None`
    /// = unlimited. On expiry, in-flight grammar operations degrade
    /// soundly (widening / unverified findings — never a silent
    /// "verified").
    pub timeout: Option<Duration>,
    /// Step-fuel budget (worklist pops, Earley items) for one page.
    /// `None` = unlimited. Exhaustion degrades exactly like `timeout`.
    pub fuel: Option<u64>,
    /// Enabled frontend ids, in priority order (see
    /// [`crate::FrontendSet`]). PHP is always available as the
    /// fallback even when not listed; unknown names are ignored. The
    /// default enables both shipped frontends: `["php", "tpl"]`.
    pub frontends: Vec<String>,
    /// Extra file-extension → frontend-id mappings, overriding the
    /// frontends' default extension claims (e.g. `"html" → "tpl"`).
    /// Extensions are matched case-insensitively, without the dot.
    pub extension_overrides: HashMap<String, String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            direct_superglobals: ["_GET", "_POST", "_REQUEST", "_COOKIE", "_SERVER", "HTTP_GET_VARS", "HTTP_POST_VARS", "HTTP_COOKIE_VARS"]
                .map(String::from)
                .to_vec(),
            indirect_globals: ["_SESSION", "USER"].map(String::from).to_vec(),
            fetch_functions: [
                "mysql_fetch_array",
                "mysql_fetch_assoc",
                "mysql_fetch_row",
                "mysql_fetch_object",
                "mysql_result",
                "fetch",
                "fetch_array",
                "fetch_assoc",
                "fetch_row",
                "fetchrow",
                "sql_fetch_array",
                "sql_fetchrow",
            ]
            .map(String::from)
            .to_vec(),
            policies: vec!["sql".to_string()],
            include_overrides: HashMap::new(),
            max_call_depth: 8,
            max_include_fanout: 64,
            max_transducer_grammar: 100_000,
            timeout: None,
            fuel: None,
            frontends: ["php", "tpl"].map(String::from).to_vec(),
            extension_overrides: HashMap::new(),
        }
    }
}

impl Config {
    /// Builds the per-page [`strtaint_grammar::Budget`] these limits
    /// describe. The deadline clock starts now, so call this once per
    /// page, right before analysis begins.
    pub fn page_budget(&self) -> strtaint_grammar::Budget {
        strtaint_grammar::Budget::new(self.timeout, self.fuel, None)
    }

    /// Hashes **every** field that can influence an analysis result —
    /// sources, sinks, include overrides, inlining limits, budgets.
    /// This is the whole-config fingerprint the analysis daemon keys
    /// cached verdicts on (coarser than
    /// [`crate::summary::config_fingerprint`], which covers only the
    /// fields lowering could observe): two configs with equal
    /// fingerprints produce identical reports for identical inputs, so
    /// a verdict may only be replayed when the fingerprint matches.
    ///
    /// The hash is [`std::collections::hash_map::DefaultHasher`],
    /// which is deterministic across processes but not guaranteed
    /// stable across Rust releases — acceptable because every consumer
    /// also keys on the engine version and treats mismatches as cache
    /// misses, never as errors.
    pub fn fingerprint(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};

        let mut h = DefaultHasher::new();
        self.hash_replay_fields(&mut h);
        // Frontend selection: which languages are enabled, how
        // extensions dispatch, and each enabled frontend's lowering
        // fingerprint (so a lowering-semantics bump invalidates
        // whole-config consumers too).
        self.frontends.hash(&mut h);
        let mut exts: Vec<(&String, &String)> = self.extension_overrides.iter().collect();
        exts.sort();
        exts.hash(&mut h);
        for f in crate::frontend::FrontendSet::from_config(self).all() {
            f.id().hash(&mut h);
            f.fingerprint().hash(&mut h);
        }
        h.finish()
    }

    /// Like [`Config::fingerprint`], but **excluding** frontend
    /// selection (`frontends` / `extension_overrides` / lowering
    /// fingerprints). The daemon keys cached page verdicts on this so
    /// that flipping the extension map recomputes only the pages whose
    /// dependencies actually dispatch differently — each verdict
    /// carries per-dependency frontend evidence that freshness
    /// validation checks against the live
    /// [`FrontendSet`](crate::FrontendSet) instead.
    pub fn replay_fingerprint(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::Hasher;

        let mut h = DefaultHasher::new();
        self.hash_replay_fields(&mut h);
        h.finish()
    }

    fn hash_replay_fields(&self, h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;

        self.direct_superglobals.hash(h);
        self.indirect_globals.hash(h);
        self.fetch_functions.hash(h);
        self.policies.hash(h);
        let mut overrides: Vec<(&String, &Vec<String>)> =
            self.include_overrides.iter().collect();
        overrides.sort();
        overrides.hash(h);
        self.max_call_depth.hash(h);
        self.max_include_fanout.hash(h);
        self.max_transducer_grammar.hash(h);
        self.timeout.hash(h);
        self.fuel.hash(h);
    }
}

impl Config {
    /// Creates the default configuration.
    pub fn new() -> Self {
        Config::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_tracks_every_analysis_knob() {
        let base = Config::default();
        assert_eq!(base.fingerprint(), Config::default().fingerprint());

        let mut c = Config::default();
        c.fetch_functions.push("fetch_one".into());
        assert_ne!(base.fingerprint(), c.fingerprint());

        let mut c = Config::default();
        c.fuel = Some(1000);
        assert_ne!(base.fingerprint(), c.fingerprint());

        let mut c = Config::default();
        c.include_overrides
            .insert("a.php:3".into(), vec!["lib.php".into()]);
        assert_ne!(base.fingerprint(), c.fingerprint());

        // Flipping the enabled-policy set must invalidate cached
        // verdicts: shell findings are not SQL findings.
        let mut c = Config::default();
        c.policies.push("shell".into());
        assert_ne!(base.fingerprint(), c.fingerprint());

        let mut c = Config::default();
        c.policies = vec!["shell".into(), "path".into(), "eval".into()];
        assert_ne!(base.fingerprint(), c.fingerprint());

        // Frontend selection is part of the whole-config fingerprint…
        let mut c = Config::default();
        c.frontends = vec!["php".into()];
        assert_ne!(base.fingerprint(), c.fingerprint());

        let mut c = Config::default();
        c.extension_overrides.insert("html".into(), "tpl".into());
        assert_ne!(base.fingerprint(), c.fingerprint());
    }

    #[test]
    fn replay_fingerprint_ignores_frontend_selection() {
        let base = Config::default();
        let mut c = Config::default();
        c.frontends = vec!["php".into()];
        c.extension_overrides.insert("html".into(), "tpl".into());
        // Verdict replay keys stay stable across extension-map flips;
        // freshness is decided per-dependency from frontend evidence.
        assert_eq!(base.replay_fingerprint(), c.replay_fingerprint());

        // …but every analysis-observable knob still changes it.
        let mut c = Config::default();
        c.policies.push("shell".into());
        assert_ne!(base.replay_fingerprint(), c.replay_fingerprint());
    }

    #[test]
    fn defaults_cover_paper_sources() {
        let c = Config::default();
        assert!(c.direct_superglobals.iter().any(|s| s == "_GET"));
        assert!(c.indirect_globals.iter().any(|s| s == "USER"));
        assert!(c.max_call_depth > 0);
    }
}
