//! The three workloads: how each builds its inputs from the seed, what
//! the expected verdicts are, and the requests the daemon workload
//! sends. Everything here is shared by the client, the traced driver
//! and the self-tests.

use std::io;
use std::path::Path;

use strtaint_corpus::{apps, synth_app, App, SynthConfig};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One cold CLI process over the Tiger replica (fixed input).
    TigerCli,
    /// One cold CLI process over a 30-page synthetic app.
    SynthCli,
    /// Edit-then-analyze-all batches against one warm `serve` daemon
    /// over a 2000-page synthetic app.
    FleetDaemon,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [
        Workload::TigerCli,
        Workload::SynthCli,
        Workload::FleetDaemon,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TigerCli => "tiger-cli",
            Workload::SynthCli => "synth-cli",
            Workload::FleetDaemon => "fleet-daemon",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The generated inputs of one workload plus their expected answers.
pub struct Inputs {
    /// The application tree and its entry points.
    pub app: App,
    /// What a correct run reports.
    pub oracle: Oracle,
}

/// The synthetic-app parameters of a workload, if it uses one.
fn synth_config(w: Workload, seed: u64) -> Option<SynthConfig> {
    match w {
        Workload::TigerCli => None,
        Workload::SynthCli => Some(SynthConfig {
            pages: 30,
            sinks_per_page: 3,
            replace_chain: 1,
            seed,
            ..SynthConfig::default()
        }),
        Workload::FleetDaemon => Some(SynthConfig {
            sinks_per_page: 3,
            ..SynthConfig::fleet(2000, seed)
        }),
    }
}

/// Builds a workload's inputs from its seed. The oracle is derived
/// from the generator's parameters, never from `strtaint` output.
pub fn inputs(w: Workload, seed: u64) -> Inputs {
    match synth_config(w, seed) {
        None => {
            let app = apps::tiger::build();
            let oracle = Oracle::ReportCounts {
                direct: app.truth.direct_total(),
                indirect: app.truth.indirect,
            };
            Inputs { app, oracle }
        }
        Some(cfg) => Inputs {
            app: synth_app(&cfg),
            oracle: Oracle::synth(&cfg),
        },
    }
}

/// Writes every file of `app` under `dir`, which must not exist yet.
pub fn write_tree(app: &App, dir: &Path) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for path in app.vfs.paths() {
        let target = dir.join(path);
        if let Some(parent) = target.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(target, app.vfs.get(path).unwrap_or(b""))?;
    }
    Ok(())
}

/// One page of a report, as the oracle sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageVerdict {
    /// Entry file.
    pub entry: String,
    /// `true` when the page verified with no findings.
    pub verified: bool,
    /// `true` when the analysis skipped or degraded the page.
    pub incomplete: bool,
    /// `(file, line, taint)` of every finding.
    pub findings: Vec<(String, u32, String)>,
}

/// The expected answer for a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Oracle {
    /// Expected verdict per entry, in entry order.
    PerPage(Vec<(String, bool)>),
    /// Expected number of distinct reported sites per taint class
    /// (Tiger: the `Truth` of the replica, Table 1 of the paper).
    ReportCounts {
        /// Sites reported with direct taint.
        direct: usize,
        /// Sites reported with indirect taint.
        indirect: usize,
    },
}

impl Oracle {
    /// Synthetic page `p` is vulnerable iff `p % vuln_every == 0`.
    pub fn synth(cfg: &SynthConfig) -> Oracle {
        Oracle::PerPage(
            (0..cfg.pages)
                .map(|p| {
                    let vulnerable = cfg.vuln_every != 0 && p % cfg.vuln_every == 0;
                    (format!("page{p}.php"), !vulnerable)
                })
                .collect(),
        )
    }

    /// Checks a run's pages against the expected answer.
    pub fn check(&self, pages: &[PageVerdict]) -> Result<(), String> {
        if let Some(p) = pages.iter().find(|p| p.incomplete) {
            return Err(format!("{}: skipped or degraded", p.entry));
        }
        match self {
            Oracle::PerPage(expected) => {
                if pages.len() != expected.len() {
                    return Err(format!(
                        "{} pages, expected {}",
                        pages.len(),
                        expected.len()
                    ));
                }
                for (page, (entry, verified)) in pages.iter().zip(expected) {
                    if &page.entry != entry {
                        return Err(format!("page {} where {entry} was expected", page.entry));
                    }
                    if page.verified != *verified {
                        return Err(format!(
                            "{entry}: verified={}, expected {verified}",
                            page.verified
                        ));
                    }
                    if page.verified != page.findings.is_empty() {
                        return Err(format!("{entry}: verdict disagrees with its findings"));
                    }
                }
                Ok(())
            }
            Oracle::ReportCounts { direct, indirect } => {
                let sites = |taint: &str| {
                    let mut s: Vec<(&str, u32)> = pages
                        .iter()
                        .flat_map(|p| &p.findings)
                        .filter(|(_, _, t)| t == taint)
                        .map(|(f, l, _)| (f.as_str(), *l))
                        .collect();
                    s.sort_unstable();
                    s.dedup();
                    s.len()
                };
                let (d, i) = (sites("direct"), sites("indirect"));
                let other = pages
                    .iter()
                    .flat_map(|p| &p.findings)
                    .any(|(_, _, t)| t != "direct" && t != "indirect");
                if d != *direct || i != *indirect || other {
                    return Err(format!(
                        "{d} direct and {i} indirect sites, expected {direct} and {indirect}"
                    ));
                }
                Ok(())
            }
        }
    }

    /// Whether any page is expected to carry a finding (the CLI then
    /// exits 1 rather than 0).
    pub fn expects_findings(&self) -> bool {
        match self {
            Oracle::PerPage(e) => e.iter().any(|(_, v)| !v),
            Oracle::ReportCounts { direct, indirect } => direct + indirect > 0,
        }
    }
}

/// Reads the pages of a CLI `--json` report.
pub fn cli_pages(doc: &crate::json::Value) -> Result<Vec<PageVerdict>, String> {
    let pages = doc
        .get("pages")
        .and_then(|p| p.as_arr())
        .ok_or("report has no \"pages\" array")?;
    pages
        .iter()
        .map(|p| {
            let findings = p
                .get("findings")
                .and_then(|f| f.as_arr())
                .ok_or("page has no \"findings\"")?
                .iter()
                .map(|f| finding(f, f))
                .collect::<Result<_, _>>()?;
            page_verdict(p, findings)
        })
        .collect()
}

/// Reads the pages of a daemon `analyze` result.
pub fn daemon_pages(result: &crate::json::Value) -> Result<Vec<PageVerdict>, String> {
    let pages = result
        .get("pages")
        .and_then(|p| p.as_arr())
        .ok_or("analyze result has no \"pages\" array")?;
    pages
        .iter()
        .map(|p| {
            let mut findings = Vec::new();
            for h in p.get("hotspots").and_then(|h| h.as_arr()).unwrap_or(&[]) {
                for f in h.get("findings").and_then(|f| f.as_arr()).unwrap_or(&[]) {
                    findings.push(finding(h, f)?);
                }
            }
            page_verdict(p, findings)
        })
        .collect()
}

fn finding(
    site: &crate::json::Value,
    f: &crate::json::Value,
) -> Result<(String, u32, String), String> {
    let file = site
        .get("file")
        .and_then(|v| v.as_str())
        .ok_or("finding without file")?;
    let line = site
        .get("line")
        .and_then(|v| v.as_num())
        .ok_or("finding without line")?;
    let taint = f
        .get("taint")
        .and_then(|v| v.as_str())
        .ok_or("finding without taint")?;
    Ok((file.to_owned(), line as u32, taint.to_owned()))
}

fn page_verdict(
    p: &crate::json::Value,
    findings: Vec<(String, u32, String)>,
) -> Result<PageVerdict, String> {
    let entry = p
        .get("entry")
        .and_then(|v| v.as_str())
        .ok_or("page without entry")?;
    let verified = p
        .get("verified")
        .and_then(|v| v.as_bool())
        .ok_or("page without verified flag")?;
    let skipped = !matches!(p.get("skipped"), None | Some(crate::json::Value::Null));
    let degraded = p.get("degraded").and_then(|v| v.as_bool()).unwrap_or(false);
    Ok(PageVerdict {
        entry: entry.to_owned(),
        verified,
        incomplete: skipped || degraded,
        findings,
    })
}

/// A small deterministic generator (SplitMix64) for the edit schedule.
#[derive(Debug, Clone)]
struct SplitMix(u64);

impl SplitMix {
    /// Seeds the generator.
    fn new(seed: u64) -> SplitMix {
        SplitMix(seed ^ 0x5eed_f1ee_7da3_0001)
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The daemon workload's request stream: op `n` edits one page (picked
/// from the seed) by appending a PHP comment, then analyzes every entry.
#[derive(Debug)]
pub struct EditStream {
    rng: SplitMix,
    n: u64,
    /// `"entries":[…]` member, serialized once.
    entries_json: String,
}

impl EditStream {
    /// The stream for `app` under `seed`.
    pub fn new(app: &App, seed: u64) -> EditStream {
        let names: Vec<String> = app
            .entries
            .iter()
            .map(|e| format!("\"{}\"", crate::json::escape(e)))
            .collect();
        EditStream {
            rng: SplitMix::new(seed),
            n: 0,
            entries_json: format!("\"entries\":[{}]", names.join(",")),
        }
    }

    /// The cold analyze-all request (daemon set-up).
    pub fn analyze_all(&self) -> String {
        format!("{{\"cmd\":\"analyze\",{}}}", self.entries_json)
    }

    /// The next op: the edited page and the one-line `batch` request.
    pub fn next_op(&mut self, app: &App) -> (String, String) {
        let page = &app.entries[(self.rng.next_u64() % app.entries.len() as u64) as usize];
        self.n += 1;
        let original = String::from_utf8_lossy(app.vfs.get(page).unwrap_or(b"")).into_owned();
        // A comment changes the bytes (so the page recomputes) but not
        // the semantics (so every verdict must stay the same).
        let contents = format!("{original}<?php /* edit {} */ ?>\n", self.n);
        let request = format!(
            "{{\"cmd\":\"batch\",\"ops\":[{{\"cmd\":\"invalidate\",\"path\":\"{}\",\"contents\":\"{}\"}},{{\"cmd\":\"analyze\",{}}}]}}",
            crate::json::escape(page),
            crate::json::escape(&contents),
            self.entries_json
        );
        (page.clone(), request)
    }
}

/// Checks one daemon `batch` response: the edit applied and every page
/// verdict matches the oracle. Returns `(computed, replayed)`.
pub fn check_batch_response(line: &[u8], oracle: &Oracle) -> Result<(u64, u64), String> {
    let doc = crate::json::parse(line)?;
    if doc.get("ok").and_then(|v| v.as_bool()) != Some(true) {
        return Err(format!("batch failed: {}", String::from_utf8_lossy(line)));
    }
    let results = doc
        .get("results")
        .and_then(|r| r.as_arr())
        .filter(|r| r.len() == 2)
        .ok_or("batch response needs two results")?;
    if results[0].get("changed").and_then(|v| v.as_bool()) != Some(true) {
        return Err("the edit did not change the tree".to_owned());
    }
    check_analyze_result(&results[1], oracle)
}

/// Checks one daemon `analyze` result against the oracle. Returns
/// `(computed, replayed)`.
pub fn check_analyze_result(
    result: &crate::json::Value,
    oracle: &Oracle,
) -> Result<(u64, u64), String> {
    if result.get("ok").and_then(|v| v.as_bool()) != Some(true) {
        return Err("analyze failed".to_owned());
    }
    oracle.check(&daemon_pages(result)?)?;
    let count = |k: &str| result.get(k).and_then(|v| v.as_num()).unwrap_or(0.0) as u64;
    Ok((count("computed"), count("replayed")))
}
