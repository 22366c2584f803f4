//! Include handling for the [`Emitter`]: dynamic include resolution
//! through the filesystem layout (paper §4), manual overrides,
//! `*_once` guards — and, when the path-traversal policy is enabled,
//! the include argument itself as a policy hotspot (a tainted include
//! path is the canonical local-file-inclusion sink).

use std::rc::Rc;

use strtaint_automata::{Dfa, Nfa};
use strtaint_grammar::budget::DegradeAction;
use strtaint_grammar::lang::bounded_language;
use strtaint_php::ast::IncludeKind;
use strtaint_php::Span;

use crate::builder::{Hotspot, Provenance};
use crate::emit::{product_grammar, Emitter};
use crate::env::Env;
use crate::ir::IrExpr;
use crate::vfs::normalize;

impl Emitter<'_> {
    fn layout_dfa(&mut self) -> Rc<Dfa> {
        if let Some(d) = &self.layout {
            return Rc::clone(d);
        }
        let mut nfa = Nfa::empty();
        for p in self.vfs.paths() {
            nfa = nfa.union(&Nfa::literal(p.as_bytes()));
            // Also accept the common "./path" spelling.
            let dotted = format!("./{p}");
            nfa = nfa.union(&Nfa::literal(dotted.as_bytes()));
        }
        let d = Rc::new(Dfa::from_nfa(&nfa).minimize());
        self.layout = Some(Rc::clone(&d));
        d
    }

    pub(crate) fn handle_include(
        &mut self,
        kind: IncludeKind,
        arg: &IrExpr,
        line: u32,
        env: &mut Env,
    ) {
        let nt = self.eval(arg, env);
        // Path policy: the include argument is a sink in its own right,
        // checked against the traversal cascade regardless of whether
        // the layout intersection below manages to resolve it.
        if let Some(policy) = self.sinks.include_policy {
            self.hotspots.push(Hotspot {
                file: self.cur_file.clone(),
                span: Span::new(line, 1),
                label: "include".to_owned(),
                root: nt,
                policy: policy.to_owned(),
                provenance: Provenance {
                    summary: self.cur_summary,
                    arg_span: None,
                },
            });
        }
        let site = format!("{}:{}", self.cur_file, line);
        let paths: Vec<String> = if let Some(ovr) = self.config.include_overrides.get(&site)
        {
            ovr.clone()
        } else if self.reaches_open_header(nt) {
            self.warn(format!("dynamic include at {site} inside loop skipped"));
            return;
        } else {
            self.force(&[nt]);
            let direct = bounded_language(&self.cfg, nt, self.config.max_include_fanout);
            let lang = match direct {
                Some(l) => Some(l),
                None => {
                    // §4: intersect with the filesystem layout, treating
                    // the directory tree as part of the specification.
                    let layout = self.layout_dfa();
                    let budget = self.budget.clone();
                    match product_grammar(&self.cfg, nt, &layout, &budget) {
                        Ok((g2, r2)) => {
                            bounded_language(&g2, r2, self.config.max_include_fanout)
                        }
                        Err(err) => {
                            self.degrade(
                                err,
                                &format!("include@{site}"),
                                DegradeAction::KeptUnrefined,
                            );
                            // Fall through to the unresolved-include
                            // warning below.
                            None
                        }
                    }
                }
            };
            match lang {
                Some(l) if !l.is_empty() => l
                    .into_iter()
                    .map(|b| String::from_utf8_lossy(&b).into_owned())
                    .collect(),
                Some(_) => {
                    self.warn(format!(
                        "dynamic include at {site} matches no file in the layout"
                    ));
                    return;
                }
                None => {
                    self.warn(format!(
                        "dynamic include at {site} unresolved (provide an override)"
                    ));
                    return;
                }
            }
        };
        for p in paths {
            self.include_file(&p, kind, env);
        }
    }

    fn include_file(&mut self, path: &str, kind: IncludeKind, env: &mut Env) {
        let norm = normalize(path);
        let once = matches!(kind, IncludeKind::IncludeOnce | IncludeKind::RequireOnce);
        if once && self.include_once.contains(&norm) {
            return;
        }
        let Some(src) = self.vfs.get(&norm) else {
            self.warn(format!("included file not found: {norm}"));
            return;
        };
        if once {
            self.include_once.insert(norm.clone());
        }
        // The summary cache replaces the per-analyzer parse cache: a
        // repeated include re-emits the shared IR instead of re-walking
        // a re-parsed AST. Parse failures are not cached and re-warn on
        // every occurrence, exactly like the single-pass builder. The
        // included file's extension picks its frontend, so a PHP page
        // can include a template partial and vice versa.
        let frontend = self.frontends.for_path(&norm);
        let summary = match self.summaries.get_or_lower(frontend, src, self.config) {
            Ok(s) => s,
            Err(e) => {
                self.warn(format!("included file {norm} failed to parse: {e}"));
                return;
            }
        };
        let prev = std::mem::replace(&mut self.cur_file, norm);
        let prev_summary = std::mem::replace(&mut self.cur_summary, summary.content_hash);
        self.files_analyzed += 1;
        self.inputs.insert(self.cur_file.clone());
        self.register_functions(&summary.body);
        self.emit_stmts(&summary.body, env);
        self.cur_file = prev;
        self.cur_summary = prev_summary;
    }
}
