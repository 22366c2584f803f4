//! Demand-driven transducer images for the [`Emitter`].
//!
//! Applying a transducer (paper §3.1.2: `addslashes`, `str_replace`
//! chains, `preg_replace`) does not build its image. It allocates a
//! *placeholder* nonterminal and records the operand, the transducer
//! and the site. The image is computed — *forced* — only when
//! something reads the placeholder's language:
//!
//! - the emitter itself: a taint query ([`Emitter::reachable_taint`]),
//!   a refinement or include-layout intersection, an include's bounded
//!   language, or a later image whose operand reaches it;
//! - the end of the page ([`Emitter::into_analysis`]), which forces
//!   every placeholder reachable from the sinks the page will check.
//!
//! A forced image is written with the placeholder as its root, so the
//! grammar a checked sink reaches is exactly the eagerly built one, and
//! an image only unchecked code reads — BBCode markup feeding `echo`
//! when the XSS policy is off (the paper's Tiger effect, §5.3) — is
//! never built. That is the paper's §7 proposal to skip string work
//! that does not influence queries, decided by the grammar itself
//! rather than by variable names.
//!
//! Only the loop-carried widening is decided at apply time: the set of
//! open loop headers is transient, while an operand that reaches none
//! of them can never come to reach one (closed headers gain no
//! productions). Everything else an eager image did — the operand-size
//! cap, the budget charge, and the warnings and degradations they
//! raise — happens when the image is forced, attributed to the site
//! recorded at apply time.

use std::sync::Arc;

use strtaint_automata::Fst;
use strtaint_grammar::budget::DegradeAction;
use strtaint_grammar::image::image_into;
use strtaint_grammar::{NtId, Symbol};

use crate::emit::Emitter;

/// A transducer application whose image has not been computed yet.
#[derive(Debug)]
pub(crate) struct Pending {
    /// Root of the operand grammar.
    pub(crate) operand: NtId,
    fst: Arc<Fst>,
    /// The applied function, for warnings and the widened name.
    what: String,
    /// The file being emitted at the application.
    file: String,
}

impl Emitter<'_> {
    /// Applies a transducer to the grammar rooted at `nt`, returning a
    /// placeholder for the image. Inside open loops the result is
    /// widened to tainted Σ* at once (the paper's "string operations
    /// in cycles must be approximated").
    pub(crate) fn apply_fst(&mut self, nt: NtId, fst: &Arc<Fst>, what: &str) -> NtId {
        if self.reaches_open_header(nt) {
            let t = self.reachable_taint(nt);
            self.warn(format!("{what} applied to loop-carried value; widened"));
            return self.any_with_taint(what, t);
        }
        let placeholder = self.cfg.add_nonterminal(format!("pending:{what}"));
        self.pending.insert(
            placeholder,
            Pending {
                operand: nt,
                fst: Arc::clone(fst),
                what: what.to_owned(),
                file: self.cur_file.clone(),
            },
        );
        placeholder
    }

    /// Forces every placeholder reachable from `roots`.
    pub(crate) fn force(&mut self, roots: &[NtId]) {
        if self.pending.is_empty() {
            return;
        }
        for nt in self.cfg.reachable_from(roots) {
            if self.cfg.productions(nt).is_empty() {
                self.force_image(nt);
            }
        }
    }

    /// Computes the image behind `placeholder`, if it is one that is
    /// still pending, forcing its operand's placeholders first.
    ///
    /// The image goes into the placeholder itself. An operand larger
    /// than `Config::max_transducer_grammar` (chained replacements
    /// otherwise blow up multiplicatively, paper §5.3) or a budget trip
    /// widens the placeholder instead, to Σ* with the operand's taint.
    pub(crate) fn force_image(&mut self, placeholder: NtId) {
        let Some(Pending {
            operand,
            fst,
            what,
            file,
        }) = self.pending.remove(&placeholder)
        else {
            return;
        };
        self.force(&[operand]);
        let prev_file = std::mem::replace(&mut self.cur_file, file);
        let cap = self.config.max_transducer_grammar;
        let imaged = if self.cfg.count_reachable_productions(operand, cap) > cap {
            self.warn(format!(
                "{what} operand grammar exceeds {cap} productions; widened"
            ));
            false
        } else {
            let budget = self.budget.clone();
            match image_into(&mut self.cfg, operand, &fst, &budget, placeholder) {
                Ok(()) => true,
                Err(err) => {
                    self.degrade(err, &what, DegradeAction::WidenedToAny);
                    false
                }
            }
        };
        if !imaged {
            // Sound widening: Σ* with the operand's taint is a superset
            // of any transducer image of it.
            let t = self.reachable_taint(operand);
            self.cfg.set_name(placeholder, format!("widened:{what}"));
            self.cfg.set_taint(placeholder, t);
            self.cfg
                .add_production(placeholder, vec![Symbol::N(self.any_nt)]);
        }
        self.cur_file = prev_file;
    }
}
