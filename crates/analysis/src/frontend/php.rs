//! The PHP frontend: `strtaint-php` parsing + the original
//! [`crate::lower`] AST walk, behind the [`Frontend`] trait.
//!
//! This impl is a thin adapter — the parse and lowering code paths are
//! exactly the ones the analyzer has always run, so IR output (and
//! therefore every downstream grammar, verdict, and SARIF byte) is
//! identical to the pre-trait analyzer.

use crate::ir::IrStmt;
use crate::lower;

use super::{fingerprint_of, Frontend, FrontendError};

/// Bump when PHP lowering output changes (invalidates cached
/// summaries lowered under the old semantics).
const LOWERING_VERSION: u32 = 2;

/// The PHP language frontend.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhpFrontend;

impl Frontend for PhpFrontend {
    fn id(&self) -> &'static str {
        "php"
    }

    fn extensions(&self) -> &'static [&'static str] {
        &["php"]
    }

    fn fingerprint(&self) -> u64 {
        fingerprint_of("php", LOWERING_VERSION)
    }

    fn lower(&self, src: &[u8]) -> Result<Vec<IrStmt>, FrontendError> {
        let file = strtaint_php::parse(src)?;
        Ok(lower::lower_file(&file))
    }
}
