//! Correctness gate run once per invocation: regenerate the committed
//! golden pack through `lat_exp`'s public API and require every artifact
//! to match its committed file byte for byte.

use std::path::Path;

use lat_bench::scenarios::HARNESS_SEED;
use lat_core::pool::Scheduler;
use lat_exp::artifact::verify_seal;
use lat_exp::plan::{builtin_disagg_plans, builtin_plans};
use lat_exp::runner::{run_disagg_plan, run_plan};
use serde::json::Value;

/// Where the golden pack lives, relative to the repository root.
pub const GOLDEN_DIR: &str = "crates/exp/expected";

/// Regenerates every committed plan under the seed the pack was sealed
/// with and compares it with the file in `dir`. Returns the number of
/// artifacts checked.
///
/// Sets `HARNESS_SEED` for this process: call it before any workload that
/// reads the variable.
pub fn check(dir: &Path, pool: &Scheduler) -> Result<usize, String> {
    std::env::set_var("HARNESS_SEED", format!("{HARNESS_SEED:#x}"));
    let mut docs: Vec<(&str, Value)> = builtin_plans()
        .iter()
        .map(|p| (p.name, run_plan(p, pool)))
        .collect();
    docs.extend(
        builtin_disagg_plans()
            .iter()
            .map(|p| (p.name, run_disagg_plan(p, pool))),
    );
    for (name, doc) in &docs {
        verify_seal(doc).map_err(|e| format!("regenerated {name}: {e}"))?;
        let path = dir.join(format!("{name}.json"));
        let committed = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        if doc.to_pretty_string(2) != committed {
            return Err(format!(
                "{name} differs from {} (regenerate with `analyze --out`)",
                path.display()
            ));
        }
    }
    Ok(docs.len())
}
