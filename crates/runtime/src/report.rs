//! Offline reporting: replay a trial store's aggregates without executing
//! anything, and render results for terminals.

use crate::store::{read_store, StoreHeader};
use dpaudit_core::AuditReport;
use std::fmt::Write as _;
use std::path::Path;

/// What a store replay recovered.
#[derive(Debug)]
pub struct StoreReport {
    /// The store's header.
    pub header: StoreHeader,
    /// Distinct trial indices present.
    pub completed: usize,
    /// Trial indices still missing (empty ⇔ the batch finished).
    pub missing: Vec<usize>,
    /// The aggregate report — `Some` only when the batch is complete, and
    /// then bit-identical to the report the original run produced.
    pub report: Option<AuditReport>,
}

/// Replay a store: [`read_store`], then [`crate::StoreContents::report`].
///
/// # Errors
/// The errors of [`read_store`].
pub fn replay_store(path: &Path) -> std::io::Result<StoreReport> {
    let contents = read_store(path)?;
    Ok(StoreReport {
        completed: contents.records.len(),
        report: contents.report(),
        header: contents.header,
        missing: contents.missing,
    })
}

/// Render a header + report for the terminal.
pub fn render_report(header: &StoreHeader, report: &AuditReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "audit: {}", header.label);
    let _ = writeln!(
        out,
        "  workload {} · {} trials · seed {} · {:?} detail",
        header.workload, header.reps, header.master_seed.0, header.detail
    );
    let _ = writeln!(
        out,
        "  claim: eps = {:.4}, delta = {:e} (rho_beta bound {:.4})",
        header.target_epsilon, header.delta, header.rho_beta_bound
    );
    let _ = writeln!(
        out,
        "  advantage      {:+.4}   (success rate {:.4})",
        report.advantage,
        (report.advantage + 1.0) / 2.0
    );
    let _ = writeln!(out, "  max belief     {:.4}", report.max_belief);
    let _ = writeln!(out, "  empirical delta {:.4}", report.empirical_delta);
    let _ = writeln!(
        out,
        "  eps' from LS        {:.4}   ({:.0}% of claim)",
        report.eps_from_ls,
        100.0 * report.budget_utilisation()
    );
    let _ = writeln!(out, "  eps' from belief    {:.4}", report.eps_from_belief);
    let _ = writeln!(
        out,
        "  eps' from advantage {:.4}",
        report.eps_from_advantage
    );
    let _ = writeln!(
        out,
        "  verdict: {}",
        if report.exceeds_claim(0.1) {
            "estimators exceed the claim — increase reps or investigate"
        } else {
            "consistent with the claimed budget"
        }
    );
    out
}

/// Render an incomplete store's status for the terminal.
pub fn render_partial(header: &StoreHeader, completed: usize, missing: &[usize]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "audit: {} (incomplete)", header.label);
    let _ = writeln!(
        out,
        "  {completed}/{} trials stored, {} missing — run `audit resume` to finish",
        header.reps,
        missing.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpaudit_core::RecordDetail;

    #[test]
    fn render_mentions_every_estimator() {
        let header = StoreHeader {
            schema_version: crate::store::SCHEMA_VERSION,
            label: "render-test".into(),
            workload: "toy".into(),
            train_size: 8,
            world_seed: crate::store::Seed(0),
            reps: 10,
            master_seed: crate::store::Seed(1),
            target_epsilon: 2.0,
            delta: 1e-3,
            rho_beta_bound: 0.88,
            detail: RecordDetail::Summary,
            settings: crate::testkit::toy_settings(2),
        };
        let report = AuditReport {
            target_epsilon: 2.0,
            delta: 1e-3,
            trials: 10,
            eps_from_ls: 1.5,
            eps_from_belief: 1.2,
            eps_from_advantage: 0.8,
            advantage: 0.4,
            max_belief: 0.76,
            empirical_delta: 0.0,
        };
        let text = render_report(&header, &report);
        for needle in [
            "eps' from LS",
            "eps' from belief",
            "eps' from advantage",
            "max belief",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
        let partial = render_partial(&header, 3, &[3, 4, 5, 6, 7, 8, 9]);
        assert!(partial.contains("3/10 trials"));
    }
}
