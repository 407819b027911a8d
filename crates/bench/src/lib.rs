//! # cs-bench — the figure/table regeneration harness
//!
//! One binary per paper figure/table (`fig10` … `table1`), built on a
//! shared harness ([`harness`]) and reporting toolkit ([`report`]).
//! The engine's end-to-end benchmark is the separate `perfbench`
//! package at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod report;

pub use harness::{
    fig10, fig11, fig12, fig13_14, pinned_graph, snapshot_dir, snapshot_report, table1, Family,
    Scale,
};
pub use report::{ms, time_avg, time_it, Report};

/// Parses the common CLI convention of the harness binaries:
/// `--full` switches from quick to paper-like parameters.
pub fn scale_from_args(args: &[String]) -> Scale {
    if args.iter().any(|a| a == "--full") {
        Scale::Full
    } else {
        Scale::Quick
    }
}
