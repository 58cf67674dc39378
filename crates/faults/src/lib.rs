//! Coupling-aware fault models and memory tests for STT-MRAM arrays.
//!
//! The paper's motivation (§I) is that inter-cell magnetic coupling
//! "may lead to write errors \[8\]", and its authors' companion work
//! (\[6\], \[14\], \[16\]) builds fault models and tests for STT-MRAM.
//! This crate closes that loop on top of the coupling engine:
//!
//! * [`CellArray`] — an N×M array of MTJ states with neighbourhood
//!   extraction (lives in `mramsim-array`, re-exported here),
//! * [`ArraySimulator`] — write/read operations whose success depends on
//!   the *actual data pattern around the victim* (write fails when the
//!   pattern-dependent switching time exceeds the pulse, Fig. 5 logic),
//! * [`classify_write_faults`] — per-transition classification of which
//!   neighbourhood patterns break a write at a given design point,
//! * [`mc`] — the Monte-Carlo write evaluator: one s-LLGS WER ensemble
//!   per write site under its stray field, next to the analytic WER,
//!   and the dense per-cell campaign aggregating it into fault maps and
//!   per-class reports,
//! * [`sharded`] — the sparse megabit campaign: the same evaluator over
//!   one site per window equivalence class of a row band,
//! * [`march`] — a March test engine (MATS+, March C−) that detects the
//!   resulting pattern-sensitive faults.
//!
//! # Examples
//!
//! ```
//! use mramsim_faults::{ArraySimulator, WriteConditions};
//! use mramsim_mtj::presets;
//! use mramsim_units::{Nanometer, Nanosecond, Volt};
//!
//! // A design-rule-compliant array writes reliably:
//! let device = presets::imec_like(Nanometer::new(35.0))?;
//! let sim = ArraySimulator::new(
//!     device,
//!     Nanometer::new(70.0), // 2 x eCD
//!     8,
//!     8,
//!     WriteConditions {
//!         voltage: Volt::new(1.0),
//!         pulse: Nanosecond::new(20.0),
//!         ..WriteConditions::default()
//!     },
//! )?;
//! assert!(sim.write_would_succeed_everywhere());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod classify;
mod error;
pub mod march;
pub mod mc;
pub mod sharded;
mod simulator;

pub use classify::{classify_write_faults, WriteFault, WriteFaultReport};
pub use error::FaultsError;
pub use mc::{
    array_wer_campaign, ArrayWerConfig, ArrayWerReport, CellWer, ClassWer, WerTotals, WriteWer,
    MAX_CAMPAIGN_TRAJECTORIES,
};
pub use mramsim_array::CellArray;
pub use sharded::{
    class_seed, shard_wer_campaign, ShardPlan, ShardWerReport, SparseClassWer, SparseWerConfig,
};
pub use simulator::{ArraySimulator, OpResult, WriteConditions};
