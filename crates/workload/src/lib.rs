//! # commalloc-workload
//!
//! Workload models for the `commalloc` allocation-strategy simulator:
//! parallel-job traces and per-job communication patterns, reproducing
//! Section 3 of *Communication Patterns and Allocation Strategies* (Leung,
//! Bunde & Mache, 2004).
//!
//! The paper drives its simulations with the trace of all jobs submitted to
//! the 352-node NQS partition of the Intel Paragon at the San Diego
//! Supercomputer Center during the last three months of 1996. That trace is
//! summarised in the paper by its statistics (6087 jobs; mean interarrival
//! 1301 s with CV 3.7; mean size 14.5 with CV 1.5, biased towards powers of
//! two; mean runtime 3.04 h with CV 1.13). This crate provides:
//!
//! * [`job::Job`] and [`trace::Trace`] — the trace representation, including
//!   the paper's *load factor* transformation (contracting interarrival
//!   times) and the removal of jobs too large for the 16 × 16 machine.
//! * [`synthetic::ParagonTraceModel`] — a seeded generator reproducing the
//!   published summary statistics, used when the original SDSC trace file is
//!   not available (README § "Substitutions this reproduction makes").
//! * [`swf`] — a parser for Standard Workload Format files so the real trace
//!   can be dropped in.
//! * [`patterns::CommPattern`] — the communication patterns of Section 3.2
//!   (all-to-all, n-body ring + chordal, random) plus the ring, all-pairs
//!   ping-pong and CPlant test-suite patterns used for Figure 1, and the
//!   stencil / butterfly / broadcast-tree extension patterns.
//! * [`distributions`] — the exponential / hyperexponential / lognormal
//!   samplers the synthetic generator is built from.
//! * [`analysis`] — histograms, the power-of-two size spectrum and the
//!   offered-load profile of a trace, used to validate the synthetic
//!   generator against the published statistics (and against a real SWF
//!   trace when one is available).
//!
//! # Example
//!
//! ```
//! use commalloc_workload::synthetic::ParagonTraceModel;
//! use commalloc_workload::patterns::CommPattern;
//!
//! let trace = ParagonTraceModel::default().generate(42);
//! assert_eq!(trace.len(), 6087);
//!
//! // The n-body pattern on 15 processors (paper Figure 5): seven ring
//! // subphases plus one chordal subphase per iteration.
//! assert_eq!(CommPattern::NBody.messages_per_iteration(15), 15 * 7 + 15);
//! ```

pub mod analysis;
pub mod distributions;
pub mod job;
pub mod patterns;
pub mod swf;
pub mod synthetic;
pub mod trace;

pub use analysis::TraceAnalysis;
pub use job::Job;
pub use patterns::{CommPattern, TrafficEntry};
pub use trace::{Trace, TraceSummary};
