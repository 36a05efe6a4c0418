//! # acic — Automatic Cloud I/O Configurator (SC '13 reproduction)
//!
//! The paper's primary contribution: given an HPC application (profiled or
//! described by its I/O characteristics), a cloud platform, and an
//! optimization goal (execution time or monetary cost), recommend an
//! optimized I/O-system configuration out of the candidate space — without
//! per-application benchmarking, by reusing training data collected once
//! with a synthetic benchmark.
//!
//! ## Pipeline (paper Figure 2)
//!
//! 1. [`space`] — the 15-dimensional exploration space of Table 1: six
//!    cloud I/O-system parameters ([`space::SystemConfig`]) concatenated
//!    with nine application I/O characteristics ([`space::AppPoint`]),
//!    including the validity rules (NFS has one server and no stripe size;
//!    request size ≤ data size; ...).
//! 2. [`reducer`] — the dimension reducer: a foldover Plackett–Burman
//!    screen over IOR runs ranks the 15 parameters by impact (Table 1's
//!    "Rank" column), so training explores influential dimensions first.
//! 3. [`training`] — the training database: IOR runs over PB-guided samples
//!    of the space, each recorded as *improvement relative to the baseline
//!    configuration* ("single dedicated NFS server, mounting two EBS disks
//!    with a software RAID-0"), with the collection cost accounted
//!    (Figure 8's training-cost axis).
//! 4. [`predictor`] — CART models (one per objective) trained on the
//!    database; a query joins the application's characteristics with every
//!    candidate system configuration and returns the top-k list.
//! 5. PB-guided space walking ⟨S, s0, δ⟩ (paper §4.3) lives in the
//!    `acic-search` crate alongside the adaptive campaign planners: the
//!    low-training-budget alternative that greedily fixes one dimension at
//!    a time in PB-rank order, plus the random-walk strawman of Figure 9.
//! 6. [`profile`] — adapter from the `acic-apps` profiler output to a
//!    query point.
//! 7. [`sweep`] — the exhaustive ground-truth evaluator (used by the
//!    figures to place ACIC's pick inside the full candidate spectrum).
//!
//! The [`acic::Acic`] facade ties the pipeline together; see
//! `examples/quickstart.rs` at the workspace root.  Campaigns persist
//! their observations in the durable, deduplicating [`store`] (append-only
//! WAL compacted into content-addressed segments), from which `acic
//! publish` cuts [`store::PublishedSnapshot`]s for the serving layer.

pub mod acic;
pub mod candidates;
pub mod commit;
pub mod error;
pub mod features;
pub mod journal;
pub mod objective;
pub mod obs;
pub mod predictor;
pub mod profile;
pub mod reducer;
pub mod resilience;
pub mod space;
pub mod store;
pub mod sweep;
pub mod training;
pub mod verify;

pub use crate::acic::{Acic, Recommendation};
pub use candidates::CandidateMatrix;
pub use commit::{CommitConfig, CommitStats};
pub use error::AcicError;
pub use objective::Objective;
pub use obs::Metrics;
pub use predictor::Predictor;
pub use resilience::{Collection, CollectionReport, PointProvenance, RetryPolicy, SkippedPoint};
pub use space::{AppPoint, CacheKey, ParamId, SystemConfig};
pub use store::{PublishedSnapshot, SampleLookup, Store, StoreSample};
pub use training::{point_key, CollectOptions, Collector, Trainer, TrainingDb, TrainingPoint};
pub use verify::{verify_top_k, Verification, VerifiedCandidate};
