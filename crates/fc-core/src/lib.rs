//! # fc-core — the ForeCache prediction engine and middleware
//!
//! This crate is the paper's primary contribution (§3–§4): a middleware
//! layer in front of the array DBMS that prefetches data tiles ahead of
//! the user with a **two-level prediction engine**.
//!
//! * Top level: an SVM classifier over Table-1 features predicts the
//!   user's current **analysis phase** — Foraging, Navigation, or
//!   Sensemaking (`phase`, `features`).
//! * Bottom level: per-phase **recommendation models** run in parallel —
//!   the Action-Based Markov model ([`ab`]) and the Signature-Based
//!   visual-similarity model ([`sb`], Algorithm 3) — plus the Momentum
//!   and Hotspot baselines from Doshi et al. (`baselines`).
//! * The [`engine::PredictionEngine`] combines both levels through a
//!   cache [`alloc::AllocationStrategy`] (§4.4, updated in §5.4.3).
//! * The [`cache::CacheManager`] holds the last *n* requested tiles plus
//!   the per-recommender prefetch allocations; [`middleware::Middleware`]
//!   ties engine + cache + backend store together and accounts latency
//!   on the simulated clock (19.5 ms hit / 984 ms miss by default).
//! * The multi-user serving core extends §6.2 beyond the paper:
//!   [`multiuser`] holds the lock-striped [`multiuser::SharedTileCache`]
//!   (power-of-two shards, per-shard LRU clocks, globally repartitioned
//!   prefetch budgets) next to the retained single-mutex golden
//!   reference, and every session of a dataset ranks through the one
//!   χ² pair table its signature index build carries ([`paircache`]),
//!   bit-identical to per-session prediction. A [`multiuser::DatasetRegistry`]
//!   partitions one global tile budget across per-dataset cache
//!   namespaces, and each namespace's eviction-surviving popularity
//!   sketch feeds a [`multiuser::SharedHotspotModel`] — epoch-stamped
//!   communal hotspot snapshots blended into candidate ranking
//!   (`alloc::boost_toward_hotspots`, opt-in via
//!   [`engine::EngineConfig::hotspot`]).

#![warn(missing_docs)]

pub mod ab;
pub mod alloc;
mod baselines;
pub mod batch;
mod burst;
mod cache;
pub mod engine;
mod fault;
mod features;
mod history;
mod latency;
mod middleware;
pub mod multiuser;
pub mod paircache;
mod phase;
mod push;
mod recommender;
mod roi;
pub mod sb;
pub mod signature;
mod slots;
mod stages;

pub use ab::AbRecommender;
pub use alloc::{AllocationStrategy, HotspotBlend};
pub use baselines::{HotspotRecommender, MomentumRecommender};
pub use batch::{BatchConfig, PredictScheduler, SchedulerStats};
pub use burst::{BurstConfig, BurstTracker, TrafficPhase};
pub use cache::{CacheManager, CacheStats};
pub use engine::{EngineConfig, PredictOptions, PredictionEngine};
pub use fault::{FaultPlan, FaultRates, FaultWindow, FetchError, RetryPolicy};
pub use fc_simd::SimdLevel;
pub use features::{phase_features, FEATURE_NAMES, NUM_FEATURES};
pub use history::{Request, SessionHistory};
pub use latency::LatencyProfile;
pub use middleware::{Middleware, MiddlewareStats, Response, SharedSessionHandle};
pub use multiuser::{
    DatasetNamespace, DatasetRegistry, HotspotConfig, MultiUserCache, RegistryConfig, SessionId,
    SharedCacheStats, SharedHotspotModel, SharedTileCache, SingleMutexTileCache,
};
pub use paircache::PairCache;
pub use phase::{Phase, PhaseClassifier};
pub use push::{PushConfig, PushPlanner, PushPolicy, PushStats};
pub use recommender::{PredictionContext, Recommender};
pub use roi::RoiTracker;
pub use sb::{SbConfig, SbRecommender};
pub use signature::{SignatureKind, SIGNATURE_KINDS};
pub use stages::{ClockFn, Stage, StageClock};
