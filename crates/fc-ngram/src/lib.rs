//! # fc-ngram — Kneser–Ney smoothed n-gram models over small alphabets
//!
//! The paper's Action-Based (AB) recommender "builds an n-th order Markov
//! chain from users' past actions" and fills in missing counts with
//! "Kneser-Ney smoothing, a well-studied smoothing method in natural
//! language processing" (§4.3.2, \[7\] Chen & Goodman 1999), using the
//! BerkeleyLM Java library. This crate is that substrate, implemented
//! from scratch:
//!
//! * [`TransitionCounts`] — Algorithm 2 verbatim: walk every trace,
//!   extract its move sequence, and count how often each length-`n`
//!   context is followed by each move;
//! * [`KneserNey`] — an interpolated Kneser–Ney model with per-order
//!   absolute discounts estimated from the data
//!   (`D = n1 / (n1 + 2·n2)`), continuation counts for lower orders, and
//!   a uniform base distribution;
//! * tokens are plain `u16` ids so the crate stays independent of the
//!   move enum (ForeCache's vocabulary is the nine interface moves).
//!
//! # Packed tables
//!
//! Like BerkeleyLM, the tables pack an n-gram into a 64-bit key probed
//! in an open-addressed array. A context of `n` tokens is the `u64`
//! `Σ c_i · vocab^(n−i)` (newest token in the units place), so a longer
//! context's key is its suffix's key plus one multiply-add, and one
//! representation — per order, one index from key to row and one flat
//! arena of rows (`counts`) — serves every order whose contexts fit
//! the key: up to Markov-20 over nine moves; `TransitionCounts::new`
//! rejects the rest.
//!
//! A trained [`KneserNey`] keeps no counts. Per stored context it holds
//! that context's whole next-token distribution, `vocab` cells folded
//! once when the model is built: the discounted terms
//! `max(count − D, 0) / total` plus the backoff weight `D · N1+ / total`
//! times the folded row of the context's longest stored proper suffix
//! (uniform when there is none). A query copies the row of its
//! context's longest stored suffix. The recursion evaluated per query
//! skips an order whose context was never seen, so it folds exactly
//! those suffixes, with the same expressions, operands and order of
//! operations (no fused multiply-add either way): every probability is
//! bit-identical to it. `tests/golden_ngram.rs` pins values captured
//! from the count-table model, `tests/properties.rs` keeps its
//! per-query recursion over raw counts as an oracle, and `model`'s unit
//! tests keep the per-order recursion over smoothed rows as another.
//!
//! Packed, a token outside the vocabulary would alias another
//! context's key, so tokens are checked where they enter
//! (`TransitionCounts::update_frequencies`, the context of every
//! [`KneserNey`] query) and rejected with a panic.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod counts;
mod model;

pub use counts::TransitionCounts;
pub use model::KneserNey;
