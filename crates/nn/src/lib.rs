//! A minimal feed-forward neural-network library.
//!
//! The paper's models are deliberately small — a one-hidden-layer MLP (128 units, batch
//! norm, ReLU, dropout 0.1, softmax output) or a plain logistic regression — trained with
//! Adam from Glorot-initialised weights (§5.2). This crate implements exactly that much of
//! a deep-learning framework, from scratch, with explicit forward/backward passes:
//!
//! * [`layers`] — `Linear`, `ReLU`, `BatchNorm1d`, `Dropout` and the [`layers::Layer`] enum;
//! * [`mlp`] — the [`mlp::Sequential`] container plus builders for the paper's two
//!   architectures ([`mlp::MlpConfig`] and [`mlp::logistic_regression`]);
//! * [`optim`] — Adam;
//! * [`loss`] — softmax cross-entropy against *soft* targets (the quality cost of the
//!   paper's loss needs a distribution target, Eq. 10), with per-example weights for the
//!   ensembling scheme (Eq. 14);
//! * [`init`] — Glorot/Xavier initialisation.
//!
//! The custom unsupervised loss itself lives in `usp-core`; this crate only provides the
//! differentiable building blocks.

pub mod init;
pub mod layers;
pub mod loss;
pub mod mlp;
pub mod optim;

pub use layers::Layer;
pub use mlp::{logistic_regression, MlpConfig, Sequential};
pub use optim::Adam;
