//! Unsupervised Space Partitioning (USP) — the paper's contribution.
//!
//! An end-to-end *unsupervised* learning framework that couples dataset partitioning and
//! learning-to-route into a single training step (§4): a small neural network (or any
//! differentiable model) maps a point to a probability distribution over `m` bins and is
//! trained with a custom two-part loss that needs no ground-truth labels —
//!
//! * **quality cost** (§4.2.2, Eq. 10): cross-entropy between the model's distribution for
//!   a point and the empirical bin distribution of its k′ nearest neighbours (read off the
//!   k′-NN matrix, the only preprocessing);
//! * **computational cost** (Eq. 12–13): the negated sum of the top-⌈B/m⌉ probabilities of
//!   every bin column over the batch, which pushes the partition towards `n/m`-sized bins.
//!
//! Modules:
//!
//! * [`config`] / [`model`] — configuration and the partitioning model (MLP or logistic);
//! * [`loss`] — the differentiable unsupervised loss and its gradient;
//! * [`trainer`] — Algorithm 1: mini-batch training (one [`train_step`] per batch), dataset
//!   partitioning, lookup table;
//! * [`ensemble`] — Algorithms 3–4: boosting-style input weights and confidence-based
//!   query routing across complementary partitions;
//! * [`hierarchical`] — §4.4.2: recursive partitioning with probability chaining.
//!
//! The USP + ScaNN pipeline of §5.4.3 (Figure 7) is the trained partitioner's index under
//! compressed scoring: `usp_quant::ScannConfig::build_index`.

pub mod config;
pub mod ensemble;
pub mod hierarchical;
pub mod loss;
pub mod model;
pub mod trainer;

pub use config::{ModelKind, UspConfig};
pub use ensemble::UspEnsemble;
pub use hierarchical::HierarchicalPartitioner;
pub use model::PartitionModel;
pub use trainer::{train_partitioner, train_step, TrainedPartitioner, TrainingReport};
