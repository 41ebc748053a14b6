//! The offline phase: generate the mixture, build the k'-NN matrix, train the USP router
//! once, build the index variants, and put one of them behind the TCP ingress.

use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use usp_core::{train_partitioner, UspConfig};
use usp_data::synthetic::MixtureSpec;
use usp_data::{exact_knn, KnnMatrix};
use usp_index::{FileStorage, PartitionIndex, Scoring, SearchResult, SyncPolicy, Wal};
use usp_linalg::{Distance, Matrix};
use usp_quant::{ProductQuantizer, ProductQuantizerConfig};
use usp_serve::{
    IngressConfig, IngressHandle, QueryEngine, QueryOptions, ShardedEngine, StatsSnapshot,
};

use crate::router::SharedRouter;
use crate::spec::{FixtureSpec, WorkloadSpec, WAL_SYNC_EVERY};

pub const DIST: Distance = Distance::SquaredEuclidean;
pub type Index = PartitionIndex<SharedRouter>;

/// Seconds spent in each offline stage of one set-up (the per-layer offline metrics).
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    pub gen_s: f64,
    pub knn_s: f64,
    pub train_s: f64,
    pub build_s: f64,
    pub pq_fit_s: f64,
    pub encode_s: f64,
    pub shard_build_s: f64,
}

/// Data and the trained router: everything the index variants share.
pub struct Fixture {
    pub spec: FixtureSpec,
    pub seed: u64,
    pub base: Matrix,
    pub queries: Matrix,
    /// Points the mixed workload inserts, in insertion order.
    pub insert_pool: Matrix,
    pub router: SharedRouter,
    pub stages: StageTimes,
}

fn timed<R>(slot: &mut f64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let out = f();
    *slot += t.elapsed().as_secs_f64();
    out
}

impl Fixture {
    /// Generates the data from `seed`, builds the k'-NN matrix and trains the router.
    pub fn prepare(spec: &FixtureSpec, seed: u64) -> Fixture {
        let mut stages = StageTimes::default();
        let held_out = spec.n_queries + spec.n_insert_pool;
        let split = timed(&mut stages.gen_s, || {
            MixtureSpec {
                n: spec.n_base + held_out,
                dim: spec.dim,
                n_clusters: spec.n_clusters,
                center_spread: spec.center_spread,
                cluster_std: spec.cluster_std,
                anisotropy: spec.anisotropy,
                seed,
            }
            .generate(spec.name)
            .split_queries(held_out)
        });
        let base = split.base.points().clone();
        let query_rows: Vec<usize> = (0..spec.n_queries).collect();
        let pool_rows: Vec<usize> = (spec.n_queries..held_out).collect();
        let queries = split.queries.select_rows(&query_rows);
        let insert_pool = split.queries.select_rows(&pool_rows);

        let knn = timed(&mut stages.knn_s, || {
            KnnMatrix::build(&base, spec.knn_k, DIST)
        });
        let config = UspConfig {
            knn_k: spec.knn_k,
            epochs: spec.epochs,
            eta: spec.eta,
            learning_rate: spec.learning_rate,
            seed,
            ..UspConfig::paper_default(spec.bins)
        };
        let trained = timed(&mut stages.train_s, || {
            train_partitioner(&base, &knn, &config, None)
        });
        Fixture {
            spec: *spec,
            seed,
            base,
            queries,
            insert_pool,
            router: SharedRouter::new(trained),
            stages,
        }
    }

    /// A fresh exact index over the base points, sharing the trained router.
    pub fn build_exact(&mut self) -> Index {
        let router = self.router.clone();
        let index = timed(&mut self.stages.build_s, || {
            PartitionIndex::build(router, &self.base, DIST)
        });
        let ratio = bin_max_over_mean(&index);
        assert!(
            ratio <= 2.0,
            "set-up: the trained partition is unbalanced (largest bin is {ratio:.2}x the \
             mean); the router collapsed, which makes every serving number meaningless"
        );
        index
    }

    /// Fits the product quantizer and switches `index` to PQ/ADC scoring.
    pub fn compress(&mut self, index: Index) -> Index {
        let spec = self.spec;
        let pq = timed(&mut self.stages.pq_fit_s, || {
            let mut config = ProductQuantizerConfig::standard(spec.pq_subspaces, spec.pq_centroids);
            config.seed = self.seed;
            ProductQuantizer::fit(&self.base, &config)
        });
        timed(&mut self.stages.encode_s, || {
            index.with_scoring(Scoring::compressed(Arc::new(pq), spec.rerank_budget))
        })
    }

    /// The index a workload serves: exact or compressed, WAL attached for `wal_path`.
    pub fn build_for(&mut self, workload: &WorkloadSpec, wal_path: Option<&Path>) -> Index {
        let mut index = self.build_exact();
        if workload.compressed {
            index = self.compress(index);
        }
        if let Some(path) = wal_path {
            index = index.with_wal(open_wal(path));
        }
        index
    }

    /// Wraps `index` in the workload's engine (timing the shard build).
    pub fn engine_for(&mut self, workload: &WorkloadSpec, index: Index) -> Engine {
        let index = Arc::new(index);
        if workload.sharded {
            let shards = self.spec.shards;
            timed(&mut self.stages.shard_build_s, || {
                Engine::Sharded(Arc::new(ShardedEngine::with_shards(index, shards)))
            })
        } else {
            Engine::Mono(Arc::new(QueryEngine::new(index)))
        }
    }

    pub fn options(&self, workload: &WorkloadSpec) -> QueryOptions {
        QueryOptions::new(self.spec.k, workload.probes)
    }

    /// Exact neighbours of every query among `points` (row ids of `points`).
    pub fn ground_truth(&self, points: &Matrix) -> Vec<Vec<usize>> {
        exact_knn(points, &self.queries, self.spec.k, DIST)
    }
}

/// Opens (creating, never truncating) the log at `path` with the mixed workload's policy.
pub fn open_wal(path: &Path) -> Wal {
    let storage = FileStorage::open(path)
        .unwrap_or_else(|e| panic!("set-up: cannot open the WAL at {}: {e}", path.display()));
    Wal::new(Box::new(storage), SyncPolicy::EveryN(WAL_SYNC_EVERY))
}

pub fn bin_max_over_mean(index: &Index) -> f64 {
    let sizes = index.bucket_sizes();
    let max = sizes.iter().copied().max().unwrap_or(0) as f64;
    let mean = sizes.iter().sum::<usize>() as f64 / sizes.len().max(1) as f64;
    max / mean.max(1.0)
}

/// The two engines the workloads serve, behind one set of calls.
#[derive(Clone)]
pub enum Engine {
    Mono(Arc<QueryEngine<SharedRouter>>),
    Sharded(Arc<ShardedEngine<SharedRouter>>),
}

impl Engine {
    pub fn index(&self) -> &Index {
        match self {
            Engine::Mono(e) => e.index(),
            Engine::Sharded(e) => e.index(),
        }
    }

    pub fn serve_batch(&self, queries: &Matrix, opts: &QueryOptions) -> Vec<SearchResult> {
        match self {
            Engine::Mono(e) => e.serve_batch(queries, opts),
            Engine::Sharded(e) => e.serve_batch(queries, opts),
        }
    }

    pub fn stats(&self) -> StatsSnapshot {
        match self {
            Engine::Mono(e) => e.stats(),
            Engine::Sharded(e) => e.stats(),
        }
    }

    pub fn reset_stats(&self) {
        match self {
            Engine::Mono(e) => e.reset_stats(),
            Engine::Sharded(e) => e.reset_stats(),
        }
    }

    /// Serves this engine in-process behind the TCP ingress on an ephemeral loopback
    /// port, with the ingress defaults (batches of 32, 1 ms window, 8-batch queue).
    pub fn serve(&self, opts: QueryOptions) -> Served {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let config = IngressConfig::new(opts);
        let handle = match self {
            Engine::Mono(e) => IngressHandle::spawn(Arc::clone(e), listener, config),
            Engine::Sharded(e) => IngressHandle::spawn(Arc::clone(e), listener, config),
        }
        .expect("spawn the ingress loop");
        Served {
            addr: handle.local_addr(),
            handle,
        }
    }
}

/// A running ingress. Dropping it stops and joins the event loop.
pub struct Served {
    pub addr: SocketAddr,
    pub handle: IngressHandle,
}

/// A per-process scratch file (the mixed workload's log), removed when dropped.
pub struct ScratchFile(pub PathBuf);

impl ScratchFile {
    pub fn new(dir: &Path, stem: &str) -> ScratchFile {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        let path = dir.join(format!("{stem}-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        ScratchFile(path)
    }
}

impl Drop for ScratchFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}
