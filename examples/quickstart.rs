//! Quickstart: train an unsupervised space partition on a synthetic clustered dataset and
//! answer approximate nearest-neighbour queries with it.
//!
//! Run with: `cargo run --release --example quickstart`

use neural_partitioner::core::{train_partitioner, UspConfig};
use usp_data::{exact_knn, synthetic, KnnMatrix};
use usp_index::PartitionIndex;
use usp_linalg::Distance;

fn main() {
    // 1. A clustered dataset standing in for an ANN benchmark, with held-out queries.
    let split = synthetic::sift_like(5_200, 32, 42).split_queries(200);
    let data = split.base.points();
    println!(
        "dataset: {} base points, {} queries, {} dims",
        split.n_base(),
        split.n_queries(),
        split.dim()
    );

    // 2. Offline phase (Algorithm 1): the k'-NN matrix is the only preprocessing, then the
    //    model learns the partition with the unsupervised loss.
    let knn = KnnMatrix::build(data, 10, Distance::SquaredEuclidean);
    let config = UspConfig {
        epochs: 40,
        ..UspConfig::paper_default(16)
    };
    let trained = train_partitioner(data, &knn, &config, None);
    println!(
        "trained {} parameters in {:.1}s; final loss {:.3}",
        trained.report().parameters,
        trained.report().seconds,
        trained.report().epoch_loss.last().unwrap()
    );

    // 3. Build the lookup-table index and inspect the partition balance.
    let index = PartitionIndex::build(trained, data, Distance::SquaredEuclidean);
    let balance = index.balance();
    println!(
        "partition: {} bins, sizes {}..{} (imbalance {:.2})",
        balance.bins, balance.min, balance.max, balance.imbalance
    );

    // 4. Online phase (Algorithm 2): probe the most probable bins and re-rank candidates.
    let truth = exact_knn(data, &split.queries, 10, Distance::SquaredEuclidean);
    for probes in [1usize, 2, 4] {
        let mut recall = 0.0;
        let mut candidates = 0usize;
        for qi in 0..split.queries.rows() {
            let res = index.search(split.queries.row(qi), 10, probes);
            candidates += res.candidates_scanned;
            recall += usp_data::ground_truth::knn_accuracy(&res.ids, &truth[qi]);
        }
        let n = split.queries.rows() as f64;
        println!(
            "probes={probes}: 10-NN accuracy {:.3} scanning {:.0} candidates/query ({:.1}% of the dataset)",
            recall / n,
            candidates as f64 / n,
            100.0 * candidates as f64 / n / data.rows() as f64
        );
    }
}
