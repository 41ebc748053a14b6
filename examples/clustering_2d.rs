//! Using the unsupervised partitioner as a clustering method (§5.5 / Table 5): compare it
//! against DBSCAN, K-means and spectral clustering on the classic 2-D toy datasets and
//! print an ASCII rendering of the learned clusters.
//!
//! Run with: `cargo run --release --example clustering_2d`

use neural_partitioner::core::{train_partitioner, ModelKind, UspConfig};
use usp_cluster::{adjusted_rand_index, dbscan, spectral_clustering, DbscanConfig, SpectralConfig};
use usp_data::{synthetic, Dataset, KnnMatrix};
use usp_index::Partitioner;
use usp_linalg::Distance;
use usp_quant::{KMeans, KMeansConfig};

fn usp_cluster_labels(ds: &Dataset, k: usize) -> Vec<isize> {
    let knn = KnnMatrix::build(ds.points(), 10, Distance::SquaredEuclidean);
    let cfg = UspConfig {
        bins: k,
        knn_k: 10,
        eta: 2.0,
        epochs: 60,
        batch_size: 128,
        learning_rate: 5e-3,
        model: ModelKind::Mlp {
            hidden: vec![32],
            dropout: 0.0,
        },
        soft_targets: true,
        seed: 3,
    };
    let trained = train_partitioner(ds.points(), &knn, &cfg, None);
    trained
        .assign_batch(ds.points())
        .iter()
        .map(|&l| l as isize)
        .collect()
}

/// Renders a coarse ASCII scatter plot of a 2-D dataset coloured by cluster label.
fn ascii_plot(ds: &Dataset, labels: &[isize]) -> String {
    const W: usize = 64;
    const H: usize = 22;
    let xs: Vec<f32> = (0..ds.len()).map(|i| ds.point(i)[0]).collect();
    let ys: Vec<f32> = (0..ds.len()).map(|i| ds.point(i)[1]).collect();
    let (xmin, xmax) = (
        xs.iter().cloned().fold(f32::MAX, f32::min),
        xs.iter().cloned().fold(f32::MIN, f32::max),
    );
    let (ymin, ymax) = (
        ys.iter().cloned().fold(f32::MAX, f32::min),
        ys.iter().cloned().fold(f32::MIN, f32::max),
    );
    let mut grid = vec![vec![' '; W]; H];
    let glyphs = ['o', '+', 'x', '#', '*', '@'];
    for i in 0..ds.len() {
        let cx = (((xs[i] - xmin) / (xmax - xmin + 1e-9)) * (W as f32 - 1.0)) as usize;
        let cy = (((ys[i] - ymin) / (ymax - ymin + 1e-9)) * (H as f32 - 1.0)) as usize;
        let glyph = if labels[i] < 0 {
            '.'
        } else {
            glyphs[labels[i] as usize % glyphs.len()]
        };
        grid[H - 1 - cy][cx] = glyph;
    }
    grid.into_iter()
        .map(|row| row.into_iter().collect::<String>())
        .collect::<Vec<_>>()
        .join("\n")
}

fn main() {
    let datasets: Vec<(&str, Dataset, usize, DbscanConfig)> = vec![
        (
            "moons",
            synthetic::moons(400, 0.05, 7),
            2,
            DbscanConfig::new(0.2, 4),
        ),
        (
            "circles",
            synthetic::circles(400, 0.04, 0.45, 8),
            2,
            DbscanConfig::new(0.2, 4),
        ),
        (
            "4 blobs (make_classification-like)",
            synthetic::blobs(400, 2, 4, 1.0, 9),
            4,
            DbscanConfig::new(0.8, 4),
        ),
    ];

    for (name, ds, k, db_cfg) in datasets {
        let truth = ds.labels().unwrap().to_vec();
        println!("==================== {name} ====================");

        let ours = usp_cluster_labels(&ds, k);
        println!(
            "Our approach (ARI {:.2}):",
            adjusted_rand_index(&ours, &truth)
        );
        println!("{}\n", ascii_plot(&ds, &ours));

        let db = dbscan(ds.points(), &db_cfg);
        let km: Vec<isize> = KMeans::fit(ds.points(), &KMeansConfig::new(k))
            .assign_all(ds.points())
            .iter()
            .map(|&l| l as isize)
            .collect();
        let sp: Vec<isize> = spectral_clustering(ds.points(), &SpectralConfig::new(k))
            .iter()
            .map(|&l| l as isize)
            .collect();
        println!(
            "ARI — ours {:.2} | DBSCAN {:.2} | K-means {:.2} | spectral {:.2}\n",
            adjusted_rand_index(&ours, &truth),
            adjusted_rand_index(&db, &truth),
            adjusted_rand_index(&km, &truth),
            adjusted_rand_index(&sp, &truth),
        );
    }
}
