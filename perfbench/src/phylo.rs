//! `phylo`: simultaneous DPRml instances over loopback TCP.

use crate::report::Solve;
use crate::sub_seed;
use crate::tcp::{self, LayerNames};
use biodist_bioseq::Sequence;
use biodist_dprml::{build_problem, DprmlConfig, PhyloOutput};
use biodist_phylo::evolve::{random_yule_tree, simulate_alignment};
use biodist_phylo::model::ModelKind;
use biodist_phylo::patterns::PatternAlignment;
use biodist_phylo::search::stepwise_ml;
use biodist_phylo::tree::Tree;
use biodist_util::rng::{shuffle, Xoshiro256StarStar};
use std::sync::Arc;

/// Input sizes.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Simultaneous instances (the paper's Fig. 2 runs six).
    pub instances: usize,
    /// Taxa in the alignment.
    pub taxa: usize,
    /// Alignment columns.
    pub sites: usize,
}

impl Spec {
    /// The benchmark size.
    pub const FULL: Spec = Spec {
        instances: 6,
        taxa: 30,
        sites: 500,
    };
    /// A size for harness tests.
    pub const TINY: Spec = Spec {
        instances: 2,
        taxa: 7,
        sites: 60,
    };
}

/// Seeded inputs and the sequential reference per instance.
pub struct Prepared {
    alignments: Vec<Vec<Sequence>>,
    config: DprmlConfig,
    orders: Vec<Vec<usize>>,
    /// `stepwise_ml` tree and log-likelihood for each instance's order.
    pub expected: Vec<(Tree, f64)>,
}

/// The Fig. 2 search settings: HKY85, one candidate and refine round,
/// full refinement every fifth insertion, no NNI.
fn config() -> DprmlConfig {
    let mut config = DprmlConfig {
        model: ModelKind::Hky85 {
            kappa: 4.0,
            freqs: [0.25; 4],
        },
        ..Default::default()
    };
    config.search.candidate_rounds = 1;
    config.search.refine_rounds = 1;
    config.search.nni = false;
    config.search.refine_every = 5;
    config.cost_scale = 20.0;
    config
}

/// Generates each instance's alignment and insertion order for `seed`
/// and runs the sequential reference for every instance.
///
/// Each instance searches its own alignment, evolved down its own
/// random tree: one shared alignment made the total work swing by ±20%
/// from seed to seed, and six independent ones average that down.
/// Instance 0 inserts taxa in row order, the rest in seeded random
/// orders (fastDNAml's "jumble"), which also desynchronises their stage
/// barriers.
pub fn prepare(spec: Spec, seed: u64) -> Prepared {
    let config = config();
    let model = config.build_model();
    let alignments: Vec<Vec<Sequence>> = (0..spec.instances as u64)
        .map(|i| {
            let truth = random_yule_tree(spec.taxa, 0.1, sub_seed(seed, 2 * i));
            simulate_alignment(&truth, &model, spec.sites, None, sub_seed(seed, 2 * i + 1))
        })
        .collect();
    let orders: Vec<Vec<usize>> = (0..spec.instances)
        .map(|i| {
            let mut order: Vec<usize> = (0..spec.taxa).collect();
            if i > 0 {
                let mut rng = Xoshiro256StarStar::new(sub_seed(seed, 100 + i as u64));
                shuffle(&mut order, &mut rng);
            }
            order
        })
        .collect();
    let expected = alignments
        .iter()
        .zip(&orders)
        .map(|(seqs, order)| {
            let data = PatternAlignment::from_sequences(seqs);
            stepwise_ml(&data, &model, Some(order), &config.search)
        })
        .collect();
    Prepared {
        alignments,
        config,
        orders,
        expected,
    }
}

/// One solve: build every instance (site-pattern compression included),
/// run over TCP, check each tree and log-likelihood against its
/// reference.
pub fn solve(p: &Prepared, traced: bool) -> Solve {
    tcp::solve(
        || {
            p.alignments
                .iter()
                .zip(&p.orders)
                .enumerate()
                .map(|(i, (seqs, order))| {
                    build_problem(
                        Arc::new(PatternAlignment::from_sequences(seqs)),
                        &p.config,
                        Some(order.clone()),
                        &format!("dprml-{i}"),
                    )
                })
                .collect()
        },
        traced,
        &LayerNames {
            compute: "phylo.compute_s",
            dm: "dprml.dm_s",
        },
        None,
        |server, pids| {
            for (i, (&pid, (tree, lnl))) in pids.iter().zip(&p.expected).enumerate() {
                let out = server
                    .take_output(pid)
                    .ok_or_else(|| format!("instance {i} produced no output"))?
                    .into_inner::<PhyloOutput>();
                let rf = out.tree.rf_distance(tree);
                let dl = (out.ln_likelihood - lnl).abs();
                if rf != 0 || !dl.is_finite() || dl > 1e-9 {
                    return Err(format!(
                        "instance {i}: RF distance {rf}, |ΔlnL| {dl:e} against stepwise_ml"
                    ));
                }
            }
            Ok(())
        },
    )
}
