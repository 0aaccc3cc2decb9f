//! `search`: DSEARCH over loopback TCP with the striped kernel.

use crate::probe::WorkOf;
use crate::report::Solve;
use crate::sub_seed;
use crate::tcp::{self, LayerNames};
use biodist_align::KernelKind;
use biodist_bioseq::synth::{random_sequence, DbSpec, FamilySpec, SyntheticDb};
use biodist_bioseq::{Alphabet, Sequence};
use biodist_core::WireCodec;
use biodist_dsearch::{build_problem, search_sequential, DsearchConfig, SearchOutput};
use std::sync::Arc;

/// Input sizes.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Query sequences.
    pub queries: usize,
    /// Residues per query.
    pub query_len: usize,
    /// Background database sequences.
    pub db_seqs: usize,
    /// Mean background sequence length.
    pub mean_len: usize,
    /// Planted homologs of the first query.
    pub homologs: usize,
}

impl Spec {
    /// The benchmark size.
    pub const FULL: Spec = Spec {
        queries: 3,
        query_len: 300,
        db_seqs: 20_000,
        mean_len: 300,
        homologs: 5,
    };
    /// A size for harness tests.
    pub const TINY: Spec = Spec {
        queries: 2,
        query_len: 60,
        db_seqs: 120,
        mean_len: 60,
        homologs: 2,
    };
}

/// Seeded inputs and the sequential reference's digest.
pub struct Prepared {
    db: Vec<Sequence>,
    queries: Vec<Sequence>,
    config: DsearchConfig,
    /// Residues per database sequence, indexed like the database.
    db_lens: Arc<Vec<u64>>,
    /// The problem's codec, to list the chunks a unit covers.
    codec: Arc<dyn WireCodec>,
    /// `SearchOutput::digest` of `search_sequential` on these inputs.
    pub expected_digest: u64,
}

/// Generates the inputs for `seed` and runs the sequential reference.
pub fn prepare(spec: Spec, seed: u64) -> Prepared {
    let queries: Vec<Sequence> = (0..spec.queries)
        .map(|i| {
            random_sequence(
                Alphabet::Protein,
                &format!("query{i}"),
                spec.query_len,
                sub_seed(seed, i as u64),
            )
        })
        .collect();
    let family = FamilySpec {
        copies: spec.homologs,
        substitution_rate: 0.2,
        indel_rate: 0.02,
    };
    let db = SyntheticDb::generate_with_family(
        &DbSpec::protein_demo(spec.db_seqs, spec.mean_len),
        &queries[0],
        &family,
        sub_seed(seed, 100),
    )
    .sequences;
    let mut config = DsearchConfig::protein_default();
    config.kernel = KernelKind::Striped;
    // The striped kernel's cost model charges one op per 32 DP cells;
    // scaling by 32 makes a unit's ops its true cell count, so the
    // scheduler's prior (`tcp::sched`) sizes first units near 50 ms.
    config.cost_scale = 32.0;
    let expected_digest = SearchOutput {
        hits: search_sequential(&db, &queries, &config),
    }
    .digest();
    let db_lens = Arc::new(db.iter().map(|s| s.len() as u64).collect());
    let codec = build_problem(db.clone(), queries.clone(), &config)
        .codec
        .expect("DSEARCH registers a codec");
    Prepared {
        db,
        queries,
        config,
        db_lens,
        codec,
        expected_digest,
    }
}

/// One solve: build, run over TCP, check the hit digest.
pub fn solve(p: &Prepared, traced: bool) -> Solve {
    let (db, queries) = (p.db.clone(), p.queries.clone());
    let expected = p.expected_digest;
    // True DP cells of a unit: its database sequences (the chunk ids
    // its codec lists) times every query residue.
    let query_residues: u64 = p.queries.iter().map(|q| q.len() as u64).sum();
    let (codec, lens) = (p.codec.clone(), p.db_lens.clone());
    let work_of: WorkOf = Arc::new(move |unit| {
        codec
            .unit_chunks(&unit.payload)
            .iter()
            .map(|need| lens[need.chunk as usize] * query_residues)
            .sum()
    });
    tcp::solve(
        || vec![build_problem(db, queries, &p.config)],
        traced,
        &LayerNames {
            compute: "align.compute_s",
            dm: "dsearch.dm_s",
        },
        Some(work_of),
        |server, pids| {
            let out = server
                .take_output(pids[0])
                .ok_or("search produced no output")?
                .into_inner::<SearchOutput>();
            let got = out.digest();
            if got == expected {
                Ok(())
            } else {
                Err(format!(
                    "hit digest {got:016x} differs from the sequential reference {expected:016x}"
                ))
            }
        },
    )
}
