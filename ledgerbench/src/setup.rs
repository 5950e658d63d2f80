//! Input generation from the workload seed, with each setup stage timed on
//! its own so that work moved into setup shows in `setup_s` and its split.

use std::path::{Path, PathBuf};
use std::time::Instant;

use labelcount_core::{Engine, RunConfig};
use labelcount_graph::components::largest_component;
use labelcount_graph::gen::barabasi_albert;
use labelcount_graph::labels::{assign_binary_labels, with_labels};
use labelcount_graph::{GroundTruth, LabeledGraph, NodeId, PagedCsrWriter, TargetLabel};
use labelcount_osn::{OsnApi, OsnBackend};
use labelcount_walk::mixing::default_burn_in;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::measure::median;
use crate::report::Report;

/// Barabási–Albert attachment count of every generated graph (the paper's
/// synthetic setting).
pub const BA_M: usize = 6;

/// Share of nodes carrying label 1 (the rest carry label 2).
pub const LABEL1_SHARE: f64 = 0.5;

/// Setup passes a run makes up front, before anything is timed.
pub const SETUP_REPEATS: usize = 5;

/// Further setup passes a run makes in each gap between its timed
/// sections, so that the `setup_s` median samples the whole run rather
/// than its first half second: on a shared host the speed of this kind of
/// work drifts by half over a few seconds.
pub const SETUP_REPEATS_PER_GAP: usize = 4;

/// The target edge label: edges joining a label-1 and a label-2 node.
pub fn target() -> TargetLabel {
    TargetLabel::new(1.into(), 2.into())
}

/// The paper's run configuration for an `n`-node graph: the default
/// mixing-time burn-in, no thinning.
pub fn run_config(n: usize) -> RunConfig {
    RunConfig {
        burn_in: default_burn_in(n),
        thinning_frac: 0.0,
    }
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Wall seconds of each setup stage of one setup pass (`0` for stages a
/// workload does not pay).
#[derive(Clone, Copy, Debug, Default)]
pub struct Stages {
    /// Graph generation, labelling and largest-component extraction.
    pub generate_s: f64,
    /// Exact `GroundTruth` of the target label.
    pub ground_truth_s: f64,
    /// Writing the paged-CSR copies.
    pub paged_write_s: f64,
    /// Building the service and registering its graphs.
    pub register_s: f64,
}

impl Stages {
    /// The whole pass.
    pub fn total(&self) -> f64 {
        self.generate_s + self.ground_truth_s + self.paged_write_s + self.register_s
    }
}

/// A generated graph with the exact count of target edges.
pub struct Generated {
    /// The graph: largest component of a labelled BA graph.
    pub graph: LabeledGraph,
    /// Exact number of target edges `F`.
    pub truth: f64,
}

/// Generates the `n`-node labelled BA graph of `seed` (largest component)
/// and its ground truth, timing both stages into `stages`.
pub fn generate(seed: u64, n: usize, stages: &mut Stages) -> Generated {
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    let g = barabasi_albert(n, BA_M, &mut rng);
    let mut labels = vec![Vec::new(); g.num_nodes()];
    assign_binary_labels(&mut labels, LABEL1_SHARE, &mut rng);
    let graph = largest_component(&with_labels(&g, &labels))
        .expect("a BA graph is non-empty")
        .graph;
    stages.generate_s += secs(start);

    let start = Instant::now();
    let truth = GroundTruth::compute(&graph, target()).f as f64;
    stages.ground_truth_s += secs(start);
    Generated { graph, truth }
}

/// The setup passes of one run, each timed stage by stage.
#[derive(Default)]
pub struct SetupLog {
    passes: Vec<Stages>,
}

impl SetupLog {
    /// Runs `pass` `times` times and returns the last result. Each earlier
    /// result is dropped before the next pass builds its own.
    ///
    /// # Panics
    /// Panics if `times` is zero.
    pub fn repeat<T>(&mut self, times: usize, mut pass: impl FnMut(&mut Stages) -> T) -> T {
        let mut kept = None;
        for _ in 0..times {
            drop(kept.take());
            let mut stages = Stages::default();
            kept = Some(pass(&mut stages));
            self.passes.push(stages);
        }
        kept.expect("at least one setup pass")
    }

    /// Reports `setup_s` (the median whole pass) and each stage's median.
    pub fn report(&self, report: &mut Report) {
        let all = &self.passes;
        let total: Vec<f64> = all.iter().map(Stages::total).collect();
        report.metric("setup_s", median(&total), "s");
        report.note(format!("setup passes: {}", all.len()));
        let stage = |f: fn(&Stages) -> f64| median(&all.iter().map(f).collect::<Vec<_>>());
        report.metric("graph.setup.generate_s", stage(|s| s.generate_s), "s");
        report.metric(
            "graph.setup.ground_truth_s",
            stage(|s| s.ground_truth_s),
            "s",
        );
        report.metric("graph.setup.paged_write_s", stage(|s| s.paged_write_s), "s");
        report.metric("serve.setup.register_s", stage(|s| s.register_s), "s");
    }
}

/// Writes the paged-CSR copy of `g` to `path`, timing it into `stages`.
pub fn write_paged(g: &LabeledGraph, path: &Path, stages: &mut Stages) -> std::io::Result<()> {
    let start = Instant::now();
    PagedCsrWriter::new().write(g, path)?;
    stages.paged_write_s += secs(start);
    Ok(())
}

/// Warms an engine's shared L2 with every node's friend list and profile,
/// then resets its accounting so timed queries start from zero.
pub fn warm<B: OsnBackend + Sync>(engine: &Engine<'_, B>) {
    let session = engine.session();
    for u in 0..session.num_nodes() as u32 {
        std::hint::black_box(session.neighbors(NodeId(u)).len());
        std::hint::black_box(session.labels(NodeId(u)).len());
    }
    drop(session);
    engine.reset_stats();
}

/// Scratch files of one run, inside the benchmark's own directory and
/// removed when the run ends.
pub struct ScratchDir {
    dir: PathBuf,
}

impl ScratchDir {
    /// Creates `ledgerbench/.run-<pid>` under the current directory (the
    /// repository root the benchmark is run from).
    pub fn create() -> std::io::Result<ScratchDir> {
        let root = Path::new("ledgerbench");
        if !root.is_dir() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                "run the benchmark from the repository root",
            ));
        }
        let dir = root.join(format!(".run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir { dir })
    }

    /// A file path inside the scratch directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
