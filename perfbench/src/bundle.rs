//! The trained detector every workload serves: trained once at a fixed
//! seed by `perfbench train`, stored as an `IBCD` bundle next to a small
//! manifest of what training produced, and loaded (and verified) on every
//! set-up.

use std::path::{Path, PathBuf};

use ibcm_core::{MisuseDetector, Pipeline, PipelineConfig};
use ibcm_logsim::{Generator, GeneratorConfig};

use crate::Error;

/// Seed of the training corpus and of the pipeline (the repository's
/// reproduction default).
pub const TRAIN_SEED: u64 = 42;

/// What the training command recorded about the bundle it wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Manifest {
    pub clusters: usize,
    pub vocab: usize,
    pub lock_in: usize,
}

impl Manifest {
    fn of(detector: &MisuseDetector) -> Manifest {
        Manifest {
            clusters: detector.n_clusters(),
            vocab: detector.vocab_size(),
            lock_in: detector.lock_in(),
        }
    }

    fn to_text(self) -> String {
        format!(
            "train_seed={TRAIN_SEED}\nclusters={}\nvocab={}\nlock_in={}\n",
            self.clusters, self.vocab, self.lock_in
        )
    }

    fn parse(text: &str) -> Result<Manifest, Error> {
        let field = |key: &str| -> Result<usize, Error> {
            text.lines()
                .find_map(|l| l.strip_prefix(key)?.strip_prefix('='))
                .and_then(|v| v.trim().parse().ok())
                .ok_or_else(|| format!("bundle manifest lacks {key}").into())
        };
        Ok(Manifest {
            clusters: field("clusters")?,
            vocab: field("vocab")?,
            lock_in: field("lock_in")?,
        })
    }
}

pub fn bundle_path(out: &Path) -> PathBuf {
    out.join("detector.ibcd")
}

fn manifest_path(out: &Path) -> PathBuf {
    out.join("detector.manifest")
}

/// Trains the default-scale detector at [`TRAIN_SEED`] and writes the
/// bundle and its manifest (each through a temporary file and a rename,
/// so a killed run never leaves a half-written bundle behind).
pub fn train(out: &Path) -> Result<Manifest, Error> {
    std::fs::create_dir_all(out)?;
    let dataset = Generator::new(GeneratorConfig::default_scale(TRAIN_SEED)).generate();
    let trained = Pipeline::new(PipelineConfig::default_profile(TRAIN_SEED)).train(&dataset)?;
    let detector = trained.into_detector();
    let manifest = Manifest::of(&detector);
    let write = |path: PathBuf, bytes: &[u8]| -> Result<(), Error> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, &path)?;
        Ok(())
    };
    write(bundle_path(out), &detector.to_bytes())?;
    write(manifest_path(out), manifest.to_text().as_bytes())?;
    Ok(manifest)
}

/// Makes sure a bundle exists, training it in a child process when it
/// does not (so training's memory and threads never count against the
/// serving process).
pub fn ensure(out: &Path) -> Result<(), Error> {
    if bundle_path(out).exists() && manifest_path(out).exists() {
        return Ok(());
    }
    eprintln!(
        "[perfbench] no bundle in {}: training it (one-off)",
        out.display()
    );
    let status = std::process::Command::new(std::env::current_exe()?)
        .arg("train")
        .stdout(std::process::Stdio::null())
        .status()?;
    if !status.success() {
        return Err(format!("training the bundle failed: {status}").into());
    }
    Ok(())
}

/// Loads the bundle and refuses it unless it loads cleanly and matches
/// what training recorded. This is the timed part of set-up.
pub fn load(out: &Path) -> Result<MisuseDetector, Error> {
    let bytes = std::fs::read(bundle_path(out))?;
    let (detector, report) = MisuseDetector::from_bytes_lenient(&bytes)?;
    if !report.is_clean() {
        return Err(format!(
            "bundle loaded degraded (clusters {:?} fell back)",
            report.degraded_clusters
        )
        .into());
    }
    let recorded = Manifest::parse(&std::fs::read_to_string(manifest_path(out))?)?;
    let loaded = Manifest::of(&detector);
    if loaded != recorded {
        return Err(format!("bundle {loaded:?} differs from its manifest {recorded:?}").into());
    }
    Ok(detector)
}
