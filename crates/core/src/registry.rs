//! Persisted-model registry: the bridge between training runs and the
//! serving layer.
//!
//! A registry is a directory of model artifacts
//! ([`msaw_gbdt::ModelArtifact`]), each keyed by *what it predicts and
//! what it was trained on*: outcome, approach variant, and a
//! fingerprint of the exact training cohort. The fingerprint means a
//! retrain on different data gets a different key — the registry can
//! hold both without either clobbering the other, and a serving
//! process can assert it loaded the model trained on the cohort it
//! expects.
//!
//! Durability contract:
//!
//! * **Atomic publish.** [`ModelRegistry::store`] writes to a `.tmp`
//!   sibling and `rename`s it into place, so a crash mid-write never
//!   leaves a half-written artifact under a valid name — readers see
//!   the old model or the new one, nothing in between.
//! * **Verified load.** [`ModelRegistry::load`] re-validates the full
//!   artifact (checksum, counts, tree structure, cut order) through
//!   the gbdt decoder, which then compiles its forest; a corrupt file
//!   is a typed [`RegistryError::Artifact`], never a panic or a
//!   silently wrong model.
//!
//! File naming is deterministic — `{outcome}_{variant}_{hash:016x}.msgb`
//! — so keys and paths are interconvertible and a directory listing is
//! a catalogue.

use crate::error::PipelineError;
use crate::experiment::Approach;
use msaw_gbdt::{fnv1a_64, ModelArtifact, PredictError};
use msaw_preprocess::{OutcomeKind, SampleSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// Identity of a persisted model: what it predicts, which feature
/// representation it uses, and the fingerprint of its training cohort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelKey {
    /// The outcome the model predicts.
    pub outcome: OutcomeKind,
    /// Feature representation (data-driven vs knowledge-driven).
    pub variant: Approach,
    /// [`cohort_fingerprint`] of the training sample set.
    pub cohort_hash: u64,
}

impl ModelKey {
    /// Key for a model trained on `set` with the `variant` features.
    pub fn for_samples(set: &SampleSet, variant: Approach) -> Self {
        ModelKey { outcome: set.outcome, variant, cohort_hash: cohort_fingerprint(set) }
    }

    /// Deterministic artifact file name for this key.
    pub fn file_name(&self) -> String {
        format!("{}_{:016x}.msgb", self.group_name(), self.cohort_hash)
    }

    /// The `{outcome}_{variant}` prefix shared by every cohort
    /// generation of this model — the unit a reload watcher tracks:
    /// retraining on a refreshed cohort publishes a new file in the
    /// same group, and [`ModelRegistry::latest_generation`] resolves
    /// the group to its newest member.
    pub fn group_name(&self) -> String {
        format!(
            "{}_{}",
            self.outcome.name().to_ascii_lowercase(),
            self.variant.label().to_ascii_lowercase()
        )
    }
}

impl fmt::Display for ModelKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{} @ {:016x}", self.outcome.name(), self.variant.label(), self.cohort_hash)
    }
}

/// FNV-1a fingerprint of a sample set's contents: outcome, feature
/// names, labels, and every feature value (bit pattern, so `NaN`
/// placement counts). Two sets hash equal iff a model trained on one
/// is interchangeable with a model trained on the other.
pub fn cohort_fingerprint(set: &SampleSet) -> u64 {
    let mut bytes = Vec::with_capacity(
        16 + set.feature_names.iter().map(|n| n.len() + 1).sum::<usize>()
            + (set.labels.len() + set.features.as_slice().len()) * 8,
    );
    bytes.extend_from_slice(set.outcome.name().as_bytes());
    bytes.push(0);
    for name in &set.feature_names {
        bytes.extend_from_slice(name.as_bytes());
        bytes.push(0);
    }
    for &label in &set.labels {
        bytes.extend_from_slice(&label.to_bits().to_le_bytes());
    }
    for &value in set.features.as_slice() {
        bytes.extend_from_slice(&value.to_bits().to_le_bytes());
    }
    fnv1a_64(&bytes)
}

/// Failures while storing or loading registry artifacts.
///
/// I/O failures are carried as rendered strings so the error stays
/// `Clone + PartialEq` like the rest of the pipeline taxonomy.
#[derive(Debug, Clone, PartialEq)]
pub enum RegistryError {
    /// Filesystem failure while writing, renaming, or reading.
    Io { path: PathBuf, message: String },
    /// No artifact stored under the key.
    NotFound { key_file: String },
    /// The stored artifact failed checksum or structural validation.
    Artifact { key_file: String, source: PredictError },
    /// `prune` was asked to keep zero artifacts per group, which would
    /// empty the registry — almost certainly a caller bug, so it is
    /// rejected rather than obeyed.
    InvalidKeep,
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Io { path, message } => {
                write!(f, "registry I/O failure at {}: {message}", path.display())
            }
            RegistryError::NotFound { key_file } => {
                write!(f, "no model stored under {key_file}")
            }
            RegistryError::Artifact { key_file, source } => {
                write!(f, "stored model {key_file} is invalid: {source}")
            }
            RegistryError::InvalidKeep => {
                write!(f, "prune requires keep >= 1 (keep = 0 would empty the registry)")
            }
        }
    }
}

impl std::error::Error for RegistryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegistryError::Artifact { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<RegistryError> for PipelineError {
    fn from(e: RegistryError) -> Self {
        PipelineError::Registry(e)
    }
}

/// A directory of keyed, checksummed model artifacts.
#[derive(Debug, Clone)]
pub struct ModelRegistry {
    root: PathBuf,
}

impl ModelRegistry {
    /// Open (creating if needed) a registry rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, RegistryError> {
        let root = root.into();
        std::fs::create_dir_all(&root)
            .map_err(|e| RegistryError::Io { path: root.clone(), message: e.to_string() })?;
        Ok(ModelRegistry { root })
    }

    /// Directory this registry stores artifacts in.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Full path an artifact for `key` lives at.
    pub fn path_for(&self, key: &ModelKey) -> PathBuf {
        self.root.join(key.file_name())
    }

    /// Persist `artifact` under `key`, atomically: the encoded bytes go
    /// to a `.tmp` sibling first and are renamed into place, so readers
    /// never observe a partial artifact.
    pub fn store(
        &self,
        key: &ModelKey,
        artifact: &ModelArtifact,
    ) -> Result<PathBuf, RegistryError> {
        let path = self.path_for(key);
        let tmp = path.with_extension("msgb.tmp");
        let bytes = artifact.encode();
        std::fs::write(&tmp, &bytes)
            .map_err(|e| RegistryError::Io { path: tmp.clone(), message: e.to_string() })?;
        std::fs::rename(&tmp, &path).map_err(|e| {
            // Leave no stale tmp file behind a failed publish.
            let _ = std::fs::remove_file(&tmp);
            RegistryError::Io { path: path.clone(), message: e.to_string() }
        })?;
        Ok(path)
    }

    /// Load and fully re-validate the artifact stored under `key`.
    pub fn load(&self, key: &ModelKey) -> Result<ModelArtifact, RegistryError> {
        self.load_named(&key.file_name())
    }

    /// Load and fully re-validate the artifact stored under an exact
    /// file name (as returned by [`ModelKey::file_name`] or
    /// [`Self::latest_generation`]).
    pub fn load_named(&self, file_name: &str) -> Result<ModelArtifact, RegistryError> {
        let path = self.root.join(file_name);
        let key_file = file_name.to_string();
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(RegistryError::NotFound { key_file })
            }
            Err(e) => {
                return Err(RegistryError::Io { path, message: e.to_string() });
            }
        };
        msaw_gbdt::artifact::decode(&bytes)
            .map_err(|source| RegistryError::Artifact { key_file, source })
    }

    /// The newest published artifact in a `{outcome}_{variant}` group
    /// (see [`ModelKey::group_name`]), identified by its publish stamp.
    ///
    /// Ranking matches [`Self::prune`]: newest modification time first,
    /// file-name order breaking ties, so the two ends of the retention
    /// policy agree on which generation is "current". `Ok(None)` means
    /// the group has no published artifact at all.
    pub fn latest_generation(
        &self,
        group: &str,
    ) -> Result<Option<ArtifactGeneration>, RegistryError> {
        let mut newest: Option<ArtifactGeneration> = None;
        for name in self.list()? {
            let Some((file_group, _)) = split_key_name(&name) else { continue };
            if file_group != group {
                continue;
            }
            let path = self.root.join(&name);
            let err = |e: std::io::Error| RegistryError::Io {
                path: path.clone(),
                message: e.to_string(),
            };
            let meta = match std::fs::metadata(&path) {
                // Pruned between listing and stat: not a generation.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                other => other.map_err(err)?,
            };
            let gen = ArtifactGeneration {
                file_name: name,
                mtime: meta.modified().map_err(err)?,
                len: meta.len(),
            };
            if newest
                .as_ref()
                .is_none_or(|best| (gen.mtime, &gen.file_name) > (best.mtime, &best.file_name))
            {
                newest = Some(gen);
            }
        }
        Ok(newest)
    }

    /// Resolve a group to its newest generation and load it, retrying
    /// when [`Self::prune`] deletes the chosen file between the listing
    /// and the read.
    ///
    /// This is the race a live reload watcher runs into: it lists the
    /// registry, picks the newest artifact, and a concurrent retention
    /// pass removes that very file before the read lands. A plain load
    /// would surface [`RegistryError::NotFound`] even though the group
    /// still holds a perfectly servable (possibly older, possibly even
    /// newer) generation — so on `NotFound` the resolution restarts
    /// from a fresh listing and settles on whatever survives.
    pub fn load_latest(
        &self,
        group: &str,
    ) -> Result<Option<(ArtifactGeneration, ModelArtifact)>, RegistryError> {
        self.load_latest_hooked(group, |_| {})
    }

    /// [`Self::load_latest`] with a test seam between choosing a
    /// generation and reading it — the only way to pin the
    /// prune-during-reload interleaving deterministically.
    fn load_latest_hooked(
        &self,
        group: &str,
        mut between: impl FnMut(&ArtifactGeneration),
    ) -> Result<Option<(ArtifactGeneration, ModelArtifact)>, RegistryError> {
        const ATTEMPTS: usize = 8;
        for _ in 0..ATTEMPTS {
            let Some(gen) = self.latest_generation(group)? else { return Ok(None) };
            between(&gen);
            match self.load_named(&gen.file_name) {
                Ok(artifact) => return Ok(Some((gen, artifact))),
                // The chosen generation vanished under us (a concurrent
                // prune won the race): re-list and fall back to the
                // surviving generations.
                Err(RegistryError::NotFound { .. }) => continue,
                Err(e) => return Err(e),
            }
        }
        // Every attempt lost the race — the registry is being churned
        // faster than it can be read. Surface it as the missing group.
        Err(RegistryError::NotFound { key_file: format!("{group}_*.msgb") })
    }

    /// Whether an artifact is stored under `key`.
    pub fn contains(&self, key: &ModelKey) -> bool {
        self.path_for(key).is_file()
    }

    /// File names of every artifact currently published (sorted, so
    /// listings are deterministic).
    pub fn list(&self) -> Result<Vec<String>, RegistryError> {
        let mut names = Vec::new();
        let entries = std::fs::read_dir(&self.root)
            .map_err(|e| RegistryError::Io { path: self.root.clone(), message: e.to_string() })?;
        for entry in entries {
            let entry = entry.map_err(|e| RegistryError::Io {
                path: self.root.clone(),
                message: e.to_string(),
            })?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".msgb") {
                names.push(name);
            }
        }
        names.sort();
        Ok(names)
    }

    /// Remove superseded artifacts, keeping the newest `keep` per
    /// `(outcome, variant)` group.
    ///
    /// Retraining on a refreshed cohort publishes under a new
    /// fingerprint and leaves the old artifact in place (that is the
    /// point of content-addressed keys), so a long-lived registry
    /// accretes one file per historical cohort. `prune` is the
    /// retention policy: within each group, artifacts are ranked newest
    /// first by modification time (file-name order breaks ties, so the
    /// ranking is total even on coarse-mtime filesystems) and everything
    /// past the first `keep` is deleted.
    ///
    /// `keep == 0` is a typed [`RegistryError::InvalidKeep`]. Files
    /// that do not follow the `{outcome}_{variant}_{hash:016x}.msgb`
    /// naming are not registry artifacts and are never touched.
    pub fn prune(&self, keep: usize) -> Result<PruneReport, RegistryError> {
        if keep == 0 {
            return Err(RegistryError::InvalidKeep);
        }
        let mut groups: std::collections::BTreeMap<String, Vec<(std::time::SystemTime, String)>> =
            std::collections::BTreeMap::new();
        for name in self.list()? {
            let Some((group, _)) = split_key_name(&name) else { continue };
            let path = self.root.join(&name);
            let err = |e: std::io::Error| RegistryError::Io {
                path: path.clone(),
                message: e.to_string(),
            };
            let mtime = std::fs::metadata(&path).map_err(err)?.modified().map_err(err)?;
            groups.entry(group.to_string()).or_default().push((mtime, name));
        }
        let mut report = PruneReport::default();
        for members in groups.into_values() {
            let mut members = members;
            members.sort_by(|a, b| b.cmp(a));
            for (rank, (_, name)) in members.into_iter().enumerate() {
                if rank < keep {
                    report.kept.push(name);
                } else {
                    let path = self.root.join(&name);
                    std::fs::remove_file(&path)
                        .map_err(|e| RegistryError::Io { path, message: e.to_string() })?;
                    report.removed.push(name);
                }
            }
        }
        report.kept.sort();
        report.removed.sort();
        Ok(report)
    }
}

/// What [`ModelRegistry::prune`] did: artifact file names deleted and
/// surviving, each sorted for deterministic reporting.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PruneReport {
    /// Artifacts deleted as superseded.
    pub removed: Vec<String>,
    /// Artifacts retained (the newest `keep` of each group).
    pub kept: Vec<String>,
}

/// The publish stamp of one artifact file: which file is current in
/// its group and whether it has changed since a watcher last looked.
///
/// Two stamps compare equal iff nothing about the published file
/// changed — republishing even byte-identical content bumps the
/// modification time (the atomic rename installs a fresh inode), so a
/// watcher polling [`ModelRegistry::latest_generation`] sees every
/// publish, including a no-op one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactGeneration {
    /// Artifact file name within the registry root.
    pub file_name: String,
    /// Modification time at the moment of observation.
    pub mtime: std::time::SystemTime,
    /// File size in bytes at the moment of observation.
    pub len: u64,
}

/// Split an artifact file name into its `{outcome}_{variant}` group and
/// cohort hash; `None` when the name does not follow
/// [`ModelKey::file_name`]'s `{outcome}_{variant}_{hash:016x}.msgb`
/// shape (such files are not prune candidates).
fn split_key_name(name: &str) -> Option<(&str, u64)> {
    let stem = name.strip_suffix(".msgb")?;
    let (group, hash) = stem.rsplit_once('_')?;
    if hash.len() != 16 || !group.contains('_') {
        return None;
    }
    let hash = u64::from_str_radix(hash, 16).ok()?;
    Some((group, hash))
}

#[cfg(test)]
mod tests {
    use super::*;
    use msaw_cohort::{Clinic, PatientId};
    use msaw_gbdt::{Booster, Params};
    use msaw_preprocess::SampleMeta;
    use msaw_tabular::Matrix;

    fn tiny_set(seed: f64) -> SampleSet {
        let rows: Vec<Vec<f64>> =
            (0..40).map(|i| vec![(i as f64) + seed, (i % 3) as f64]).collect();
        let labels: Vec<f64> = rows.iter().map(|r| r[0] * 0.5).collect();
        let meta = (0..rows.len())
            .map(|i| SampleMeta {
                patient: PatientId(i as u32),
                clinic: Clinic::Modena,
                month: 1,
                window: 1,
            })
            .collect();
        SampleSet {
            features: Matrix::from_rows(&rows),
            feature_names: vec!["a".into(), "b".into()],
            labels,
            meta,
            outcome: OutcomeKind::Qol,
        }
    }

    fn tiny_artifact(set: &SampleSet) -> ModelArtifact {
        let params = Params { n_estimators: 4, ..Params::regression() };
        let model = Booster::train(&params, &set.features, &set.labels).unwrap();
        ModelArtifact::from_booster(model, None)
    }

    fn temp_registry(tag: &str) -> ModelRegistry {
        let dir = std::env::temp_dir().join(format!("msaw_registry_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ModelRegistry::open(dir).unwrap()
    }

    #[test]
    fn fingerprint_is_deterministic_and_content_sensitive() {
        let a = tiny_set(0.0);
        assert_eq!(cohort_fingerprint(&a), cohort_fingerprint(&tiny_set(0.0)));
        assert_ne!(cohort_fingerprint(&a), cohort_fingerprint(&tiny_set(1.0)));
        let mut renamed = tiny_set(0.0);
        renamed.feature_names[0] = "z".into();
        assert_ne!(cohort_fingerprint(&a), cohort_fingerprint(&renamed));
    }

    #[test]
    fn store_then_load_round_trips() {
        let set = tiny_set(0.0);
        let registry = temp_registry("round_trip");
        let key = ModelKey::for_samples(&set, Approach::DataDriven);
        let artifact = tiny_artifact(&set);
        let path = registry.store(&key, &artifact).unwrap();
        assert!(path.ends_with(key.file_name()));
        assert!(registry.contains(&key));
        let loaded = registry.load(&key).unwrap();
        assert_eq!(loaded.booster, artifact.booster);
        assert_eq!(registry.list().unwrap(), vec![key.file_name()]);
        let _ = std::fs::remove_dir_all(registry.root());
    }

    #[test]
    fn missing_key_is_not_found() {
        let set = tiny_set(0.0);
        let registry = temp_registry("missing");
        let key = ModelKey::for_samples(&set, Approach::KnowledgeDriven);
        assert!(matches!(registry.load(&key), Err(RegistryError::NotFound { .. })));
        let _ = std::fs::remove_dir_all(registry.root());
    }

    #[test]
    fn corrupt_artifact_is_a_typed_error() {
        let set = tiny_set(0.0);
        let registry = temp_registry("corrupt");
        let key = ModelKey::for_samples(&set, Approach::DataDriven);
        registry.store(&key, &tiny_artifact(&set)).unwrap();
        // Flip one byte in the middle of the stored file.
        let path = registry.path_for(&key);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        match registry.load(&key) {
            Err(RegistryError::Artifact { source: PredictError::Decode(_), .. }) => {}
            other => panic!("expected typed artifact error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(registry.root());
    }

    /// Pin a file's mtime so the recency ranking is under test control
    /// (stores within one test can land in the same clock tick).
    fn set_mtime(path: &Path, secs_after_epoch: u64) {
        let f = std::fs::File::options().write(true).open(path).unwrap();
        f.set_modified(std::time::UNIX_EPOCH + std::time::Duration::from_secs(secs_after_epoch))
            .unwrap();
    }

    #[test]
    fn prune_keeps_latest_n_per_group() {
        let registry = temp_registry("prune_policy");
        // Three generations of QoL/DD (distinct cohorts), two of
        // QoL/KD, one Falls/DD — plus a stray non-artifact file.
        let mut qol_dd: Vec<String> = Vec::new();
        for (gen, seed) in [0.0, 1.0, 2.0].into_iter().enumerate() {
            let set = tiny_set(seed);
            let key = ModelKey::for_samples(&set, Approach::DataDriven);
            let path = registry.store(&key, &tiny_artifact(&set)).unwrap();
            set_mtime(&path, 1_000 + gen as u64);
            qol_dd.push(key.file_name());
        }
        let mut qol_kd: Vec<String> = Vec::new();
        for (gen, seed) in [0.0, 1.0].into_iter().enumerate() {
            let set = tiny_set(seed);
            let key = ModelKey::for_samples(&set, Approach::KnowledgeDriven);
            let path = registry.store(&key, &tiny_artifact(&set)).unwrap();
            set_mtime(&path, 2_000 + gen as u64);
            qol_kd.push(key.file_name());
        }
        let mut falls_set = tiny_set(0.0);
        falls_set.outcome = OutcomeKind::Falls;
        let falls_key = ModelKey::for_samples(&falls_set, Approach::DataDriven);
        registry.store(&falls_key, &tiny_artifact(&falls_set)).unwrap();
        let stray = registry.root().join("notes.txt");
        std::fs::write(&stray, b"not an artifact").unwrap();

        let report = registry.prune(2).unwrap();
        // QoL/DD: oldest of three goes; QoL/KD and Falls/DD fit.
        assert_eq!(report.removed, vec![qol_dd[0].clone()]);
        let mut expect_kept = vec![
            qol_dd[1].clone(),
            qol_dd[2].clone(),
            qol_kd[0].clone(),
            qol_kd[1].clone(),
            falls_key.file_name(),
        ];
        expect_kept.sort();
        assert_eq!(report.kept, expect_kept);
        assert!(!registry.root().join(&qol_dd[0]).exists());
        assert!(stray.exists(), "non-artifact files are never pruned");

        // keep = 1 now trims each group to its newest member; a second
        // identical call is a no-op.
        let report = registry.prune(1).unwrap();
        assert_eq!(report.removed, {
            let mut v = vec![qol_dd[1].clone(), qol_kd[0].clone()];
            v.sort();
            v
        });
        assert_eq!(registry.prune(1).unwrap().removed, Vec::<String>::new());
        let left = registry.list().unwrap();
        let mut expect = vec![qol_dd[2].clone(), qol_kd[1].clone(), falls_key.file_name()];
        expect.sort();
        assert_eq!(left, expect);
        let _ = std::fs::remove_dir_all(registry.root());
    }

    #[test]
    fn prune_ties_break_by_name_and_keep_zero_is_rejected() {
        let registry = temp_registry("prune_ties");
        let mut names: Vec<String> = Vec::new();
        for seed in [0.0, 1.0, 2.0] {
            let set = tiny_set(seed);
            let key = ModelKey::for_samples(&set, Approach::DataDriven);
            let path = registry.store(&key, &tiny_artifact(&set)).unwrap();
            set_mtime(&path, 5_000); // identical mtimes: pure name tiebreak
            names.push(key.file_name());
        }
        names.sort();
        let report = registry.prune(1).unwrap();
        // Greatest name wins on an mtime tie; the other two go.
        assert_eq!(report.kept, vec![names[2].clone()]);
        assert_eq!(report.removed, vec![names[0].clone(), names[1].clone()]);

        assert!(matches!(registry.prune(0), Err(RegistryError::InvalidKeep)));
        assert_eq!(registry.list().unwrap().len(), 1, "rejected prune must not delete");
        let _ = std::fs::remove_dir_all(registry.root());
    }

    #[test]
    fn latest_generation_tracks_the_newest_group_member() {
        let registry = temp_registry("latest_gen");
        let group = {
            let set = tiny_set(0.0);
            ModelKey::for_samples(&set, Approach::DataDriven).group_name()
        };
        assert_eq!(registry.latest_generation(&group).unwrap(), None);

        let mut names = Vec::new();
        for (gen, seed) in [0.0, 1.0].into_iter().enumerate() {
            let set = tiny_set(seed);
            let key = ModelKey::for_samples(&set, Approach::DataDriven);
            assert_eq!(key.group_name(), group);
            let path = registry.store(&key, &tiny_artifact(&set)).unwrap();
            set_mtime(&path, 1_000 + gen as u64);
            names.push(key.file_name());
        }
        let latest = registry.latest_generation(&group).unwrap().unwrap();
        assert_eq!(latest.file_name, names[1]);

        // A republish of the *older* cohort with a newer mtime becomes
        // current: recency is publish order, not key order.
        let set = tiny_set(0.0);
        let key = ModelKey::for_samples(&set, Approach::DataDriven);
        let path = registry.store(&key, &tiny_artifact(&set)).unwrap();
        set_mtime(&path, 9_000);
        let latest = registry.latest_generation(&group).unwrap().unwrap();
        assert_eq!(latest.file_name, names[0]);

        // Another group's artifacts are invisible to this group.
        assert_eq!(registry.latest_generation("qol_kd").unwrap(), None);
        let _ = std::fs::remove_dir_all(registry.root());
    }

    #[test]
    fn republishing_identical_bytes_is_a_new_generation() {
        let registry = temp_registry("regen_stamp");
        let set = tiny_set(0.0);
        let key = ModelKey::for_samples(&set, Approach::DataDriven);
        let artifact = tiny_artifact(&set);
        let path = registry.store(&key, &artifact).unwrap();
        set_mtime(&path, 1_000);
        let first = registry.latest_generation(&key.group_name()).unwrap().unwrap();
        let path = registry.store(&key, &artifact).unwrap();
        set_mtime(&path, 2_000);
        let second = registry.latest_generation(&key.group_name()).unwrap().unwrap();
        assert_eq!(first.file_name, second.file_name);
        assert_eq!(first.len, second.len);
        assert_ne!(first, second, "a republish must read as a fresh generation");
        let _ = std::fs::remove_dir_all(registry.root());
    }

    #[test]
    fn load_latest_survives_a_prune_deleting_the_chosen_generation() {
        // The watcher race: generation B is newest when the listing
        // happens, and a concurrent prune deletes it before the read.
        // load_latest must fall back to the surviving generation A
        // instead of surfacing NotFound.
        let registry = temp_registry("prune_race");
        let set_a = tiny_set(0.0);
        let key_a = ModelKey::for_samples(&set_a, Approach::DataDriven);
        let artifact_a = tiny_artifact(&set_a);
        let path = registry.store(&key_a, &artifact_a).unwrap();
        set_mtime(&path, 1_000);
        let set_b = tiny_set(1.0);
        let key_b = ModelKey::for_samples(&set_b, Approach::DataDriven);
        let path_b = registry.store(&key_b, &tiny_artifact(&set_b)).unwrap();
        set_mtime(&path_b, 2_000);

        let mut deleted = false;
        let (gen, loaded) = registry
            .load_latest_hooked(&key_a.group_name(), |gen| {
                // Fires between "pick newest" and "read it": the first
                // pick is B — delete it, exactly what a prune racing the
                // watcher does.
                if !deleted {
                    assert_eq!(gen.file_name, key_b.file_name());
                    std::fs::remove_file(registry.root().join(&gen.file_name)).unwrap();
                    deleted = true;
                }
            })
            .unwrap()
            .expect("generation A survives");
        assert!(deleted);
        assert_eq!(gen.file_name, key_a.file_name());
        assert_eq!(loaded.booster, artifact_a.booster);

        // Emptying the group entirely resolves to Ok(None), not an error.
        registry.prune(1).unwrap();
        std::fs::remove_file(registry.root().join(key_a.file_name())).unwrap();
        assert_eq!(registry.load_latest(&key_a.group_name()).unwrap().map(|(g, _)| g), None);
        let _ = std::fs::remove_dir_all(registry.root());
    }

    #[test]
    fn load_named_reports_missing_and_corrupt_files_typed() {
        let registry = temp_registry("load_named");
        assert!(matches!(
            registry.load_named("qol_dd_0000000000000000.msgb"),
            Err(RegistryError::NotFound { .. })
        ));
        let set = tiny_set(0.0);
        let key = ModelKey::for_samples(&set, Approach::DataDriven);
        registry.store(&key, &tiny_artifact(&set)).unwrap();
        let path = registry.path_for(&key);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(
            registry.load_named(&key.file_name()),
            Err(RegistryError::Artifact { .. })
        ));
        let _ = std::fs::remove_dir_all(registry.root());
    }

    #[test]
    fn store_leaves_no_tmp_files() {
        let set = tiny_set(0.0);
        let registry = temp_registry("tmp_files");
        let key = ModelKey::for_samples(&set, Approach::DataDriven);
        registry.store(&key, &tiny_artifact(&set)).unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(registry.root())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty());
        let _ = std::fs::remove_dir_all(registry.root());
    }
}
