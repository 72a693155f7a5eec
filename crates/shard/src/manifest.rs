//! The fleet manifest: one small JSON file naming the live epoch.
//!
//! Everything mutable about fleet topology funnels through
//! `manifest.json` at the fleet root: the shard count and the *epoch*
//! whose directory holds the data. A rebalance never edits the live
//! epoch — it stages a complete next epoch and then publishes it with a
//! single atomic manifest rename, so a crash at any point leaves either
//! the old fleet or the new one, never a hybrid.

use std::path::{Path, PathBuf};

use aiio_store::{Result as StoreResult, StoreError};
use serde::{Deserialize, Serialize};

use crate::hash::MAX_SHARDS;

/// Manifest file name at the fleet root. Its presence is what makes a
/// directory a fleet ([`crate::Layout::of`]).
pub(crate) const MANIFEST_NAME: &str = "manifest.json";

/// Temporary file the manifest is published through.
pub const MANIFEST_TMP_NAME: &str = "manifest.tmp";

/// On-disk manifest format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;

/// The fleet topology record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Manifest {
    /// Manifest format version (see [`FORMAT_VERSION`]).
    pub format_version: u32,
    /// Monotonic epoch counter; the live data lives in `epoch-{epoch:06}/`.
    pub epoch: u64,
    /// Number of shards in the live epoch.
    pub shards: usize,
}

impl Manifest {
    /// A fresh epoch-0 manifest for a fleet of `shards`.
    pub fn new(shards: usize) -> Manifest {
        Manifest {
            format_version: FORMAT_VERSION,
            epoch: 0,
            shards: shards.clamp(1, MAX_SHARDS),
        }
    }
}

/// Directory of `epoch` under `root`.
pub fn epoch_dir(root: &Path, epoch: u64) -> PathBuf {
    root.join(format!("epoch-{epoch:06}"))
}

/// Directory of shard `s`'s primary store inside an epoch dir.
pub fn shard_dir(epoch: &Path, shard: usize) -> PathBuf {
    epoch.join(format!("shard-{shard:03}"))
}

/// Directory of shard `s`'s replica inside an epoch dir.
pub fn replica_dir(epoch: &Path, shard: usize) -> PathBuf {
    epoch.join(format!("replica-{shard:03}"))
}

/// Read and validate `root/manifest.json`. `Ok(None)` when absent (no
/// fleet initialised here yet).
pub fn load(root: &Path) -> StoreResult<Option<Manifest>> {
    let path = root.join(MANIFEST_NAME);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StoreError::Io(e)),
    };
    let m: Manifest = serde_json::from_str(&text).map_err(|e| StoreError::Format {
        path: path.clone(),
        detail: format!("unreadable manifest: {e}"),
    })?;
    if m.format_version != FORMAT_VERSION {
        return Err(StoreError::Format {
            path,
            detail: format!(
                "manifest format v{} unsupported (this build reads v{FORMAT_VERSION})",
                m.format_version
            ),
        });
    }
    if m.shards == 0 || m.shards > MAX_SHARDS {
        return Err(StoreError::Format {
            path,
            detail: format!("shard count {} out of range 1..={MAX_SHARDS}", m.shards),
        });
    }
    Ok(Some(m))
}

/// Atomically and durably publish `m` as `root/manifest.json` through
/// [`aiio_store::durable_replace`].
pub fn publish(root: &Path, m: &Manifest) -> StoreResult<()> {
    let tmp = root.join(MANIFEST_TMP_NAME);
    let text = serde_json::to_string(m).map_err(|e| StoreError::Format {
        path: tmp.clone(),
        detail: format!("unencodable manifest: {e}"),
    })?;
    aiio_store::durable_replace(&tmp, &root.join(MANIFEST_NAME), text.as_bytes())?;
    Ok(())
}

/// Remove epoch directories older than `live_epoch`, plus any staging
/// epoch left by a rebalance that lost the race to publish. Best-effort:
/// removal errors are ignored (a later open retries).
pub fn sweep_stale_epochs(root: &Path, live_epoch: u64) {
    let entries = match std::fs::read_dir(root) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(num) = name.strip_prefix("epoch-") else {
            continue;
        };
        if let Ok(epoch) = num.parse::<u64>() {
            if epoch != live_epoch {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("aiio_shard_manifest_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn publish_then_load_roundtrips() {
        let root = tmpdir("roundtrip");
        assert!(load(&root).unwrap().is_none());
        let m = Manifest {
            format_version: FORMAT_VERSION,
            epoch: 3,
            shards: 4,
        };
        publish(&root, &m).unwrap();
        assert_eq!(load(&root).unwrap(), Some(m));
        assert!(!root.join(MANIFEST_TMP_NAME).exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn load_rejects_bad_versions_and_widths() {
        let root = tmpdir("reject");
        std::fs::write(
            root.join(MANIFEST_NAME),
            r#"{"format_version":99,"epoch":0,"shards":2}"#,
        )
        .unwrap();
        assert!(load(&root).is_err());
        std::fs::write(
            root.join(MANIFEST_NAME),
            r#"{"format_version":1,"epoch":0,"shards":0}"#,
        )
        .unwrap();
        assert!(load(&root).is_err());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn sweeping_keeps_only_the_live_epoch() {
        let root = tmpdir("sweep");
        for e in [0u64, 1, 2] {
            std::fs::create_dir_all(epoch_dir(&root, e)).unwrap();
        }
        std::fs::write(root.join("unrelated.txt"), b"x").unwrap();
        sweep_stale_epochs(&root, 1);
        assert!(!epoch_dir(&root, 0).exists());
        assert!(epoch_dir(&root, 1).exists());
        assert!(!epoch_dir(&root, 2).exists());
        assert!(root.join("unrelated.txt").exists());
        let _ = std::fs::remove_dir_all(&root);
    }
}
