//! The one durable file replace behind every publish in the store and
//! the fleet: write a staging file, fsync it, rename it over the target,
//! then fsync the parent directory so the rename itself survives a
//! power cut.

use std::io::Write;
use std::path::Path;

/// Atomically and durably replace `target` with `bytes`, staging them in
/// `staging` (same directory). Readers see the old file or the whole new
/// one, never a prefix. Callers pick the staging name so their open-time
/// sweeps can recognise and remove a staging file a crash left behind.
pub fn durable_replace(staging: &Path, target: &Path, bytes: &[u8]) -> std::io::Result<()> {
    {
        let mut f = std::fs::File::create(staging)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(staging, target)?;
    #[cfg(unix)]
    {
        let parent = match target.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        std::fs::File::open(parent)?.sync_all()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replaces_the_target_and_leaves_no_staging_file() {
        let dir = std::env::temp_dir().join(format!("aiio_store_durable_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("data.bin");
        let staging = dir.join("data.tmp");
        std::fs::write(&target, b"old contents").unwrap();

        durable_replace(&staging, &target, b"new").unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"new");
        assert!(!staging.exists());

        // A missing target is created the same way.
        let fresh = dir.join("fresh.bin");
        durable_replace(&staging, &fresh, b"").unwrap();
        assert_eq!(std::fs::read(&fresh).unwrap(), b"");
        assert!(!staging.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
