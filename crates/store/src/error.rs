//! Store error type: I/O failures vs. detected corruption vs. format
//! mismatches, kept separate because callers react differently (retry /
//! quarantine / refuse to open).

use std::fmt;
use std::path::PathBuf;

/// Result alias for store operations.
pub type Result<T> = std::result::Result<T, StoreError>;

/// Anything that can go wrong talking to a store.
#[derive(Debug)]
pub enum StoreError {
    /// An operating-system I/O failure (permissions, disk full, ...).
    Io(std::io::Error),
    /// A checksum or framing violation inside a store file: the bytes are
    /// readable but provably not what was written.
    Corrupt {
        /// File the corruption was detected in.
        path: PathBuf,
        /// Byte offset of the bad frame.
        offset: u64,
        /// What failed to validate.
        detail: String,
    },
    /// A structurally valid file this build cannot interpret (wrong magic,
    /// unsupported format version, column-count mismatch).
    Format {
        /// Offending file.
        path: PathBuf,
        /// Why it is unreadable.
        detail: String,
    },
    /// A row refused before any byte was written: it fails
    /// [`JobLog::validate`](aiio_darshan::JobLog::validate). The batch it
    /// came in is rejected whole.
    Invalid(aiio_darshan::InvalidJobLog),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt {
                path,
                offset,
                detail,
            } => write!(
                f,
                "corrupt store file {} at byte {offset}: {detail}",
                path.display()
            ),
            StoreError::Format { path, detail } => {
                write!(f, "unreadable store file {}: {detail}", path.display())
            }
            StoreError::Invalid(e) => write!(f, "invalid job log: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl StoreError {
    /// Convert into an `io::Error` (for trait boundaries that speak
    /// `io::Result`, like `darshan::StoreBackend`).
    pub fn into_io(self) -> std::io::Error {
        match self {
            StoreError::Io(e) => e,
            other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_file_and_offset() {
        let e = StoreError::Corrupt {
            path: PathBuf::from("/tmp/seg-00000001.seg"),
            offset: 128,
            detail: "column 3 checksum mismatch".into(),
        };
        let text = e.to_string();
        assert!(text.contains("seg-00000001.seg"));
        assert!(text.contains("byte 128"));
    }

    #[test]
    fn io_conversion_preserves_kind() {
        let e: StoreError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert_eq!(e.into_io().kind(), std::io::ErrorKind::NotFound);
        let c = StoreError::Format {
            path: PathBuf::from("x"),
            detail: "bad magic".into(),
        };
        assert_eq!(c.into_io().kind(), std::io::ErrorKind::InvalidData);
    }
}
