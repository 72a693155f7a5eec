//! Primary-side reply builders for the `/repl/*` endpoints. The serve
//! layer owns the sockets and routing prefix; this module turns a
//! path-with-query (everything after `/repl/`) plus a snapshot of the
//! store's on-disk layout into a fully formed [`Reply`].
//!
//! Everything here reads files statelessly — no store handle, no locks —
//! so replies always reflect the bytes durably on disk, which is exactly
//! what a follower wants to copy. Shard bytes are read through
//! [`DirSource`], the same source local fleet replication pulls from, so
//! a follower on another host copies exactly what a local follower would.
//! The CRC walks inherited from [`aiio_store::wal::tail_frames`] and
//! [`aiio_shard::journal::tail_bytes`] mean a reply never contains a torn
//! or corrupt frame.

use std::io::ErrorKind;
use std::path::{Path, PathBuf};

use aiio_shard::journal;
use aiio_shard::replica::{DirSource, ShardSource};

use crate::{H_FRAMES, H_OFFSET, H_RESET, H_ROWS};

/// Where the primary's bytes live, snapshotted from the attached store.
#[derive(Debug, Clone)]
pub enum ReplSource {
    /// A plain single store: one WAL + segments directly under `dir`.
    Single {
        /// Store root directory.
        dir: PathBuf,
    },
    /// A sharded fleet: per-shard serving directories plus the ordinal
    /// journal inside the live epoch.
    Fleet {
        /// Live epoch number (followers mirror the epoch layout).
        epoch: u64,
        /// Serving directory of each shard, indexed by shard id.
        serving_dirs: Vec<PathBuf>,
        /// Path to the epoch's ordinal journal.
        journal: PathBuf,
    },
}

/// `GET /repl/manifest` body: enough for a follower to mirror the
/// layout before pulling any bytes.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ReplManifest {
    /// `"single"` or `"fleet"`.
    pub layout: String,
    /// Shard count (1 for single).
    pub shards: u64,
    /// Live epoch (0 for single).
    pub epoch: u64,
}

/// A fully formed HTTP reply, transport-agnostic: the serve layer adds
/// the status line, `Content-Length` and `Connection: close`.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers (`X-Repl-*`).
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Reply {
    fn json(status: u16, body: String) -> Reply {
        Reply {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    fn error(status: u16, detail: &str) -> Reply {
        Reply::json(status, format!("{{\"error\":{:?}}}", detail))
    }

    fn bytes(body: Vec<u8>, headers: Vec<(String, String)>) -> Reply {
        Reply {
            status: 200,
            content_type: "application/octet-stream",
            headers,
            body,
        }
    }
}

/// Parse `k=v&k=v` query pairs; absent keys read as `None`.
fn query_get<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query
        .split('&')
        .filter_map(|kv| kv.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

/// Build the reply for `target`, the request path with `/repl/`
/// stripped but the query string intact (e.g. `0/wal?from=128`).
/// Unknown paths, out-of-range shards and malformed queries are 4xx;
/// I/O failures are 500. Never panics.
pub fn repl_reply(src: &ReplSource, target: &str) -> Reply {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let mut parts = path.split('/');
    match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some("manifest"), None, ..) => manifest_reply(src),
        (Some("journal"), None, ..) => journal_reply(src, query),
        (Some(shard), Some(tail), seg_name, None) => {
            let Ok(s) = shard.parse::<usize>() else {
                return Reply::error(404, "unknown replication path");
            };
            let Some(dir) = shard_dir(src, s) else {
                return Reply::error(404, "shard out of range");
            };
            match (tail, seg_name) {
                ("wal", None) => wal_reply(dir, query),
                ("segments", None) => segments_reply(dir),
                ("segment", Some(name)) => segment_reply(dir, name),
                _ => Reply::error(404, "unknown replication path"),
            }
        }
        _ => Reply::error(404, "unknown replication path"),
    }
}

fn shard_dir(src: &ReplSource, s: usize) -> Option<&Path> {
    match src {
        ReplSource::Single { dir } => (s == 0).then_some(dir.as_path()),
        ReplSource::Fleet { serving_dirs, .. } => serving_dirs.get(s).map(PathBuf::as_path),
    }
}

fn manifest_reply(src: &ReplSource) -> Reply {
    let m = match src {
        ReplSource::Single { .. } => ReplManifest {
            layout: "single".to_string(),
            shards: 1,
            epoch: 0,
        },
        ReplSource::Fleet {
            epoch,
            serving_dirs,
            ..
        } => ReplManifest {
            layout: "fleet".to_string(),
            shards: serving_dirs.len() as u64,
            epoch: *epoch,
        },
    };
    match serde_json::to_string(&m) {
        Ok(body) => Reply::json(200, body),
        Err(e) => Reply::error(500, &format!("manifest encode: {e}")),
    }
}

fn wal_reply(dir: &Path, query: &str) -> Reply {
    let Some(from) = query_get(query, "from").map_or(Some(0), |v| v.parse().ok()) else {
        return Reply::error(400, "bad from= offset");
    };
    let probe = query_get(query, "probe") == Some("1");
    let tail = match DirSource(dir).fetch_wal(from, probe) {
        Ok(t) => t,
        Err(e) => return Reply::error(500, &format!("wal tail: {e}")),
    };
    let headers = vec![
        (H_RESET.to_string(), u8::from(tail.reset).to_string()),
        (H_FRAMES.to_string(), tail.frames.to_string()),
        (H_ROWS.to_string(), tail.rows.to_string()),
        (H_OFFSET.to_string(), tail.offset.to_string()),
    ];
    Reply::bytes(tail.body, headers)
}

fn segments_reply(dir: &Path) -> Reply {
    match DirSource(dir).list_segments() {
        Ok(list) => match serde_json::to_string(&list) {
            Ok(body) => Reply::json(200, body),
            Err(e) => Reply::error(500, &format!("segment list encode: {e}")),
        },
        Err(e) => Reply::error(500, &format!("segment list: {e}")),
    }
}

fn segment_reply(dir: &Path, name: &str) -> Reply {
    match DirSource(dir).fetch_segment(name) {
        Ok(mut body) => {
            // 4-byte LE CRC32 trailer over the file bytes: segments are
            // immutable once sealed, so a single whole-file checksum is
            // enough for the follower to verify the copy.
            let crc = aiio_store::crc32(&body);
            body.extend_from_slice(&crc.to_le_bytes());
            Reply::bytes(body, Vec::new())
        }
        Err(e) if e.kind() == ErrorKind::InvalidInput => Reply::error(404, "not a segment name"),
        Err(e) if e.kind() == ErrorKind::NotFound => Reply::error(404, "no such segment"),
        Err(e) => Reply::error(500, &format!("segment read: {e}")),
    }
}

fn journal_reply(src: &ReplSource, query: &str) -> Reply {
    let ReplSource::Fleet { journal, .. } = src else {
        return Reply::error(404, "single-store layout has no journal");
    };
    let Some(from) = query_get(query, "from").map_or(Some(0), |v| v.parse().ok()) else {
        return Reply::error(400, "bad from= offset");
    };
    let tail = match journal::tail_bytes(journal, from) {
        Ok(t) => t,
        Err(e) => return Reply::error(500, &format!("journal tail: {e}")),
    };
    let headers = vec![
        (H_RESET.to_string(), u8::from(tail.reset).to_string()),
        (H_OFFSET.to_string(), tail.new_offset.to_string()),
    ];
    Reply::bytes(tail.bytes, headers)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single(dir: &Path) -> ReplSource {
        ReplSource::Single {
            dir: dir.to_path_buf(),
        }
    }

    #[test]
    fn unknown_paths_and_bad_shards_are_404() {
        let dir = std::env::temp_dir().join("replnet-server-404");
        let src = single(&dir);
        assert_eq!(repl_reply(&src, "nope").status, 404);
        assert_eq!(repl_reply(&src, "1/wal").status, 404);
        assert_eq!(repl_reply(&src, "0/segment/../wal.bin").status, 404);
        assert_eq!(repl_reply(&src, "journal").status, 404);
        assert_eq!(repl_reply(&src, "0/wal?from=abc").status, 400);
    }

    #[test]
    fn manifest_round_trips() {
        let dir = std::env::temp_dir().join("replnet-server-manifest");
        let r = repl_reply(&single(&dir), "manifest");
        assert_eq!(r.status, 200);
        let m: ReplManifest = serde_json::from_str(std::str::from_utf8(&r.body).unwrap()).unwrap();
        assert_eq!(m.layout, "single");
        assert_eq!(m.shards, 1);
    }

    #[test]
    fn missing_wal_is_an_empty_tail_not_an_error() {
        let dir = std::env::temp_dir().join("replnet-server-nowal");
        let r = repl_reply(&single(&dir), "0/wal?from=0");
        assert_eq!(r.status, 200);
        assert!(r.body.is_empty());
        assert!(r.headers.iter().any(|(n, v)| n == H_OFFSET && v == "0"));
    }
}
