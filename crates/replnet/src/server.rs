//! Primary-side reply builders for the `/repl/*` endpoints. The serve
//! layer owns the sockets and routing prefix; this module turns a
//! path-with-query (everything after `/repl/`) plus a snapshot of the
//! store's on-disk layout into a fully formed [`Response`].
//!
//! Everything here reads files statelessly — no store handle, no locks —
//! so replies always reflect the bytes durably on disk, which is exactly
//! what a follower wants to copy. Shard bytes are read through
//! [`DirSource`], the same source local fleet replication pulls from, so
//! a follower on another host copies exactly what a local follower would.
//! The WAL and the journal answer through one tail reply over
//! [`aiio_store::frames::tail_log`], whose CRC walk means a reply never
//! contains a torn or corrupt frame.

use std::io::ErrorKind;
use std::path::{Path, PathBuf};

use aiio_shard::journal;
use aiio_shard::replica::{DirSource, ShardSource};
use aiio_shard::AnyStore;
use aiio_store::frames::{self, Tail};
use aiio_store::StoreError;

use crate::http::{self, Response};
use crate::{H_FRAMES, H_OFFSET, H_RESET, H_ROWS};

/// Where the primary's bytes live, snapshotted from the attached store
/// by [`ReplSource::of`].
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

impl ReplSource {
    /// Snapshot where `store`'s bytes live. Cheap (paths and the epoch
    /// only): the serving layer takes it under its store lock and the
    /// reply builders read files after the lock is gone, against bytes
    /// the durability contract has already published.
    pub fn of(store: &AnyStore) -> ReplSource {
        match store {
            AnyStore::Plain(s) => ReplSource::Single {
                dir: s.root().to_path_buf(),
            },
            AnyStore::Fleet(f) => ReplSource::Fleet {
                epoch: f.manifest().epoch,
                serving_dirs: f.serving_dirs(),
                journal: f.journal_path(),
            },
        }
    }
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

/// A 200 carrying raw frame or segment bytes.
fn octets(body: Vec<u8>) -> Response {
    Response::bytes(200, "application/octet-stream", body)
}

/// The query of a WAL or journal tail request: `from=N` and `next=M`
/// (default 0 each) and `probe=1`; other keys are ignored.
#[derive(Default)]
struct TailQuery {
    from: u64,
    next: u64,
    probe: bool,
}

fn tail_query(query: &str) -> Result<TailQuery, Response> {
    let mut q = TailQuery::default();
    for (key, value) in http::parse_query(query) {
        match key.as_str() {
            "from" => {
                q.from = value
                    .parse()
                    .map_err(|_| Response::error(400, "bad from= offset"))?;
            }
            "next" => {
                q.next = value
                    .parse()
                    .map_err(|_| Response::error(400, "bad next= ordinal"))?;
            }
            "probe" => q.probe = value == "1",
            _ => {}
        }
    }
    Ok(q)
}

/// Build the response for `target`, the request path with `/repl/`
/// stripped but the query string intact (e.g. `0/wal?from=128`).
/// Unknown paths, out-of-range shards and malformed queries are 4xx;
/// I/O failures are 500. Never panics.
pub fn repl_reply(src: &ReplSource, target: &str) -> Response {
    let (path, query) = http::split_query(target);
    let mut parts = path.split('/');
    match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some("manifest"), None, ..) => manifest_reply(src),
        (Some("journal"), None, ..) => match src {
            ReplSource::Fleet { journal: path, .. } => tail_reply(query, |q| {
                frames::tail_log(path, journal::JOURNAL_MAGIC, q.from, q.next, q.probe)
                    .map_err(StoreError::into_io)
            }),
            ReplSource::Single { .. } => Response::error(404, "single-store layout has no journal"),
        },
        (Some(shard), Some(tail), seg_name, None) => {
            let Ok(s) = shard.parse::<usize>() else {
                return Response::error(404, "unknown replication path");
            };
            let Some(dir) = shard_dir(src, s) else {
                return Response::error(404, "shard out of range");
            };
            match (tail, seg_name) {
                ("wal", None) => {
                    tail_reply(query, |q| DirSource(dir).fetch_wal(q.from, q.next, q.probe))
                }
                ("segments", None) => segments_reply(dir),
                ("segment", Some(name)) => segment_reply(dir, name),
                _ => Response::error(404, "unknown replication path"),
            }
        }
        _ => Response::error(404, "unknown replication path"),
    }
}

fn shard_dir(src: &ReplSource, s: usize) -> Option<&Path> {
    match src {
        ReplSource::Single { dir } => (s == 0).then_some(dir.as_path()),
        ReplSource::Fleet { serving_dirs, .. } => serving_dirs.get(s).map(PathBuf::as_path),
    }
}

fn manifest_reply(src: &ReplSource) -> Response {
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
        Ok(body) => Response::json(200, body),
        Err(e) => Response::error(500, &format!("manifest encode: {e}")),
    }
}

/// The one reply for a framed-log tail (a shard WAL or the journal):
/// the verbatim frames plus the reset/frames/rows/offset headers.
fn tail_reply(query: &str, fetch: impl FnOnce(&TailQuery) -> std::io::Result<Tail>) -> Response {
    let q = match tail_query(query) {
        Ok(q) => q,
        Err(bad) => return bad,
    };
    match fetch(&q) {
        Ok(tail) => octets(tail.body)
            .with_header(H_RESET, u8::from(tail.reset).to_string())
            .with_header(H_FRAMES, tail.frames.to_string())
            .with_header(H_ROWS, tail.rows.to_string())
            .with_header(H_OFFSET, tail.new_offset.to_string()),
        Err(e) => Response::error(500, &format!("log tail: {e}")),
    }
}

fn segments_reply(dir: &Path) -> Response {
    match DirSource(dir).list_segments() {
        Ok(list) => match serde_json::to_string(&list) {
            Ok(body) => Response::json(200, body),
            Err(e) => Response::error(500, &format!("segment list encode: {e}")),
        },
        Err(e) => Response::error(500, &format!("segment list: {e}")),
    }
}

fn segment_reply(dir: &Path, name: &str) -> Response {
    match DirSource(dir).fetch_segment(name) {
        Ok(mut body) => {
            // 4-byte LE CRC32 trailer over the file bytes: segments are
            // immutable once sealed, so a single whole-file checksum is
            // enough for the follower to verify the copy.
            let crc = aiio_store::crc32(&body);
            body.extend_from_slice(&crc.to_le_bytes());
            octets(body)
        }
        Err(e) if e.kind() == ErrorKind::InvalidInput => Response::error(404, "not a segment name"),
        Err(e) if e.kind() == ErrorKind::NotFound => Response::error(404, "no such segment"),
        Err(e) => Response::error(500, &format!("segment read: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single(tag: &str) -> (PathBuf, ReplSource) {
        let dir = std::env::temp_dir().join(format!("replnet-server-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let src = ReplSource::of(&AnyStore::open(&dir, 0).unwrap());
        (dir, src)
    }

    #[test]
    fn unknown_paths_and_bad_shards_are_404() {
        let (dir, src) = single("404");
        assert_eq!(repl_reply(&src, "nope").status, 404);
        assert_eq!(repl_reply(&src, "1/wal").status, 404);
        assert_eq!(repl_reply(&src, "0/segment/../wal.bin").status, 404);
        assert_eq!(repl_reply(&src, "journal").status, 404);
        assert_eq!(repl_reply(&src, "0/wal?from=abc").status, 400);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn manifest_round_trips() {
        let (dir, src) = single("manifest");
        let r = repl_reply(&src, "manifest");
        assert_eq!(r.status, 200);
        let m: ReplManifest = serde_json::from_str(std::str::from_utf8(&r.body).unwrap()).unwrap();
        assert_eq!(m.layout, "single");
        assert_eq!(m.shards, 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn wal_and_journal_tails_carry_the_same_headers() {
        let dir = std::env::temp_dir().join(format!("replnet-server-heads-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = AnyStore::open(&dir, 2).unwrap();
        let jobs: Vec<_> = (0..6)
            .map(|i| aiio_darshan::JobLog::new(i, "app", 2020))
            .collect();
        store.append_batch(&jobs).unwrap();
        store.sync().unwrap();
        let src = ReplSource::of(&store);
        let header = |r: &Response, name: &str| {
            r.headers
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.clone())
        };
        let journal = repl_reply(&src, "journal?from=0&next=0");
        assert_eq!(journal.status, 200);
        assert_eq!(header(&journal, H_FRAMES).as_deref(), Some("1"));
        assert_eq!(header(&journal, H_ROWS).as_deref(), Some("6"));
        assert_eq!(header(&journal, H_RESET).as_deref(), Some("0"));
        let wal = repl_reply(&src, "0/wal?from=0&next=0");
        for name in [H_RESET, H_FRAMES, H_ROWS, H_OFFSET] {
            assert!(header(&wal, name).is_some(), "wal reply lacks {name}");
        }
        assert_eq!(repl_reply(&src, "journal?next=x").status, 400);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn missing_wal_is_an_empty_tail_not_an_error() {
        let (dir, src) = single("nowal");
        std::fs::remove_file(dir.join(aiio_store::wal::WAL_NAME)).unwrap();
        let r = repl_reply(&src, "0/wal?from=0");
        assert_eq!(r.status, 200);
        assert!(r.body.is_empty());
        assert!(r.headers.iter().any(|(n, v)| n == H_OFFSET && v == "0"));
        let _ = std::fs::remove_dir_all(dir);
    }
}
