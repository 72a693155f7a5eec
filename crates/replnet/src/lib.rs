//! The HTTP/1.1 wire module, and network WAL-shipping replication for the
//! aiio job-log store over it.
//!
//! A primary exposes its store under `/repl/*` (wired into `aiio-serve`);
//! a follower on another host runs [`pull_pass`] against that URL and
//! ends up with a byte-identical copy it can serve failover reads from.
//!
//! [`http`] is the one implementation of the wire format in the
//! workspace: request parsing and response writing for the server,
//! [`http::roundtrip`] for every client (the CLI, the benches, the
//! follower). It lives here because this is the lowest crate both the
//! server and the follower link; `aiio-serve` re-exports it.
//!
//! # One engine, two sources
//!
//! This crate adds a transport, not a second replication protocol. The
//! per-shard pass (segment mirror, then the WAL through the framed-log
//! follower step: derived resume point, torn-tail truncation,
//! verify-then-publish) is [`aiio_shard::replica::pull_shard`], the same
//! engine `ShardedStore::replicate` runs against a local directory. Here
//! it reads through an HTTP source that adds per-request deadlines,
//! retries and the segment CRC-trailer check, and the `/repl/{s}/*`
//! endpoints answer through [`aiio_shard::replica::DirSource`]. The
//! ordinal journal goes through the same follower step,
//! [`aiio_shard::replica::pull_log`]. [`pull_pass`] itself only keeps
//! the fleet-level order: manifest, then every shard, then the ordinal
//! journal last.
//!
//! # Wire format
//!
//! All endpoints are plain HTTP/1.1, one exchange per connection
//! (`Connection: close`), bodies sized by `Content-Length`:
//!
//! | endpoint | body |
//! |---|---|
//! | `GET /repl/manifest` | JSON `{"layout","shards","epoch"}` |
//! | `GET /repl/{s}/wal?from=N&next=M[&probe=1]` | verbatim CRC-framed WAL tail |
//! | `GET /repl/{s}/segments` | JSON `[{"name","bytes"}]` |
//! | `GET /repl/{s}/segment/{name}` | file bytes + 4-byte LE CRC32 trailer |
//! | `GET /repl/journal?from=N&next=M[&probe=1]` | verbatim journal frame tail |
//!
//! The WAL and the journal are both [`aiio_store::frames`] logs and are
//! answered by one tail reply: `from` is the byte length of the
//! follower's intact copy and `next` the ordinal it expects next. The
//! primary continues only from a frame boundary at `from` whose frame
//! ends at ordinal `next`; anything else is a reset, and the reply ships
//! the whole intact log. Both replies carry `X-Repl-Reset`,
//! `X-Repl-Frames`, `X-Repl-Rows` and `X-Repl-Offset` headers so a
//! follower can measure lag without decoding the body.
//!
//! # Crash idempotency
//!
//! The follower never persists a replication cursor. Its resume offset
//! *is* the CRC-intact byte length of its own copy, and its `next` the
//! end ordinal of that copy's last frame
//! ([`aiio_shard::replica::pull_log`] derives both), so a pull pass
//! killed at any byte leaves a state the next pass resumes from exactly
//! — re-shipping at most the one torn frame it truncates.
//! Received bytes are CRC-walked *before* publication: a bit-flip in
//! transit fails its frame CRC and is never written, a torn stream simply
//! ends the pass early with the verified prefix published.

pub mod http;
pub mod pull;
pub mod server;

pub use aiio_shard::replica::{SegmentEntry, ShardPullReport};
pub use pull::{probe_pass, pull_pass, PullConfig, PullReport};
pub use server::{repl_reply, ReplManifest, ReplSource};

/// Header carrying `1` when the follower's copy did not continue the
/// primary's log (see [`aiio_store::frames::tail_log`]) and the tail
/// restarted from zero.
pub const H_RESET: &str = "x-repl-reset";
/// Header carrying the number of intact frames in (or, under `probe=1`,
/// available for) the reply body.
pub const H_FRAMES: &str = "x-repl-frames";
/// Header carrying the total rows covered by those frames.
pub const H_ROWS: &str = "x-repl-rows";
/// Header carrying the leader-side offset at the end of the tail.
pub const H_OFFSET: &str = "x-repl-offset";
