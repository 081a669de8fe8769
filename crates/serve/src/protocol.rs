//! Wire protocol: versioned JSON request/reply frames.
//!
//! Every frame carries one JSON document. Requests name a `method`, a
//! client-chosen `id` (echoed verbatim in the reply so pipelined
//! requests can be matched up), the client's protocol `version`, and the
//! method's inputs — a `workload` token (the same vocabulary the CLI
//! positional accepts), a `handle` to a resident problem returned by a
//! prior `load`, and the raw CLI-style `args` tail.
//!
//! Replies always echo [`PROTOCOL_VERSION`] and exactly one of `ok` /
//! `error`. The version pin works like `DSE_CSV_HEADER`: the constant
//! is the single source of truth, every reply carries it, and a request
//! whose `version` differs is rejected with [`kind::VERSION`] before
//! any work is admitted.

use serde::{Deserialize, Serialize};

/// The wire protocol version. Bump on any incompatible change to the
/// frame layout, request schema or reply schema.
pub const PROTOCOL_VERSION: u32 = 1;

/// The structured error kinds a reply can carry. String constants (not
/// an enum) so unknown kinds degrade readably on old clients.
pub mod kind {
    /// Client/server protocol version mismatch.
    pub const VERSION: &str = "version";
    /// The request frame was not valid JSON / not a valid request.
    pub const PARSE: &str = "parse";
    /// The method name is not served.
    pub const UNKNOWN_METHOD: &str = "unknown_method";
    /// The request referenced a handle no `load` returned.
    pub const UNKNOWN_HANDLE: &str = "unknown_handle";
    /// The admission queue is full; retry later.
    pub const OVERLOADED: &str = "overloaded";
    /// The request exhausted its deadline budget before completing.
    pub const DEADLINE: &str = "deadline";
    /// Malformed method inputs (bad flags, missing workload, …).
    pub const USAGE: &str = "usage";
    /// Workload IO failures.
    pub const IO: &str = "io";
    /// Workload parse failures.
    pub const PARSE_WORKLOAD: &str = "parse_workload";
    /// The analysis/search itself failed.
    pub const ANALYSIS: &str = "analysis";
    /// The server is shutting down.
    pub const SHUTDOWN: &str = "shutdown";
}

/// One request frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the reply.
    pub id: u64,
    /// The client's [`PROTOCOL_VERSION`]. Defaults to 0 when absent so
    /// version-less requests are rejected with a clear error instead of
    /// a parse failure.
    #[serde(default)]
    pub version: u32,
    /// The method: `load`, `analyze`, `simulate`, `optimize`, `sweep`,
    /// `stats`, `ping` or `shutdown`.
    pub method: String,
    /// Workload token (file path, SDF input, `rosace`, family token).
    #[serde(default)]
    pub workload: Option<String>,
    /// Resident-problem handle from a prior `load` reply.
    #[serde(default)]
    pub handle: Option<u64>,
    /// CLI-style flag tail, passed to the engine verbatim.
    #[serde(default)]
    pub args: Vec<String>,
}

impl Request {
    /// A request for `method` at the current protocol version.
    pub fn new(id: u64, method: &str) -> Self {
        Request {
            id,
            version: PROTOCOL_VERSION,
            method: method.to_owned(),
            workload: None,
            handle: None,
            args: Vec::new(),
        }
    }

    /// Sets the workload token.
    #[must_use]
    pub fn workload(mut self, token: &str) -> Self {
        self.workload = Some(token.to_owned());
        self
    }

    /// Sets the resident-problem handle.
    #[must_use]
    pub fn handle(mut self, handle: u64) -> Self {
        self.handle = Some(handle);
        self
    }

    /// Sets the argument tail.
    #[must_use]
    pub fn args(mut self, args: &[String]) -> Self {
        self.args = args.to_vec();
        self
    }
}

/// The success payload of a reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplyBody {
    /// The rendered output — for `analyze`/`simulate`/`optimize` this
    /// is byte-identical to the one-shot CLI's stdout for the same
    /// workload and flags.
    #[serde(default)]
    pub output: String,
    /// The resident handle (only on `load` replies).
    #[serde(default)]
    pub handle: Option<u64>,
    /// Task count of the loaded problem (only on `load` replies).
    #[serde(default)]
    pub tasks: Option<u64>,
    /// Core count of the loaded problem (only on `load` replies).
    #[serde(default)]
    pub cores: Option<u64>,
    /// True when the output came from the shared memo cache.
    #[serde(default)]
    pub cached: bool,
}

impl ReplyBody {
    /// A plain-output body.
    pub fn output(text: String) -> Self {
        ReplyBody {
            output: text,
            handle: None,
            tasks: None,
            cores: None,
            cached: false,
        }
    }
}

/// The failure payload of a reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorBody {
    /// One of the [`kind`] constants.
    pub kind: String,
    /// Human-readable detail.
    pub message: String,
}

/// One reply frame: the echoed id, the server's protocol version, and
/// exactly one of `ok` / `error`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Reply {
    /// The request id this reply answers (0 when the request was so
    /// malformed no id could be recovered).
    pub id: u64,
    /// Always [`PROTOCOL_VERSION`].
    pub version: u32,
    /// Present on success.
    #[serde(default)]
    pub ok: Option<ReplyBody>,
    /// Present on failure.
    #[serde(default)]
    pub error: Option<ErrorBody>,
}

impl Reply {
    /// A success reply.
    pub fn ok(id: u64, body: ReplyBody) -> Self {
        Reply {
            id,
            version: PROTOCOL_VERSION,
            ok: Some(body),
            error: None,
        }
    }

    /// An error reply.
    pub fn error(id: u64, kind: &str, message: impl Into<String>) -> Self {
        Reply {
            id,
            version: PROTOCOL_VERSION,
            ok: None,
            error: Some(ErrorBody {
                kind: kind.to_owned(),
                message: message.into(),
            }),
        }
    }

    /// Serializes the reply as a compact JSON frame payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        serde_json::to_string(self)
            .expect("replies serialize")
            .into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_with_defaults() {
        let r = Request::new(7, "analyze")
            .workload("rosace")
            .args(&["--iterations".to_owned(), "2".to_owned()]);
        let json = serde_json::to_string(&r).unwrap();
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.version, PROTOCOL_VERSION);

        // A minimal hand-written request defaults the optional fields.
        let min: Request = serde_json::from_str(r#"{"id": 1, "method": "ping"}"#).unwrap();
        assert_eq!(min.version, 0); // rejected later with a clear error
        assert!(min.workload.is_none());
        assert!(min.args.is_empty());
    }

    #[test]
    fn replies_carry_the_version_pin() {
        let ok = Reply::ok(3, ReplyBody::output("done".into()));
        assert_eq!(ok.version, PROTOCOL_VERSION);
        let err = Reply::error(4, kind::OVERLOADED, "queue full");
        assert_eq!(err.version, PROTOCOL_VERSION);
        let json = String::from_utf8(err.to_bytes()).unwrap();
        let back: Reply = serde_json::from_str(&json).unwrap();
        assert_eq!(back.error.unwrap().kind, kind::OVERLOADED);
        assert!(back.ok.is_none());
    }

    /// Reply and request frames, pinned byte for byte.
    #[test]
    fn frames_are_pinned() {
        let mut body = ReplyBody::output("| task | n\"0\" |\n|---|\\|\n".into());
        body.handle = Some(7);
        body.tasks = Some(5);
        body.cached = true;
        assert_eq!(
            String::from_utf8(Reply::ok(12, body).to_bytes()).unwrap(),
            r#"{"id":12,"version":1,"ok":{"output":"| task | n\"0\" |\n|---|\\|\n","handle":7,"tasks":5,"cores":null,"cached":true},"error":null}"#
        );
        let err = Reply::error(0, kind::PARSE, "expected `,` or `}` at offset 9");
        assert_eq!(
            String::from_utf8(err.to_bytes()).unwrap(),
            r#"{"id":0,"version":1,"ok":null,"error":{"kind":"parse","message":"expected `,` or `}` at offset 9"}}"#
        );
        let request = Request::new(3, "analyze")
            .workload("rosace")
            .args(&["--arbiter".into(), "mppa".into()]);
        assert_eq!(
            serde_json::to_string(&request).unwrap(),
            r#"{"id":3,"version":1,"method":"analyze","workload":"rosace","handle":null,"args":["--arbiter","mppa"]}"#
        );
    }
}
