//! Blocking client for the `csq/1` protocol — what `csq connect` and
//! `csq bench-serve` speak, and what the integration tests drive.
//!
//! One [`Client`] owns one connection and issues one request at a
//! time. The only concurrent frame a connection ever needs is
//! `cancel`, which goes through a [`Canceller`] — a cloned socket
//! handle that can interrupt the request the client thread is blocked
//! on.

use crate::proto::{
    read_frame, write_frame, BatchRequest, DeltaReply, ErrorReply, Frame, MutateReply,
    MutateRequest, Opcode, PollRequest, ProtoError, QueryReply, QueryRequest, RequestHeader,
    SubscribeReply, WireMutation,
};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Client-side failure: transport/protocol trouble, or a typed error
/// frame from the server.
#[derive(Debug)]
pub enum ClientError {
    /// Framing or socket failure.
    Proto(ProtoError),
    /// The server answered with an error frame.
    Server(ErrorReply),
    /// The server answered with a frame the request cannot interpret.
    Unexpected(Opcode),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Proto(e) => write!(f, "{e}"),
            ClientError::Server(e) => write!(f, "{}", e.message),
            ClientError::Unexpected(op) => write!(f, "unexpected response frame {op:?}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Proto(ProtoError::Io(e))
    }
}

/// A blocking connection to a `csqd` server.
pub struct Client {
    stream: TcpStream,
    next_id: u64,
}

/// A handle that can send `cancel` frames while the [`Client`] it was
/// cloned from is blocked waiting for a reply.
pub struct Canceller {
    stream: TcpStream,
}

impl Canceller {
    /// Asks the server to cancel request `id`. Fire-and-forget: the
    /// cancelled request itself answers with a `Cancelled` error frame
    /// on the main client handle.
    pub fn cancel(&mut self, id: u64) -> std::io::Result<()> {
        write_frame(
            &mut self.stream,
            &Frame {
                request_id: id,
                opcode: Opcode::Cancel,
                payload: id.to_le_bytes().to_vec(),
            },
        )
    }
}

impl Client {
    /// Connects to a `csqd` server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream, next_id: 1 })
    }

    /// A [`Canceller`] sharing this connection.
    pub fn canceller(&self) -> std::io::Result<Canceller> {
        Ok(Canceller {
            stream: self.stream.try_clone()?,
        })
    }

    fn send(&mut self, opcode: Opcode, payload: Vec<u8>) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        write_frame(
            &mut self.stream,
            &Frame {
                request_id: id,
                opcode,
                payload,
            },
        )?;
        Ok(id)
    }

    /// Reads frames until the one answering `id` arrives (late replies
    /// to cancelled predecessors are skipped).
    fn wait(&mut self, id: u64) -> Result<Frame, ClientError> {
        loop {
            let frame = read_frame(&mut self.stream)?;
            if frame.request_id == id {
                return Ok(frame);
            }
        }
    }

    fn expect_reply(&mut self, id: u64) -> Result<QueryReply, ClientError> {
        let frame = self.wait(id)?;
        match frame.opcode {
            Opcode::Reply => Ok(QueryReply::decode(&frame.payload)?),
            Opcode::Error => Err(ClientError::Server(ErrorReply::decode(&frame.payload)?)),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Sends a query without waiting — the two-phase form that lets a
    /// [`Canceller`] target the returned id while [`Client::wait_query`]
    /// blocks.
    pub fn send_query(&mut self, text: &str, header: &RequestHeader) -> Result<u64, ClientError> {
        self.send(
            Opcode::Query,
            QueryRequest {
                header: header.clone(),
                text: text.to_string(),
            }
            .encode(),
        )
    }

    /// Waits for the reply to a [`Client::send_query`] id.
    pub fn wait_query(&mut self, id: u64) -> Result<QueryReply, ClientError> {
        self.expect_reply(id)
    }

    /// Executes one query (`SELECT` or `ASK`) and waits for its reply.
    pub fn query(&mut self, text: &str, header: &RequestHeader) -> Result<QueryReply, ClientError> {
        let id = self.send_query(text, header)?;
        self.expect_reply(id)
    }

    /// Executes an `ASK` query, returning its boolean. The server runs
    /// it as [`Client::query`] does and replies with the boolean.
    pub fn ask(&mut self, text: &str, header: &RequestHeader) -> Result<bool, ClientError> {
        let id = self.send(
            Opcode::Ask,
            QueryRequest {
                header: header.clone(),
                text: text.to_string(),
            }
            .encode(),
        )?;
        Ok(self.expect_reply(id)?.boolean == Some(true))
    }

    /// Executes a batch through one server-side cross-query dispatch.
    pub fn batch(
        &mut self,
        queries: &[&str],
        header: &RequestHeader,
    ) -> Result<QueryReply, ClientError> {
        let id = self.send(
            Opcode::Batch,
            BatchRequest {
                header: header.clone(),
                queries: queries.iter().map(|q| q.to_string()).collect(),
            }
            .encode(),
        )?;
        self.expect_reply(id)
    }

    /// Applies a mutation batch to the server's live graph (one
    /// generation bump via the server's epoch swap). Node endpoints
    /// are symbolic — exact node labels or raw `n<ID>` references.
    pub fn mutate(
        &mut self,
        ops: Vec<WireMutation>,
        header: &RequestHeader,
    ) -> Result<MutateReply, ClientError> {
        let id = self.send(
            Opcode::Mutate,
            MutateRequest {
                header: header.clone(),
                ops,
            }
            .encode(),
        )?;
        let frame = self.wait(id)?;
        match frame.opcode {
            Opcode::MutateReply => Ok(MutateReply::decode(&frame.payload)?),
            Opcode::Error => Err(ClientError::Server(ErrorReply::decode(&frame.payload)?)),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Registers a standing `SELECT` query on this connection,
    /// returning the subscription id to [`Client::poll`].
    pub fn subscribe(
        &mut self,
        text: &str,
        header: &RequestHeader,
    ) -> Result<SubscribeReply, ClientError> {
        let id = self.send(
            Opcode::Subscribe,
            QueryRequest {
                header: header.clone(),
                text: text.to_string(),
            }
            .encode(),
        )?;
        let frame = self.wait(id)?;
        match frame.opcode {
            Opcode::SubscribeReply => Ok(SubscribeReply::decode(&frame.payload)?),
            Opcode::Error => Err(ClientError::Server(ErrorReply::decode(&frame.payload)?)),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Polls a subscription for the rows that appeared/disappeared
    /// since its previous poll (or since [`Client::subscribe`]).
    pub fn poll(&mut self, sub: u64, header: &RequestHeader) -> Result<DeltaReply, ClientError> {
        let id = self.send(
            Opcode::Poll,
            PollRequest {
                header: header.clone(),
                sub,
            }
            .encode(),
        )?;
        let frame = self.wait(id)?;
        match frame.opcode {
            Opcode::DeltaReply => Ok(DeltaReply::decode(&frame.payload)?),
            Opcode::Error => Err(ClientError::Server(ErrorReply::decode(&frame.payload)?)),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Round-trips a `ping`, returning its latency.
    pub fn ping(&mut self) -> Result<Duration, ClientError> {
        let t0 = Instant::now();
        let id = self.send(Opcode::Ping, b"ping".to_vec())?;
        let frame = self.wait(id)?;
        match frame.opcode {
            Opcode::Pong => Ok(t0.elapsed()),
            Opcode::Error => Err(ClientError::Server(ErrorReply::decode(&frame.payload)?)),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Fetches the server's statistics report.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        let id = self.send(Opcode::Stats, Vec::new())?;
        let frame = self.wait(id)?;
        match frame.opcode {
            Opcode::StatsReply => String::from_utf8(frame.payload)
                .map_err(|_| ClientError::Proto(ProtoError::BadUtf8)),
            Opcode::Error => Err(ClientError::Server(ErrorReply::decode(&frame.payload)?)),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Asks the server to shut down; resolves when the ack arrives.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        let id = self.send(Opcode::Shutdown, Vec::new())?;
        let frame = self.wait(id)?;
        match frame.opcode {
            Opcode::ShutdownAck => Ok(()),
            Opcode::Error => Err(ClientError::Server(ErrorReply::decode(&frame.payload)?)),
            other => Err(ClientError::Unexpected(other)),
        }
    }
}
