//! Control-plane messages: how remote consumers ask a node's
//! dissemination daemon for data.

use pbio::{read_u64, write_u64, PbioError};
use simnet::{EndPoint, Ip, Port};

use crate::PubSubError;

/// A subscription-management request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlMsg {
    /// Subscribe `reply_to` to the named topic, with an optional E-Code
    /// filter source.
    Subscribe {
        /// Topic name on the publishing node.
        topic: String,
        /// Where publications should be sent.
        reply_to: EndPoint,
        /// Optional E-Code filter source.
        filter: Option<String>,
    },
    /// Remove `reply_to`'s subscriptions from the named topic.
    Unsubscribe {
        /// Topic name.
        topic: String,
        /// The subscriber being removed.
        reply_to: EndPoint,
    },
    /// A subscribe was rejected. Sent by the daemon back to the
    /// requester when the topic is unknown or the filter fails static
    /// verification, carrying the rendered diagnostics — a bad filter is
    /// surfaced, never silently dropped.
    SubscribeNack {
        /// The topic of the rejected subscribe.
        topic: String,
        /// The subscriber the rejected request named.
        reply_to: EndPoint,
        /// Rendered verifier diagnostics (one string per finding).
        diagnostics: Vec<String>,
    },
    /// Cumulative acknowledgement of sequenced data batches: the
    /// subscriber has delivered (in order) every batch with sequence
    /// number `<= upto`. Lets the daemon trim its resend buffer.
    DataAck {
        /// The subscriber's data endpoint (identifies the stream on the
        /// daemon side).
        subscriber: EndPoint,
        /// Highest in-order sequence number delivered.
        upto: u64,
    },
    /// A gap report: the subscriber is missing batches `from_seq..=to_seq`
    /// and asks for their retransmission.
    DataNack {
        /// The subscriber's data endpoint (identifies the stream).
        subscriber: EndPoint,
        /// First missing sequence number.
        from_seq: u64,
        /// Last missing sequence number (inclusive).
        to_seq: u64,
    },
}

const TAG_SUBSCRIBE: u64 = 1;
const TAG_UNSUBSCRIBE: u64 = 2;
const TAG_SUBSCRIBE_NACK: u64 = 3;
const TAG_DATA_ACK: u64 = 4;
const TAG_DATA_NACK: u64 = 5;

fn write_string(buf: &mut Vec<u8>, s: &str) {
    write_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn read_string(buf: &mut &[u8]) -> Result<String, PbioError> {
    let len = read_u64(buf)? as usize;
    let (head, rest) = buf.split_at_checked(len).ok_or(PbioError::UnexpectedEof)?;
    let s = std::str::from_utf8(head).map_err(|_| PbioError::BadUtf8)?;
    *buf = rest;
    Ok(s.to_owned())
}

fn write_endpoint(buf: &mut Vec<u8>, ep: EndPoint) {
    write_u64(buf, ep.ip.0 as u64);
    write_u64(buf, ep.port.0 as u64);
}

fn read_endpoint(buf: &mut &[u8]) -> Result<EndPoint, PbioError> {
    let ip = Ip(read_u64(buf)? as u32);
    let port = Port(read_u64(buf)? as u16);
    Ok(EndPoint::new(ip, port))
}

impl ControlMsg {
    /// Serializes the message for the wire.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            ControlMsg::Subscribe {
                topic,
                reply_to,
                filter,
            } => {
                write_u64(&mut buf, TAG_SUBSCRIBE);
                write_string(&mut buf, topic);
                write_endpoint(&mut buf, *reply_to);
                match filter {
                    Some(f) => {
                        buf.push(1);
                        write_string(&mut buf, f);
                    }
                    None => buf.push(0),
                }
            }
            ControlMsg::Unsubscribe { topic, reply_to } => {
                write_u64(&mut buf, TAG_UNSUBSCRIBE);
                write_string(&mut buf, topic);
                write_endpoint(&mut buf, *reply_to);
            }
            ControlMsg::SubscribeNack {
                topic,
                reply_to,
                diagnostics,
            } => {
                write_u64(&mut buf, TAG_SUBSCRIBE_NACK);
                write_string(&mut buf, topic);
                write_endpoint(&mut buf, *reply_to);
                write_u64(&mut buf, diagnostics.len() as u64);
                for d in diagnostics {
                    write_string(&mut buf, d);
                }
            }
            ControlMsg::DataAck { subscriber, upto } => {
                write_u64(&mut buf, TAG_DATA_ACK);
                write_endpoint(&mut buf, *subscriber);
                write_u64(&mut buf, *upto);
            }
            ControlMsg::DataNack {
                subscriber,
                from_seq,
                to_seq,
            } => {
                write_u64(&mut buf, TAG_DATA_NACK);
                write_endpoint(&mut buf, *subscriber);
                write_u64(&mut buf, *from_seq);
                write_u64(&mut buf, *to_seq);
            }
        }
        buf
    }

    /// Parses a wire message.
    ///
    /// # Errors
    ///
    /// Codec errors on malformed input.
    pub fn decode(mut buf: &[u8]) -> Result<ControlMsg, PubSubError> {
        let tag = read_u64(&mut buf)?;
        match tag {
            TAG_SUBSCRIBE => {
                let topic = read_string(&mut buf)?;
                let reply_to = read_endpoint(&mut buf)?;
                if buf.is_empty() {
                    return Err(PubSubError::Codec(PbioError::UnexpectedEof));
                }
                let has_filter = buf[0] != 0;
                buf = &buf[1..];
                let filter = if has_filter {
                    Some(read_string(&mut buf)?)
                } else {
                    None
                };
                Ok(ControlMsg::Subscribe {
                    topic,
                    reply_to,
                    filter,
                })
            }
            TAG_UNSUBSCRIBE => {
                let topic = read_string(&mut buf)?;
                let reply_to = read_endpoint(&mut buf)?;
                Ok(ControlMsg::Unsubscribe { topic, reply_to })
            }
            TAG_SUBSCRIBE_NACK => {
                let topic = read_string(&mut buf)?;
                let reply_to = read_endpoint(&mut buf)?;
                let n = read_u64(&mut buf)?;
                // Cap by remaining bytes so a hostile length cannot OOM.
                if n > buf.len() as u64 {
                    return Err(PubSubError::Codec(PbioError::UnexpectedEof));
                }
                let mut diagnostics = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    diagnostics.push(read_string(&mut buf)?);
                }
                Ok(ControlMsg::SubscribeNack {
                    topic,
                    reply_to,
                    diagnostics,
                })
            }
            TAG_DATA_ACK => {
                let subscriber = read_endpoint(&mut buf)?;
                let upto = read_u64(&mut buf)?;
                Ok(ControlMsg::DataAck { subscriber, upto })
            }
            TAG_DATA_NACK => {
                let subscriber = read_endpoint(&mut buf)?;
                let from_seq = read_u64(&mut buf)?;
                let to_seq = read_u64(&mut buf)?;
                Ok(ControlMsg::DataNack {
                    subscriber,
                    from_seq,
                    to_seq,
                })
            }
            _ => Err(PubSubError::Codec(PbioError::BadSchemaEncoding)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep() -> EndPoint {
        EndPoint::new(Ip(0x0A000002), Port(9999))
    }

    #[test]
    fn subscribe_round_trip_with_filter() {
        let msg = ControlMsg::Subscribe {
            topic: "interactions".into(),
            reply_to: ep(),
            filter: Some("return latency_us > 100;".into()),
        };
        assert_eq!(ControlMsg::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn subscribe_round_trip_without_filter() {
        let msg = ControlMsg::Subscribe {
            topic: "t".into(),
            reply_to: ep(),
            filter: None,
        };
        assert_eq!(ControlMsg::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn unsubscribe_round_trip() {
        let msg = ControlMsg::Unsubscribe {
            topic: "t".into(),
            reply_to: ep(),
        };
        assert_eq!(ControlMsg::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn subscribe_nack_round_trip() {
        let msg = ControlMsg::SubscribeNack {
            topic: "interactions".into(),
            reply_to: ep(),
            diagnostics: vec![
                "error[E0001] (line 2): division by zero".into(),
                "warning[W0004]: unused inputs: size".into(),
            ],
        };
        assert_eq!(ControlMsg::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn data_ack_round_trip() {
        let msg = ControlMsg::DataAck {
            subscriber: ep(),
            upto: u64::MAX - 1,
        };
        assert_eq!(ControlMsg::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn data_nack_round_trip() {
        let msg = ControlMsg::DataNack {
            subscriber: ep(),
            from_seq: 17,
            to_seq: 23,
        };
        assert_eq!(ControlMsg::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn garbage_rejected() {
        assert!(ControlMsg::decode(&[9, 9, 9]).is_err());
        assert!(ControlMsg::decode(&[]).is_err());
    }
}

#[cfg(test)]
#[allow(unused)] // a typecheck-only proptest elides macro bodies, orphaning these imports
mod control_fuzz {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Control-message decoding is total on arbitrary bytes (these
        /// arrive over the network from other nodes).
        #[test]
        fn prop_decode_total(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = ControlMsg::decode(&bytes);
        }

        /// Encode/decode round-trips arbitrary topic names and filters.
        #[test]
        fn prop_round_trip(topic in ".{0,64}", filter in proptest::option::of(".{0,64}"),
                           ip in any::<u32>(), port in any::<u16>()) {
            let msg = ControlMsg::Subscribe {
                topic,
                reply_to: EndPoint::new(Ip(ip), Port(port)),
                filter,
            };
            prop_assert_eq!(ControlMsg::decode(&msg.encode()).unwrap(), msg);
        }
    }
}
