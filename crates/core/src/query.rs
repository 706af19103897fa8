//! Remote GPA queries.
//!
//! "Other nodes in the system can query the GPA to determine information
//! about a particular interaction or about the system as a whole." (§2)
//!
//! Queries travel as kernel messages to the GPA node's query port; the
//! GPA answers over the same kernel channels to a reply endpoint the
//! querier names. Both sides are modeled with [`simos::KernelSink`]s, so
//! queries and answers consume real simulated bandwidth and CPU.

use std::cell::RefCell;
use std::rc::Rc;

use serde::{Deserialize, Serialize};
use simcore::{NodeId, SimTime};
use simnet::{EndPoint, Port};
use simos::{KernelOutput, KernelSend, KernelSink, Message, World};

use crate::cost;
use crate::gpa::Gpa;
use crate::{ClassSummary, NodeLoadView};

/// Port on the GPA node that answers queries.
pub const QUERY_PORT: Port = Port(9995);
/// Default port queriers listen on for answers.
pub const QUERY_REPLY_PORT: Port = Port(9994);

/// A question for the GPA.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GpaQuery {
    /// How many interactions has the GPA ingested?
    InteractionCount,
    /// The aggregate summary for one (node, class-port) pair.
    ClassSummary {
        /// Measuring node.
        node: NodeId,
        /// Responder-side port.
        class_port: u16,
    },
    /// The latest load view of a node.
    NodeLoad {
        /// The node in question.
        node: NodeId,
    },
    /// Every class summary the GPA holds.
    AllClassSummaries,
}

/// The GPA's answer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum GpaAnswer {
    /// Answer to [`GpaQuery::InteractionCount`].
    InteractionCount(u64),
    /// Answer to [`GpaQuery::ClassSummary`] (None: never observed).
    ClassSummary(Option<ClassSummary>),
    /// Answer to [`GpaQuery::NodeLoad`] (None: no reports yet).
    NodeLoad(Option<NodeLoadView>),
    /// Answer to [`GpaQuery::AllClassSummaries`].
    AllClassSummaries(Vec<ClassSummary>),
    /// The query could not be decoded.
    BadQuery,
}

/// One query/answer exchange, tagged so answers match questions.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct QueryEnvelope {
    id: u64,
    reply_to: EndPoint,
    query: GpaQuery,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct AnswerEnvelope {
    id: u64,
    answer: GpaAnswer,
}

/// The GPA-side query sink. Installed by
/// [`SysProf::deploy`](crate::SysProf::deploy) on the GPA node at
/// [`QUERY_PORT`].
pub struct GpaQuerySink {
    gpa: Rc<RefCell<Gpa>>,
}

impl GpaQuerySink {
    /// A sink answering from `gpa`.
    pub fn new(gpa: Rc<RefCell<Gpa>>) -> Self {
        GpaQuerySink { gpa }
    }
}

impl KernelSink for GpaQuerySink {
    fn on_message(
        &mut self,
        _now_wall: SimTime,
        _node: NodeId,
        _src: EndPoint,
        _msg: Message,
        data: simos::Bytes,
    ) -> KernelOutput {
        let cost = cost::GPA_QUERY;
        let Ok(envelope) = serde_json::from_slice::<QueryEnvelope>(&data) else {
            return KernelOutput {
                cost,
                ..Default::default()
            };
        };
        let gpa = self.gpa.borrow();
        let answer = match envelope.query {
            GpaQuery::InteractionCount => GpaAnswer::InteractionCount(gpa.interaction_count()),
            GpaQuery::ClassSummary { node, class_port } => {
                GpaAnswer::ClassSummary(gpa.class_summary(node, Port(class_port)))
            }
            GpaQuery::NodeLoad { node } => GpaAnswer::NodeLoad(gpa.node_load(node)),
            GpaQuery::AllClassSummaries => GpaAnswer::AllClassSummaries(gpa.all_class_summaries()),
        };
        let reply = AnswerEnvelope {
            id: envelope.id,
            answer,
        };
        KernelOutput {
            cost,
            sends: vec![KernelSend {
                dst: envelope.reply_to,
                src_port: QUERY_PORT,
                kind: 0,
                data: serde_json::to_vec(&reply)
                    .expect("answers serialize")
                    .into(),
            }],
            rearm_after: None,
        }
    }
}

/// Client-side helper: installs a reply sink on the querying node and
/// sends queries to the GPA over the wire. Answers arrive asynchronously
/// (after simulated network + processing time) and are collected for the
/// caller to inspect.
pub struct QueryClient {
    node: NodeId,
    gpa_ep: EndPoint,
    reply_ep: EndPoint,
    replies: Rc<RefCell<Replies>>,
}

/// What the client and its reply sink share: the ids handed out so far
/// and the answers that came back for them.
struct Replies {
    next_id: u64,
    answers: Vec<(u64, GpaAnswer)>,
}

struct ReplySink {
    replies: Rc<RefCell<Replies>>,
}

impl KernelSink for ReplySink {
    fn on_message(
        &mut self,
        _now_wall: SimTime,
        _node: NodeId,
        _src: EndPoint,
        _msg: Message,
        data: simos::Bytes,
    ) -> KernelOutput {
        if let Ok(envelope) = serde_json::from_slice::<AnswerEnvelope>(&data) {
            // The reply port is open to the network: keep the first
            // answer to an id this client sent and nothing else, so the
            // table never outgrows the queries asked.
            let mut replies = self.replies.borrow_mut();
            let asked = (1..replies.next_id).contains(&envelope.id);
            if asked && replies.answers.iter().all(|(id, _)| *id != envelope.id) {
                replies.answers.push((envelope.id, envelope.answer));
            }
        }
        KernelOutput {
            cost: cost::QUERY_ANSWER,
            ..Default::default()
        }
    }
}

impl QueryClient {
    /// Sets up a query client on `node` targeting the GPA on `gpa_node`.
    /// Installs the reply sink at [`QUERY_REPLY_PORT`].
    pub fn install(world: &mut World, node: NodeId, gpa_node: NodeId) -> QueryClient {
        let replies = Rc::new(RefCell::new(Replies {
            next_id: 1,
            answers: Vec::new(),
        }));
        world.install_sink(
            node,
            QUERY_REPLY_PORT,
            Box::new(ReplySink {
                replies: replies.clone(),
            }),
        );
        QueryClient {
            node,
            gpa_ep: EndPoint::new(world.network().node_ip(gpa_node), QUERY_PORT),
            reply_ep: EndPoint::new(world.network().node_ip(node), QUERY_REPLY_PORT),
            replies,
        }
    }

    /// Sends a query; the answer arrives later (simulated time must
    /// advance). Returns the query id for matching.
    pub fn send(&mut self, world: &mut World, query: GpaQuery) -> u64 {
        let id = {
            let mut replies = self.replies.borrow_mut();
            replies.next_id += 1;
            replies.next_id - 1
        };
        let envelope = QueryEnvelope {
            id,
            reply_to: self.reply_ep,
            query,
        };
        world.kernel_send(
            self.node,
            QUERY_REPLY_PORT,
            self.gpa_ep,
            0,
            serde_json::to_vec(&envelope).expect("queries serialize"),
        );
        id
    }

    /// The answer to query `id`, if it has arrived.
    pub fn answer(&self, id: u64) -> Option<GpaAnswer> {
        let replies = self.replies.borrow();
        let found = replies.answers.iter().find(|(aid, _)| *aid == id);
        found.map(|(_, a)| a.clone())
    }

    /// Number of answers received so far.
    pub fn answers_received(&self) -> usize {
        self.replies.borrow().answers.len()
    }
}
