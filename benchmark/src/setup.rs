//! Set-up: everything between "a seed" and "a verified server with a
//! connected client", run several times per run so `setup_s` is a median.

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;

use grepair_grammar::Grammar;
use grepair_hypergraph::Hypergraph;
use grepair_server::{IoMode, Server, ServerConfig, ServerHandle};
use grepair_store::{GraphStore, StoreRegistry, DEFAULT_NAMESPACE};

use crate::pipeline::{self, Compressed};
use crate::plan::{fnv, neighbor_query, Plan};
use crate::spec::{Counts, Workload};
use crate::trace::Tracer;
use crate::wire::Client;

/// The namespace the patch slice writes to. `default` holds the same
/// container and is never patched, so a read-only workload's reads never
/// pass through an overlay.
pub const HEAD: &str = "head";

/// An in-process server on an ephemeral loopback port.
pub struct Served {
    handle: ServerHandle,
    thread: JoinHandle<io::Result<()>>,
    pub addr: SocketAddr,
}

impl Served {
    pub fn start(registry: Arc<StoreRegistry>, io: IoMode) -> Result<Self, String> {
        let config = ServerConfig {
            threads: 1,
            io,
            ..ServerConfig::default()
        };
        let server = Server::bind(&config, registry, None).map_err(|e| format!("bind: {e}"))?;
        let handle = server.handle().map_err(|e| format!("server handle: {e}"))?;
        let addr = handle.addr();
        let thread = std::thread::Builder::new()
            .name("bench-server".into())
            .spawn(move || server.run())
            .map_err(|e| format!("spawn server: {e}"))?;
        Ok(Self {
            handle,
            thread,
            addr,
        })
    }

    /// Stop accepting and wait for the accept loop to end.
    pub fn stop(self) -> Result<(), String> {
        self.handle.stop();
        match self.thread.join() {
            Ok(result) => result.map_err(|e| format!("server: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

pub struct Prepared {
    pub graph: Hypergraph,
    pub compressed: Compressed,
    /// The decoded grammar (what the traced run builds bare indexes on).
    pub grammar: Arc<Grammar>,
    pub plan: Plan,
    pub registry: Arc<StoreRegistry>,
    /// The unpatched store behind the `default` namespace.
    pub base: Arc<GraphStore>,
    served: Served,
    pub client: Client,
    /// Mismatches found while verifying the set-up itself.
    pub failed: u64,
}

/// A client on `addr` whose session reads where the workload's reads go.
pub fn connect(addr: SocketAddr, w: &Workload) -> Result<Client, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    if w.reads_on_head {
        use_namespace(&mut client, HEAD)?;
    }
    Ok(client)
}

pub fn use_namespace(client: &mut Client, name: &str) -> Result<(), String> {
    let reply = client
        .ask(&format!("USE {name}"))
        .map_err(|e| format!("USE {name}: {e}"))?;
    if reply == format!("using {name}") {
        Ok(())
    } else {
        Err(format!("USE {name} answered {reply:?}"))
    }
}

/// `rounds` counts the warm-up round.
pub fn set_up(
    w: &Workload,
    counts: &Counts,
    rounds: usize,
    seed: u64,
    tr: &mut Tracer,
) -> Result<Prepared, String> {
    let s = tr.enter("datasets.generate");
    let graph = w.graph();
    tr.exit(s);
    let compressed = pipeline::compress(&graph, tr);
    let (grammar, derived) = pipeline::decompress(&compressed.container, tr)?;

    let mut failed = 0;
    // Lossless up to the node map: the one guarantee everything else rests on.
    if derived.edge_multiset_mapped(|v| compressed.node_map[v as usize]) != graph.edge_multiset() {
        failed += 1;
    }

    let mut plan = Plan::generate(&derived, w, counts, rounds, seed);
    let registry = Arc::new(StoreRegistry::new(pipeline::load(
        &compressed.container,
        tr,
    )?));
    registry
        .attach_store(HEAD, pipeline::load(&compressed.container, tr)?)
        .map_err(|e| e.to_string())?;
    let base = registry
        .store(DEFAULT_NAMESPACE)
        .map_err(|e| e.to_string())?;

    // The store against the oracle, in full and untimed: every node's two
    // neighbor lists, then every distinct query the streams will send
    // (compared as reply text, so wire ≡ in-process `Display` ≡ oracle).
    let oracle = &mut plan.oracle;
    for v in 0..base.total_nodes() as u32 {
        for q in [neighbor_query(0, v), neighbor_query(1, v)] {
            if base.query(&q).ok().as_deref() != Some(&oracle.base_answer(&q)) {
                failed += 1;
            }
        }
    }
    for q in plan
        .wire1
        .queries
        .iter()
        .chain(&plan.wire64.queries)
        .chain(&plan.reach)
        .chain(&plan.rpq)
    {
        if !oracle.knows(q) {
            let served = base
                .query(q)
                .map_or_else(|e| format!("error: {e}"), |a| a.to_string());
            if fnv(served.as_bytes()) != oracle.reply_digest(q) {
                failed += 1;
            }
        }
    }

    let served = Served::start(Arc::clone(&registry), IoMode::Threads)?;
    let client = connect(served.addr, w)?;
    Ok(Prepared {
        graph,
        compressed,
        grammar: Arc::new(grammar),
        plan,
        registry,
        base,
        served,
        client,
        failed,
    })
}

impl Prepared {
    pub fn tear_down(mut self) -> Result<(), String> {
        let bye = self.client.ask("QUIT").map_err(|e| format!("QUIT: {e}"))?;
        if bye != "bye" {
            return Err(format!("QUIT answered {bye:?}"));
        }
        self.served.stop()
    }
}
