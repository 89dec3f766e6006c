//! Command implementations for the `grepair` CLI.
//!
//! Everything that touches a `.g2g` goes through
//! [`grepair_store::GraphStore`], so the CLI inherits the store's zero-panic
//! guarantee: hostile bytes and out-of-range ids become error messages and a
//! non-zero exit code.

use std::io::{BufReader, BufWriter, Read, Write};

use crate::{compress_and_report, read_graph, read_graph_with_map, CliError, CompressOpts};
use grepair_datasets as datasets;
use grepair_hypergraph::{EdgeLabel, Hypergraph};
use grepair_store::{
    materialize, split_any_container, write_container, EdgePatch, GraphStore, GrepairError,
    StoreRegistry, VersionedStore, DEFAULT_NAMESPACE,
};

/// `grepair stats <graph>`.
pub fn stats(path: &str) -> Result<(), String> {
    let g = read_graph(path)?;
    let s = datasets::stats(&g);
    println!("|V|        {}", grepair_util::fmt::human_count(s.nodes as u64));
    println!("|E|        {}", grepair_util::fmt::human_count(s.edges as u64));
    println!("|Sigma|    {}", s.labels);
    println!("|[~FP]|    {}", grepair_util::fmt::human_count(s.fp_classes as u64));
    Ok(())
}

/// `--trace`: the compressor's phase wall times and exact work counters,
/// then where the container's bits went, one `key=value` line each on
/// stderr. The header, the three section modes and the rules add up to the
/// payload; `paper_bits` is the same grammar with every section a k²-tree.
fn print_trace(s: &grepair_core::CompressStats, size: &grepair_codec::SizeBreakdown) {
    for (key, ms) in [
        ("count_ms", s.count_ms),
        ("replace_ms", s.replace_ms),
        ("virtual_ms", s.virtual_ms),
        ("prune_ms", s.prune_ms),
        ("canonicalize_ms", s.canonicalize_ms),
        ("node_map_ms", s.node_map_ms),
    ] {
        eprintln!("{key}={ms:.3}");
    }
    for (key, count) in [
        ("group_edges_scanned", s.group_edges_scanned),
        ("pair_attempts", s.pair_attempts),
        ("rank_rejects", s.rank_rejects),
        ("prov_nodes_visited", s.prov_nodes_visited),
    ] {
        eprintln!("{key}={count}");
    }
    for (key, count) in [
        ("adjacency_sections", size.adjacency.sections),
        ("adjacency_bits", size.adjacency.bits),
        ("incidence_sections", size.incidence.sections),
        ("incidence_bits", size.incidence.bits),
        ("list_sections", size.list.sections),
        ("list_bits", size.list.bits),
        ("rule_bits", size.rule_bits),
        ("header_bits", size.header_bits),
        ("paper_bits", size.paper_bits),
    ] {
        eprintln!("{key}={count}");
    }
}

/// `grepair compress <graph> -o <out>`: compress with gRePair and write the
/// `.g2g` container.
pub fn compress_file(input: &str, opts: &CompressOpts) -> Result<(), String> {
    let (g, originals) = read_graph_with_map(input)?;
    let out = compress_and_report(&g, &opts.config);
    let encoded = grepair_codec::encode(&out.grammar);
    if opts.trace {
        print_trace(&out.stats, &encoded.breakdown);
    }
    let file = write_container(&encoded.bytes, encoded.bit_len);
    std::fs::write(&opts.output, &file).map_err(|e| format!("{}: {e}", opts.output))?;
    println!(
        "wrote {} (backend grepair, {} bytes, {:.3} bits/edge)",
        opts.output,
        file.len(),
        grepair_util::fmt::bits_per_edge(file.len() as u64 * 8, g.num_edges() as u64)
    );
    if let Some(map_path) = &opts.map {
        // Compose the compressor's derived→dense map with the parser's
        // dense→original renumbering, so each line reads
        // `<derived id> <label the input file used>` and `decompress --map`
        // can relabel without any second sidecar.
        let mut text = String::new();
        for (derived, dense) in out.node_map.iter().enumerate() {
            let original = originals
                .get(*dense as usize)
                .copied()
                .ok_or_else(|| format!("{map_path}: node map references unknown dense id {dense}"))?;
            text.push_str(&format!("{derived} {original}\n"));
        }
        std::fs::write(map_path, text).map_err(|e| format!("{map_path}: {e}"))?;
        println!("wrote node map {map_path}");
    }
    Ok(())
}

/// The `.g2g` container of a compression's grammar.
fn container_of(out: &grepair_core::CompressedGraph) -> Vec<u8> {
    let encoded = grepair_codec::encode(&out.grammar);
    write_container(&encoded.bytes, encoded.bit_len)
}

/// Load a `.g2g` through the store, prefixing non-IO errors with the path
/// (IO errors already carry it).
fn open_store(path: &str) -> Result<GraphStore, String> {
    GraphStore::open(path).map_err(|e| match e {
        GrepairError::Io { .. } => e.to_string(),
        other => format!("{path}: {other}"),
    })
}

/// Read a `derived original` node-map file written by `compress --map`.
fn read_node_map(path: &str, nodes: usize) -> Result<Vec<u64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut map = vec![None; nodes];
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let parse = |tok: Option<&str>| -> Result<u64, String> {
            tok.ok_or_else(|| format!("{path}:{}: expected two columns", i + 1))?
                .parse()
                .map_err(|e| format!("{path}:{}: {e}", i + 1))
        };
        let derived = parse(it.next())? as usize;
        let original = parse(it.next())?;
        if let Some(extra) = it.next() {
            return Err(format!("{path}:{}: unexpected trailing token {extra:?}", i + 1));
        }
        if derived >= nodes {
            return Err(format!(
                "{path}:{}: derived id {derived} out of range (graph has {nodes} nodes)",
                i + 1
            ));
        }
        if map[derived].is_some() {
            return Err(format!("{path}:{}: duplicate mapping for derived id {derived}", i + 1));
        }
        map[derived] = Some(original);
    }
    map.into_iter()
        .enumerate()
        .map(|(v, m)| m.ok_or_else(|| format!("{path}: no mapping for derived id {v}")))
        .collect()
}

/// Decode a container file back into `val(G)`, prefixing errors with the
/// path. No query index is built: this is the `decompress` path.
fn open_graph(input: &str) -> Result<Hypergraph, String> {
    let at_input = |e: &dyn std::fmt::Display| format!("{input}: {e}");
    let file = std::fs::read(input).map_err(|e| at_input(&e))?;
    let (_, bit_len, payload) = split_any_container(&file).map_err(|e| at_input(&e))?;
    let grammar = grepair_codec::decode(payload, bit_len).map_err(|e| at_input(&e))?;
    Ok(grammar.derive())
}

/// `grepair decompress <in> -o <out> [--map FILE]`: write `val(G)`.
pub fn decompress_file(input: &str, output: &str, map: Option<&str>) -> Result<(), String> {
    let derived = open_graph(input)?;
    let relabel: Option<Vec<u64>> = map
        .map(|path| read_node_map(path, derived.num_nodes()))
        .transpose()?;
    let label_of = |v: u32| -> u64 {
        match &relabel {
            Some(m) => m[v as usize],
            None => v as u64,
        }
    };
    // Pairs for single-label rank-2 graphs, triples otherwise.
    let single_label = derived
        .edges()
        .all(|e| e.label == EdgeLabel::Terminal(0) && e.att.len() == 2);
    let mut text = String::new();
    for e in derived.edges() {
        if single_label {
            text.push_str(&format!("{} {}\n", label_of(e.att[0]), label_of(e.att[1])));
        } else {
            text.push_str(&format!(
                "{} {} {}\n",
                label_of(e.att[0]),
                e.label.index(),
                label_of(e.att[1])
            ));
        }
    }
    std::fs::write(output, text).map_err(|e| format!("{output}: {e}"))?;
    println!(
        "decompressed {} -> {} (backend grepair, {} nodes, {} edges)",
        input,
        output,
        derived.num_nodes(),
        derived.num_edges()
    );
    Ok(())
}

/// `grepair query ...`.
pub fn query(args: &[String]) -> Result<(), String> {
    let id = |tok: Option<&String>, what: &str| -> Result<u64, String> {
        tok.ok_or_else(|| format!("missing {what}"))?
            .parse()
            .map_err(|e| format!("bad {what}: {e}"))
    };
    match args.first().map(String::as_str) {
        Some("reach") => {
            let store = open_store(args.get(1).ok_or("missing g2g file")?)?;
            let s = id(args.get(2), "s")?;
            let t = id(args.get(3), "t")?;
            let reachable = store.reachable(s, t).map_err(|e| e.to_string())?;
            println!("{}", if reachable { "reachable" } else { "not reachable" });
            Ok(())
        }
        Some("neighbors") => {
            let store = open_store(args.get(1).ok_or("missing g2g file")?)?;
            let v = id(args.get(2), "v")?;
            let out = store.out_neighbors(v).map_err(|e| e.to_string())?;
            let inn = store.in_neighbors(v).map_err(|e| e.to_string())?;
            println!("out: {out:?}");
            println!("in:  {inn:?}");
            Ok(())
        }
        Some("components") => {
            let store = open_store(args.get(1).ok_or("missing g2g file")?)?;
            println!("{}", store.components());
            Ok(())
        }
        Some("rpq") => {
            let store = open_store(args.get(1).ok_or("missing g2g file")?)?;
            let s = id(args.get(2), "s")?;
            let t = id(args.get(3), "t")?;
            if args.len() < 5 {
                return Err("missing rpq pattern atoms".into());
            }
            let pattern = args[4..].join(" ");
            let matched = store.rpq(&pattern, s, t).map_err(|e| e.to_string())?;
            println!("{}", if matched { "match" } else { "no match" });
            Ok(())
        }
        other => Err(format!("unknown query {other:?}")),
    }
}

/// Count the request lines (non-blank, non-comment) in a reader.
fn count_request_lines(reader: &mut impl std::io::BufRead) -> std::io::Result<u64> {
    let mut line = Vec::new();
    let mut count = 0u64;
    loop {
        line.clear();
        if reader.read_until(b'\n', &mut line)? == 0 {
            return Ok(count);
        }
        let trimmed = line.trim_ascii();
        if !trimmed.is_empty() && !trimmed.starts_with(b"#") {
            count += 1;
        }
    }
}

/// `grepair store serve-file ...` (offline) and `grepair store serve ...`
/// (the TCP front end).
///
/// `serve <in.g2g> [--addr HOST:PORT] [--threads N] [--batch N]
/// [--max-line N] [--attach NAME=PATH]... [--memory-budget BYTES]
/// [--io epoll|threads]`
/// delegates to `grepair-server`: it binds, prints one
/// `listening <addr> ...` line, and speaks the wire protocol of DESIGN.md
/// §6/§8 (the serve-file query plane plus the `PING`/`INFO`/`STATS`/
/// `USE`/`ATTACH`/`DETACH`/`LIST`/`RELOAD`/`PATCH`/`VERSIONS`/`QUIT`
/// admin plane and SIGHUP hot reload) until killed. Each `--attach`
/// registers a further
/// namespace, opened lazily on first query; `--memory-budget` caps
/// resident container bytes with LRU eviction (DESIGN.md §8).
///
/// `serve-file <in.g2g> <queries.txt> [--batch N] [--threads N]
/// [--attach NAME=PATH]... [--memory-budget BYTES]` drives
/// the **same session engine** from a file instead of a socket — the two
/// front ends are byte-identical on the same input by construction, every
/// failure mode included (unknown verbs, out-of-range ids, non-UTF-8
/// bytes, oversized lines). One reply line per request line, in input
/// order; a bad request never stops the stream. The file is streamed (at
/// most `--batch` parsed lines in memory), `--threads N` sizes the worker
/// pool batches fan out on (`0` = one per available core), and serving
/// statistics go to stderr. A missing final newline is tolerated: file
/// input is line-oriented, so the last line counts even unterminated
/// (over a raw socket the same bytes would be a mid-line disconnect and
/// be discarded — see DESIGN.md §6.1). The admin plane works offline too
/// (a scripted `RELOAD` swaps generations mid-file); a `QUIT` ends the
/// run like it ends a connection, with a stderr warning naming how many
/// request lines it left unanswered.
///
/// `patch <in.g2g> <patches.txt> -o <out.g2g>` replays a patch file (one
/// `ADD|DEL <s> <label> <t>` per line — the wire protocol's `PATCH`
/// grammar, DESIGN.md §12) against the container offline, materializes the
/// resulting head version, and recompresses it. `versions <in.g2g>
/// <patches.txt>` is the dry run: same replay, but it only prints the
/// retained-version summary line, byte-identical to a live server's
/// `VERSIONS` reply after the same patches.
pub fn store_cmd(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("serve") => Ok(grepair_server::run_cli(&args[1..])?),
        Some("serve-file") => {
            let g2g = args.get(1).ok_or("missing g2g file")?;
            let queries_path = args.get(2).ok_or("missing queries file")?;
            crate::validate_value_flags(
                &args[3..],
                &[
                    "--batch",
                    "--threads",
                    "--attach",
                    "--memory-budget",
                    "--shed-watermark",
                    "--failpoints",
                    "--fail-seed",
                ],
            )?;
            // The chaos-twin surface (DESIGN.md §10): the same failpoint
            // and shedding knobs as `store serve`, so a fault schedule
            // replays identically through both front ends.
            grepair_util::fail::init_from_env()?;
            if let Some(seed) = crate::flag_value(&args[3..], "--fail-seed") {
                let seed: u64 = seed.parse().map_err(|e| format!("bad --fail-seed: {e}"))?;
                if !grepair_util::fail::enabled() {
                    return Err(format!("--fail-seed: {}", grepair_util::fail::DISABLED).into());
                }
                grepair_util::fail::set_seed(seed);
            }
            if let Some(specs) = crate::flag_value(&args[3..], "--failpoints") {
                grepair_util::fail::configure_list(&specs)
                    .map_err(|e| format!("bad --failpoints: {e}"))?;
            }
            let batch_size: usize = match crate::flag_value(&args[3..], "--batch") {
                Some(raw) => raw.parse().map_err(|e| format!("bad --batch: {e}"))?,
                None => 1024,
            };
            if batch_size == 0 {
                return Err("--batch must be at least 1".into());
            }
            let threads: usize = match crate::flag_value(&args[3..], "--threads") {
                Some(raw) => raw.parse().map_err(|e| format!("bad --threads: {e}"))?,
                None => 1,
            };
            // Open through the path-recording constructor — exactly what
            // `grepair-server` does — so bare RELOAD, `--attach` tenants,
            // and `--memory-budget` eviction behave byte-identically
            // across the socket and file front ends.
            let registry = StoreRegistry::open(g2g).map_err(|e| match e {
                GrepairError::Io { .. } => e.to_string(),
                other => format!("{g2g}: {other}"),
            })?;
            grepair_server::apply_tenancy_flags(&registry, &args[3..])?;
            let pool = grepair_server::WorkerPool::new(threads);
            if let Some(raw) = crate::flag_value(&args[3..], "--shed-watermark") {
                let watermark: usize =
                    raw.parse().map_err(|e| format!("bad --shed-watermark: {e}"))?;
                pool.set_shed_watermark(watermark);
            }
            let file = std::fs::File::open(queries_path)
                .map_err(|e| format!("{queries_path}: {e}"))?;
            // Chaining one extra newline terminates an unterminated final
            // line; for well-formed files it is a trailing blank line,
            // which the protocol skips without a reply.
            let mut reader = file.chain(&b"\n"[..]);
            let stdout = std::io::stdout();
            let mut out = BufWriter::new(stdout.lock());
            let opts = grepair_server::SessionOpts {
                batch: batch_size,
                reload_path: Some(g2g.clone()),
                ..Default::default()
            };
            let summary =
                grepair_server::serve_session(&registry, &pool, &mut reader, &mut out, &opts)
                    .map_err(|e| format!("{queries_path}: {e}"))?;
            out.flush().map_err(|e| format!("stdout: {e}"))?;
            // The admin plane works offline too, so a QUIT line ends the
            // session like it ends a connection — but a replayed log that
            // stops mid-file deserves a visible trace, not silence. Every
            // request line gets exactly one reply, so what the file holds
            // beyond the replies is what QUIT left (the session reads
            // ahead, so the reader's position says nothing).
            let requests = std::fs::File::open(queries_path)
                .and_then(|file| count_request_lines(&mut BufReader::new(file)))
                .map_err(|e| format!("{queries_path}: {e}"))?;
            let skipped = requests.saturating_sub(summary.served);
            if skipped > 0 {
                eprintln!("warning: QUIT left {skipped} request lines unanswered");
            }
            eprintln!(
                "served {} queries ({} errors) from {g2g}: {}",
                summary.served,
                summary.errors,
                registry.stats_for(DEFAULT_NAMESPACE).map_err(|e| e.to_string())?
            );
            Ok(())
        }
        Some("patch") => {
            let input = args.get(1).ok_or("missing g2g file")?;
            let patches_path = args.get(2).ok_or("missing patches file")?;
            crate::validate_value_flags(&args[3..], &["-o"]).map_err(CliError::Usage)?;
            let output = crate::flag_value(&args[3..], "-o").ok_or("missing -o OUTPUT")?;
            let (versioned, summaries) = replay_patches(input, patches_path)?;
            let g = materialize(&versioned.head()).map_err(|e| format!("{input}: {e}"))?;
            let compressed = grepair_core::compress(&g, &grepair_core::GRePairConfig::default());
            let file = container_of(&compressed);
            std::fs::write(&output, &file).map_err(|e| format!("{output}: {e}"))?;
            let last = summaries.last().expect("v0 always present");
            println!(
                "wrote {} (backend grepair, {} bytes): v{} materialized, {} nodes, {} edges, +{}-{}",
                output,
                file.len(),
                last.version,
                g.num_nodes(),
                g.num_edges(),
                last.added,
                last.removed
            );
            Ok(())
        }
        Some("versions") => {
            let input = args.get(1).ok_or("missing g2g file")?;
            let patches_path = args.get(2).ok_or("missing patches file")?;
            crate::validate_value_flags(&args[3..], &[]).map_err(CliError::Usage)?;
            let (_, summaries) = replay_patches(input, patches_path)?;
            // Exactly the wire protocol's VERSIONS reply line, so scripts
            // can diff this dry run against a live server's answer.
            let head = summaries.last().expect("v0 always present").version;
            let mut line = format!("versions={} head=v{head}", summaries.len());
            for s in &summaries {
                line.push_str(&format!(" {s}"));
            }
            println!("{line}");
            Ok(())
        }
        other => Err(format!("unknown store command {other:?}").into()),
    }
}

/// Shared front half of `store patch` / `store versions`: open the
/// container, replay every patch line against a fresh version log, and
/// return the log plus its retained-version summaries. Patch files hold
/// one `ADD|DEL <s> <label> <t>` record per line — the wire protocol's
/// `PATCH` argument grammar — with blank lines and `#` comments skipped;
/// errors carry the file position, and a rejected patch (duplicate add,
/// missing del, self-loop) aborts the replay with nothing written.
fn replay_patches(
    input: &str,
    patches_path: &str,
) -> Result<(VersionedStore, Vec<grepair_store::VersionSummary>), String> {
    let store = open_store(input)?;
    let versioned = VersionedStore::new(std::sync::Arc::new(store))
        .map_err(|e| format!("{input}: {e}"))?;
    let text =
        std::fs::read_to_string(patches_path).map_err(|e| format!("{patches_path}: {e}"))?;
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let patch =
            EdgePatch::parse(line).map_err(|e| format!("{patches_path}:{}: {e}", i + 1))?;
        versioned.apply(patch).map_err(|e| format!("{patches_path}:{}: {e}", i + 1))?;
    }
    let summaries = versioned.summaries();
    Ok((versioned, summaries))
}

/// `grepair generate <kind> [n] [seed] -o <out>`.
pub fn generate(args: &[String]) -> Result<(), String> {
    let kind = args.first().ok_or("missing dataset kind")?;
    let positional: Vec<&String> = args[1..]
        .iter()
        .take_while(|a| !a.starts_with('-'))
        .collect();
    let n: usize = positional
        .first()
        .map(|s| s.parse().map_err(|e| format!("bad n: {e}")))
        .transpose()?
        .unwrap_or(10_000);
    let seed: u64 = positional
        .get(1)
        .map(|s| s.parse().map_err(|e| format!("bad seed: {e}")))
        .transpose()?
        .unwrap_or(42);
    let output = crate::flag_value(args, "-o").ok_or("missing -o OUTPUT")?;

    let g: Hypergraph = match kind.as_str() {
        "ttt" => datasets::ttt::game_graph(),
        "types" => datasets::rdf::types_star(n, (n / 500).max(4), seed),
        "pa" => datasets::network::preferential_attachment(n, 4, seed),
        "er" => datasets::network::erdos_renyi(n, 5 * n, seed),
        "coauth" => datasets::network::co_authorship(n, 2 * n / 3, 6, seed),
        "web" => datasets::network::web_copy(n, 6, 0.6, seed),
        "chess" => datasets::version::chess_like(n, 12, seed),
        "versions" => {
            let h = datasets::version::CoauthorshipHistory::generate(8, n / 100 + 5, n / 4 + 10, n / 50 + 1, seed);
            h.version_graph(7)
        }
        other => return Err(format!("unknown dataset kind {other:?}")),
    };
    let labeled = g.edges().any(|e| e.label != EdgeLabel::Terminal(0));
    let mut text = String::new();
    if labeled {
        for e in g.edges() {
            text.push_str(&format!("{} {} {}\n", e.att[0], e.label.index(), e.att[1]));
        }
    } else {
        for e in g.edges() {
            text.push_str(&format!("{} {}\n", e.att[0], e.att[1]));
        }
    }
    std::fs::write(&output, text).map_err(|e| format!("{output}: {e}"))?;
    println!("wrote {output}: {} nodes, {} edges", g.num_nodes(), g.num_edges());
    Ok(())
}
