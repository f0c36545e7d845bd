//! `address-reuse` — command-line front end to the reproduction.
//!
//! ```text
//! address-reuse study [--seed N] [--scale N] [--out DIR]
//!                     [--metrics-out FILE] [--quick]
//!     run the full measurement campaign; write the reused-address list,
//!     the summary, every paper exhibit (exhibits.md, one TSV per plotted
//!     series under exhibits/) and the universe inventory into DIR
//!     (default .).
//!     --metrics-out dumps the RunReport (counters, phase spans, events)
//!     as JSON; --quick uses the small test configuration (CI smoke)
//!
//! address-reuse greylist --feed FILE --reused FILE [--category CAT]
//!     split a plain-format feed into FILE.block / FILE.grey using a
//!     published reused-address list (§6 policy)
//!
//! address-reuse check --feed FILE ADDRESS...
//!     pre-assignment hygiene: is ADDRESS on the feed right now?
//!
//! address-reuse serve [--seed N] [--scale N] [--quick] [--addr HOST:PORT]
//!                     [--shards N] [--selftest] [--chaos INTENSITY]
//!     run a study, compile it into a reputation snapshot and serve
//!     verdicts over the length-prefixed TCP protocol. --selftest binds an
//!     ephemeral port, replays a fixed seeded 1000-query batch through a
//!     TCP client, checks the verdict checksum against the in-process
//!     batch API, prints the serve health report, and exits (the CI smoke
//!     path). --chaos arms the seeded serving-path fault plan at the given
//!     intensity (worker panics, stalls, latency spikes) — the supervisor
//!     and retry policy must ride it out
//!
//! address-reuse stats --addr HOST:PORT [--watch SECS]
//!     scrape a running server's live telemetry plane over the wire
//!     (`OP_STATS`): logical tick, per-shard queue depths, windowed
//!     rates, SLO state, trace digest. --watch re-scrapes every SECS
//!     seconds until killed (the tick is a logical query-ordinal clock,
//!     so an idle server's scrape is unchanged between polls)
//!
//! address-reuse store ingest --dir DIR [--seed N] [--scale N] [--quick]
//!                            [--days N]
//!     run (or resume) the study through the persistent ar-store at DIR,
//!     freeze the daily blocklist snapshot records the collection pulled,
//!     and store the delta-encoded chain of daily reputation snapshot
//!     generations. Re-running is incremental: completed study phases
//!     load from the store instead of replaying, already-frozen records
//!     are skipped, and the resulting files are byte-identical to a
//!     cold full rebuild
//!
//! address-reuse store verify --dir DIR
//!     re-verify every checksum in the store (freezer records, keyed
//!     values, delta frames); non-zero exit when anything is corrupt
//!
//! address-reuse store compact --dir DIR
//!     drop corrupt freezer records and torn tails, rewriting data +
//!     index atomically
//!
//! address-reuse store delta --dir DIR
//!     print the stored snapshot delta chain (generations, change
//!     counts, checksums) and check its continuity
//!
//! address-reuse catalog | questionnaire
//!     print the Table 2 catalogue / the Appendix C survey instrument
//! ```

use address_reuse::{
    parse_reused_list, render_reused_list, render_summary, render_universe_json,
    reused_address_list, split_feed, write_exhibits, GreylistPolicy, Study, StudyConfig,
};
use ar_blocklists::{build_catalog, parse_plain_tolerant, render_plain};
use ar_simnet::config::UniverseConfig;
use ar_simnet::malice::MaliceCategory;
use ar_simnet::rng::{mix64, Seed, GOLDEN_GAMMA};
use std::net::Ipv4Addr;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!(
            "usage: address-reuse <study|greylist|check|serve|stats|store|catalog|questionnaire> [options]"
        );
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "study" => cmd_study(rest),
        "greylist" => cmd_greylist(rest),
        "check" => cmd_check(rest),
        "serve" => cmd_serve(rest),
        "stats" => cmd_stats(rest),
        "store" => cmd_store(rest),
        "catalog" => cmd_catalog(),
        "questionnaire" => {
            println!("{}", ar_survey::render_questionnaire());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}; try --help")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The value of `name` parsed as `T`; `None` when the flag is absent.
fn parsed_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String>
where
    T::Err: std::fmt::Display,
{
    flag_value(args, name)
        .map(|v| v.parse().map_err(|e| format!("bad {name}: {e}")))
        .transpose()
}

/// The study a command runs, with a label for its progress line:
/// `quick_test` at `--seed` (default 2020) when `quick`, otherwise the
/// paper's configuration at `--scale` (default 2000).
fn study_config(args: &[String], quick: bool) -> Result<(StudyConfig, String), String> {
    let seed = parsed_flag(args, "--seed")?.unwrap_or(2020u64);
    let scale = parsed_flag(args, "--scale")?.unwrap_or(2000u32);
    Ok(if quick {
        (
            StudyConfig::quick_test(Seed(seed)),
            format!("quick study (seed {seed})"),
        )
    } else {
        (
            StudyConfig::paper(Seed(seed), UniverseConfig::at_scale(scale)),
            format!("study (seed {seed}, scale 1:{scale})"),
        )
    })
}

fn cmd_study(args: &[String]) -> Result<(), String> {
    let (config, label) = study_config(args, args.iter().any(|a| a == "--quick"))?;
    let out = PathBuf::from(flag_value(args, "--out").unwrap_or_else(|| ".".into()));
    let metrics_out = flag_value(args, "--metrics-out").map(PathBuf::from);

    eprintln!("running {label}…");
    let study = Study::run(config);

    if let Some(path) = &metrics_out {
        let report = study
            .run_report
            .as_ref()
            .expect("metrics collection is on by default");
        let json = report.to_json();
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, json).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "wrote {} ({} events, {} counters)",
            path.display(),
            report.total_events(),
            report.counters.len()
        );
    }

    let summary = render_summary(&study);
    print!("{summary}");
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    std::fs::write(out.join("summary.txt"), &summary).map_err(|e| e.to_string())?;

    let list = reused_address_list(&study);
    std::fs::write(out.join("reused_addresses.txt"), render_reused_list(&list))
        .map_err(|e| e.to_string())?;
    let exhibits = write_exhibits(&study, &out).map_err(|e| e.to_string())?;
    let inventory = render_universe_json(&study.universe.summary());
    std::fs::write(out.join("universe.json"), inventory).map_err(|e| e.to_string())?;
    eprintln!(
        "wrote {}, {} ({} reused addresses) and {} ({exhibits} exhibits)",
        out.join("summary.txt").display(),
        out.join("reused_addresses.txt").display(),
        list.len(),
        out.join("exhibits.md").display(),
    );
    Ok(())
}

fn parse_category(name: &str) -> Result<MaliceCategory, String> {
    MaliceCategory::ALL
        .into_iter()
        .find(|c| c.name() == name)
        .ok_or_else(|| {
            format!(
                "unknown category {name:?}; one of: {}",
                MaliceCategory::ALL.map(|c| c.name()).join(", ")
            )
        })
}

/// Parse a feed damage-tolerantly: a corrupt row costs that row, not the
/// command. Damage is counted through the ar-obs feed-damage channel and
/// summarised on stderr.
fn read_feed_tolerant(feed_path: &str, feed_text: &str) -> Vec<Ipv4Addr> {
    let parsed = parse_plain_tolerant(feed_text);
    if !parsed.is_clean() {
        let obs = ar_obs::Obs::new();
        parsed.record_obs(&obs, feed_path);
        for event in &obs.report().events {
            eprintln!("warning: {}", event.detail);
        }
    }
    parsed.addrs
}

fn cmd_greylist(args: &[String]) -> Result<(), String> {
    let feed_path = flag_value(args, "--feed").ok_or("--feed FILE required")?;
    let reused_path = flag_value(args, "--reused").ok_or("--reused FILE required")?;
    let category = flag_value(args, "--category")
        .map(|c| parse_category(&c))
        .transpose()?
        .unwrap_or(MaliceCategory::Spam);

    let feed_text = std::fs::read_to_string(&feed_path).map_err(|e| format!("{feed_path}: {e}"))?;
    let members = read_feed_tolerant(&feed_path, &feed_text);
    let reused_text =
        std::fs::read_to_string(&reused_path).map_err(|e| format!("{reused_path}: {e}"))?;
    let reused = parse_reused_list(&reused_text)?;

    // A synthetic meta of the requested category carries the policy role.
    let meta = build_catalog()
        .into_iter()
        .find(|m| m.category == category)
        .ok_or("catalogue has no list of that category")?;

    let split = split_feed(&GreylistPolicy::default(), &meta, members, &reused);
    let block_path = format!("{feed_path}.block");
    let grey_path = format!("{feed_path}.grey");
    std::fs::write(&block_path, render_plain("hard-block", &split.block))
        .map_err(|e| e.to_string())?;
    std::fs::write(&grey_path, render_plain("greylist", &split.greylist))
        .map_err(|e| e.to_string())?;
    println!(
        "{}: {} block, {} greylist ({:.1}% of the feed is reused space)",
        feed_path,
        split.block.len(),
        split.greylist.len(),
        100.0 * split.greylist_share()
    );
    println!("wrote {block_path} and {grey_path}");
    Ok(())
}

fn cmd_check(args: &[String]) -> Result<(), String> {
    let feed_path = flag_value(args, "--feed").ok_or("--feed FILE required")?;
    let feed_text = std::fs::read_to_string(&feed_path).map_err(|e| format!("{feed_path}: {e}"))?;
    let members: std::collections::BTreeSet<Ipv4Addr> = read_feed_tolerant(&feed_path, &feed_text)
        .into_iter()
        .collect();

    let addresses: Vec<&String> = args.iter().skip_while(|a| *a != "--feed").skip(2).collect();
    if addresses.is_empty() {
        return Err("no addresses to check".into());
    }
    let mut tainted = 0;
    for raw in addresses {
        let ip: Ipv4Addr = raw
            .parse()
            .map_err(|e| format!("bad address {raw:?}: {e}"))?;
        if members.contains(&ip) {
            println!("{ip}\tTAINTED — do not assign");
            tainted += 1;
        } else {
            println!("{ip}\tclean");
        }
    }
    if tainted > 0 {
        Err(format!("{tainted} candidate address(es) are listed"))
    } else {
        Ok(())
    }
}

/// The fixed seeded query mix the selftest (and the CI smoke job) replay:
/// alternating draws from the snapshot's own listed addresses and a
/// uniform u32 scan, deterministic in `seed`.
fn selftest_queries(seed: Seed, listed: &[u32], n: usize) -> Vec<u32> {
    let mut queries = Vec::with_capacity(n);
    let mut state = seed.fork("serve-selftest").0;
    for i in 0..n {
        // SplitMix64 stream: the query log depends only on the seed.
        state = state.wrapping_add(GOLDEN_GAMMA);
        let z = mix64(state);
        if i % 2 == 0 && !listed.is_empty() {
            queries.push(listed[(z as usize) % listed.len()]);
        } else {
            queries.push(z as u32);
        }
    }
    queries
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let selftest = args.iter().any(|a| a == "--selftest");
    let (config, label) = study_config(args, selftest || args.iter().any(|a| a == "--quick"))?;
    let seed = config.seed;
    let shards = parsed_flag(args, "--shards")?.unwrap_or(4usize);
    let chaos = parsed_flag::<f64>(args, "--chaos")?;
    let addr = flag_value(args, "--addr").unwrap_or_else(|| {
        if selftest {
            "127.0.0.1:0".into()
        } else {
            "127.0.0.1:4780".into()
        }
    });

    eprintln!("building snapshot from {label}…");
    let study = Study::run(config);
    let snapshot = address_reuse::reputation_snapshot(&study, 1, GreylistPolicy::default());
    let listed: Vec<u32> = snapshot.listed_addresses().as_raw().to_vec();
    eprintln!(
        "snapshot generation 1: {} addresses, {} postings",
        listed.len(),
        snapshot.posting_count()
    );

    let obs = ar_obs::Obs::new();
    let mut options = ar_serve::ServeOptions::default();
    if let Some(intensity) = chaos {
        eprintln!(
            "chaos fault plan armed: seed {}, intensity {intensity}",
            seed.0
        );
        options.faults = Some(ar_faults::ServeFaultPlan::new(
            seed.fork("serve-chaos"),
            intensity,
        ));
    }
    let server = ar_serve::ReputationServer::with_options(snapshot, shards, obs, options);
    let listener = std::net::TcpListener::bind(&addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let handle = server.serve(listener).map_err(|e| e.to_string())?;
    eprintln!("serving on {} with {shards} shard(s)", handle.addr());

    if selftest {
        let queries = selftest_queries(seed, &listed, 1000);
        // Under an armed chaos plan workers may panic mid-connection;
        // the seeded retry policy rides out the supervisor restarts.
        let policy = if chaos.is_some() {
            ar_serve::RetryPolicy::resilient(seed.fork("selftest-retry"))
        } else {
            ar_serve::RetryPolicy::off()
        };
        let mut client = ar_serve::Client::connect_with(handle.addr(), policy)
            .map_err(|e| format!("connect: {e}"))?;
        let over_tcp = client.query(&queries).map_err(|e| format!("query: {e}"))?;
        let tcp_sum = ar_serve::checksum_verdicts(&over_tcp);
        let in_process = server.verdict_batch(&queries);
        let local_sum = ar_serve::checksum_verdicts(&in_process);
        let summary =
            ar_serve::LatencySummary::from_report(&server.obs().report(), "serve.frame_micros");
        println!(
            "serve selftest: {} queries, latency {}",
            queries.len(),
            summary.render()
        );
        println!("verdict checksum (tcp):        {tcp_sum:#018x}");
        println!("verdict checksum (in-process): {local_sum:#018x}");
        // Live telemetry scrape over the wire: the logical tick must
        // have advanced past both query batches, and the cumulative
        // stats counters must agree with the server's own registry.
        let stats = client.stats().map_err(|e| format!("stats scrape: {e}"))?;
        println!("stats: {}", stats.render());
        if stats.tick < queries.len() as u64 {
            return Err(format!(
                "stats tick {} below the {} queries already answered",
                stats.tick,
                queries.len()
            ));
        }
        if chaos.is_none()
            && stats.counter("serve.queries") != server.obs().report().counters["serve.queries"]
        {
            return Err("OP_STATS counters disagree with the run report".into());
        }
        // Capture health before shutdown flips the state to Draining.
        let report = server.health_report();
        handle.shutdown();
        println!("{}", report.render());
        if !report.is_clean() && chaos.is_none() {
            return Err("serve health report is not clean after selftest".into());
        }
        if tcp_sum == local_sum {
            println!("selftest ok");
            Ok(())
        } else {
            Err("verdict checksum mismatch between TCP and in-process paths".into())
        }
    } else {
        // Serve until killed; the acceptor and shard workers do the work.
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let addr = flag_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:4780".into());
    let watch = parsed_flag::<u64>(args, "--watch")?;
    let mut client =
        ar_serve::Client::connect(addr.parse().map_err(|e| format!("bad --addr: {e}"))?)
            .map_err(|e| format!("connect {addr}: {e}"))?;
    loop {
        let frame = client.stats().map_err(|e| format!("stats scrape: {e}"))?;
        println!("{}", frame.render());
        match watch {
            // A logical-clock poll: an idle server prints the same line.
            Some(secs) => std::thread::sleep(std::time::Duration::from_secs(secs.max(1))),
            None => return Ok(()),
        }
    }
}

/// All collection days across the study's periods, in order.
fn collection_days(study: &Study) -> Vec<ar_simnet::time::SimTime> {
    study
        .config
        .periods
        .iter()
        .flat_map(|p| p.days_iter())
        .collect()
}

fn cmd_store(args: &[String]) -> Result<(), String> {
    let Some(action) = args.first() else {
        return Err("usage: address-reuse store <ingest|verify|compact|delta> --dir DIR".into());
    };
    let rest = &args[1..];
    let dir = PathBuf::from(flag_value(rest, "--dir").ok_or("--dir DIR required")?);
    match action.as_str() {
        "ingest" => store_ingest(&dir, rest),
        "verify" => store_verify(&dir),
        "compact" => store_compact(&dir),
        "delta" => store_delta(&dir),
        other => Err(format!("unknown store action {other:?}")),
    }
}

fn store_ingest(dir: &std::path::Path, args: &[String]) -> Result<(), String> {
    use ar_blocklists::{daily_snapshots, encode_snapshot_record};
    use ar_store::{Column, SnapshotDelta, Store, StoreKey};

    let (mut config, _) = study_config(args, args.iter().any(|a| a == "--quick"))?;
    let day_cap = parsed_flag(args, "--days")?.unwrap_or(usize::MAX);
    config.store = Some(dir.join("study"));
    eprintln!("running study through the store at {}…", dir.display());
    let study = Study::run(config);
    let resume_hits = study
        .run_report
        .as_ref()
        .and_then(|r| r.counters.get("store.resume_hits").copied())
        .unwrap_or(0);

    let obs = ar_obs::Obs::new();
    let (mut store, open_report) =
        Store::open(dir, &obs).map_err(|e| format!("open store: {e}"))?;
    if open_report.recovered > 0 || open_report.dropped_entries > 0 {
        eprintln!(
            "freezer healed on open: {} recovered, {} dropped",
            open_report.recovered, open_report.dropped_entries
        );
    }

    // Freeze the daily snapshot records in deterministic (day, list)
    // order, skipping empty pulls and everything a previous ingest
    // already froze — appends are incremental, so the data file after
    // `--days N` then `--days M` equals one cold `--days M` run.
    let days: Vec<_> = collection_days(&study).into_iter().take(day_cap).collect();
    let already = store.freezer.len();
    let mut planned = 0usize;
    let mut appended = 0usize;
    for &day in &days {
        for meta in &study.blocklists.catalog {
            let members = study.blocklists.members_at(meta.id, day);
            if members.is_empty() {
                continue;
            }
            planned += 1;
            if planned <= already {
                continue;
            }
            let snap = ar_blocklists::Snapshot {
                list: meta.id,
                day,
                members,
            };
            store
                .freezer
                .append(&encode_snapshot_record(&snap))
                .map_err(|e| format!("freeze: {e}"))?;
            appended += 1;
        }
    }
    if appended > 0 {
        obs.event(
            "store",
            ar_obs::EventKind::RecordFrozen,
            None,
            appended as u64,
            format!(
                "froze {appended} daily snapshot record(s) over {} day(s)",
                days.len()
            ),
        );
    }
    // `daily_snapshots` is the canonical per-list view; make sure the
    // day-major traversal above agrees with it on record counts.
    debug_assert!({
        let per_list: usize = study
            .blocklists
            .catalog
            .iter()
            .map(|m| {
                daily_snapshots(&study.blocklists, m.id)
                    .iter()
                    .filter(|s| days.contains(&s.day) && !s.members.is_empty())
                    .count()
            })
            .sum();
        per_list == planned
    });

    // The delta chain of daily reputation snapshot generations:
    // generation i+1 serves day i; deltas are stored keyed by the
    // generation they produce and self-verify on application.
    let policy = GreylistPolicy::default();
    let mut deltas = 0usize;
    let mut changes = 0usize;
    let mut prev = days
        .first()
        .map(|&d| address_reuse::day_reputation_snapshot(&study, d, 1, policy.clone()));
    for (i, &day) in days.iter().enumerate().skip(1) {
        let Some(base) = prev.as_ref() else { break };
        let next =
            address_reuse::day_reputation_snapshot(&study, day, (i + 1) as u64, policy.clone());
        let delta = SnapshotDelta::compute(base, &next);
        let rebuilt = delta
            .apply(base)
            .map_err(|e| format!("delta self-check: {e}"))?;
        if rebuilt.content_checksum() != next.content_checksum() {
            return Err("delta application diverged from direct rebuild".into());
        }
        changes += delta.change_count();
        store
            .keyed
            .put(
                Column::SnapshotDelta,
                StoreKey::new((i + 1) as u64, 0),
                &delta.to_bytes(),
            )
            .map_err(|e| format!("store delta: {e}"))?;
        deltas += 1;
        prev = Some(next);
    }
    if deltas > 0 {
        obs.event(
            "store",
            ar_obs::EventKind::DeltaApplied,
            None,
            deltas as u64,
            format!("self-verified and stored {deltas} generation delta(s)"),
        );
    }

    println!(
        "ingest: {} day(s), {} snapshot record(s) frozen ({} new, {} total), {} delta(s) stored ({} change entries), {} study phase(s) resumed from store",
        days.len(),
        planned,
        appended,
        store.freezer.len(),
        deltas,
        changes,
        resume_hits,
    );
    Ok(())
}

fn store_verify(dir: &std::path::Path) -> Result<(), String> {
    use ar_blocklists::decode_snapshot_record;
    use ar_store::{Column, SnapshotDelta, Store};

    let obs = ar_obs::Obs::new();
    let (store, open_report) = Store::open(dir, &obs).map_err(|e| format!("open store: {e}"))?;
    let frozen_intact = store.freezer.verify().map_err(|e| e.to_string())?;
    let frozen_total = store.freezer.len();
    let (values_intact, values_corrupt) = store.keyed.verify().map_err(|e| e.to_string())?;
    // Frozen payloads must also decode as snapshot records.
    let mut undecodable = 0usize;
    for i in 0..frozen_total {
        match store.freezer.get(i) {
            Ok(payload) if decode_snapshot_record(&payload).is_some() => {}
            _ => undecodable += 1,
        }
    }
    // Stored deltas must unframe and decode.
    let mut bad_deltas = 0usize;
    for key in store
        .keyed
        .keys(Column::SnapshotDelta)
        .map_err(|e| e.to_string())?
    {
        match store.keyed.get(Column::SnapshotDelta, key) {
            Ok(Some(bytes)) if SnapshotDelta::from_bytes(&bytes).is_ok() => {}
            _ => bad_deltas += 1,
        }
    }
    println!(
        "verify: freezer {frozen_intact}/{frozen_total} intact ({} dropped at open, {} torn bytes), keyed {values_intact} intact / {values_corrupt} corrupt, {undecodable} undecodable record(s), {bad_deltas} bad delta(s)",
        open_report.dropped_entries, open_report.torn_bytes,
    );
    let corrupt = (frozen_total - frozen_intact) + values_corrupt + undecodable + bad_deltas;
    if corrupt > 0 {
        Err(format!("{corrupt} corrupt object(s) in the store"))
    } else {
        Ok(())
    }
}

fn store_compact(dir: &std::path::Path) -> Result<(), String> {
    let obs = ar_obs::Obs::new();
    let (mut store, open_report) =
        ar_store::Store::open(dir, &obs).map_err(|e| format!("open store: {e}"))?;
    let before = store.freezer.len() + open_report.dropped_entries;
    let kept = store.freezer.compact().map_err(|e| e.to_string())?;
    println!("compact: kept {kept} of {before} record(s)");
    Ok(())
}

fn store_delta(dir: &std::path::Path) -> Result<(), String> {
    use ar_store::{Column, SnapshotDelta, Store};

    let obs = ar_obs::Obs::new();
    let (store, _) = Store::open(dir, &obs).map_err(|e| format!("open store: {e}"))?;
    let keys = store
        .keyed
        .keys(Column::SnapshotDelta)
        .map_err(|e| e.to_string())?;
    if keys.is_empty() {
        println!("no deltas stored; run `store ingest` first");
        return Ok(());
    }
    println!(
        "{:<12} {:<12} {:<10} {:<18} continuity",
        "base gen", "next gen", "changes", "next checksum"
    );
    let mut prev_next: Option<(u64, u64)> = None;
    let mut breaks = 0usize;
    for key in keys {
        let bytes = store
            .keyed
            .get(Column::SnapshotDelta, key)
            .map_err(|e| e.to_string())?
            .ok_or("delta vanished mid-listing")?;
        let delta = SnapshotDelta::from_bytes(&bytes).map_err(|e| e.to_string())?;
        let continuous = match prev_next {
            None => true,
            Some((gen, sum)) => delta.base_generation == gen && delta.base_checksum == sum,
        };
        if !continuous {
            breaks += 1;
        }
        println!(
            "{:<12} {:<12} {:<10} {:#018x} {}",
            delta.base_generation,
            delta.next_generation,
            delta.change_count(),
            delta.next_checksum,
            if continuous { "ok" } else { "BROKEN" }
        );
        prev_next = Some((delta.next_generation, delta.next_checksum));
    }
    if breaks > 0 {
        Err(format!("{breaks} break(s) in the delta chain"))
    } else {
        Ok(())
    }
}

fn cmd_catalog() -> Result<(), String> {
    let catalog = build_catalog();
    println!(
        "{:<40} {:<18} {:<16} survey-used",
        "list", "maintainer", "category"
    );
    for meta in &catalog {
        println!(
            "{:<40} {:<18} {:<16} {}",
            meta.name,
            meta.maintainer,
            meta.category.name(),
            if meta.survey_used { "*" } else { "" }
        );
    }
    println!("total: {} lists", catalog.len());
    Ok(())
}
