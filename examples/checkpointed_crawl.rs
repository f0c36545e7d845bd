//! Long-crawl operations: checkpoint a crawl to disk mid-window, restart,
//! and resume to an identical result — plus the bounded message log the
//! paper describes ("the crawler logs all the messages sent and all the
//! messages received with the timestamps").
//!
//! ```sh
//! cargo run --release --example checkpointed_crawl
//! ```

use ar_crawler::{crawl, crawl_until, resume, CrawlCheckpoint, CrawlConfig};
use ar_dht::{SimNetwork, SimParams};
use ar_simnet::alloc::{AllocationPlan, InterestSet};
use ar_simnet::codec;
use ar_simnet::time::{date, TimeWindow};
use ar_simnet::{Seed, Universe, UniverseConfig};

fn main() {
    let universe = Universe::generate(Seed(11), &UniverseConfig::tiny());
    let window = TimeWindow::new(date(2019, 8, 3), date(2019, 8, 10));
    let alloc = AllocationPlan::build(&universe, window, InterestSet::Observable);

    let mut config = CrawlConfig::new(window);
    config.log_head = 5;
    config.log_tail = 5;

    // Reference: one uninterrupted run.
    let full = {
        let mut net = SimNetwork::new(&universe, &alloc, SimParams::default());
        crawl(&mut net, &config)
    };

    // Operational run: crawl three days, checkpoint to disk, "restart",
    // resume to the end.
    let mut net = SimNetwork::new(&universe, &alloc, SimParams::default());
    let checkpoint = crawl_until(&mut net, &config, date(2019, 8, 6));
    let path = std::env::temp_dir().join("ar-crawl-checkpoint.bin");
    std::fs::write(&path, codec::to_bytes(&checkpoint)).expect("write checkpoint");
    println!(
        "checkpointed at {} ({} bytes)",
        checkpoint.resume_at,
        std::fs::metadata(&path).unwrap().len(),
    );

    let restored: CrawlCheckpoint =
        codec::decode_all(&std::fs::read(&path).unwrap()).expect("checkpoint decodes");
    let resumed = resume(&mut net, &config, restored);

    println!(
        "\n                 {:>14} {:>14}",
        "uninterrupted", "resumed"
    );
    println!(
        "unique IPs       {:>14} {:>14}",
        full.stats.unique_ips, resumed.stats.unique_ips
    );
    println!(
        "pings sent       {:>14} {:>14}",
        full.stats.pings_sent, resumed.stats.pings_sent
    );
    println!(
        "NATed verdicts   {:>14} {:>14}",
        full.stats.natted_ips, resumed.stats.natted_ips
    );
    assert_eq!(full.stats.unique_ips, resumed.stats.unique_ips);
    assert_eq!(full.stats.natted_ips, resumed.stats.natted_ips);
    assert_eq!(codec::to_bytes(&full), codec::to_bytes(&resumed));
    println!("\nresumed crawl is bit-identical to the uninterrupted one ✓");

    // The message log (paper §3.1): bounded retention, exact counters.
    println!(
        "\nmessage log: {} total ({} sent / {} received), {} records retained{}",
        resumed.log.total,
        resumed.log.sent,
        resumed.log.received,
        resumed.log.retained(),
        if resumed.log.truncated() {
            " (truncated)"
        } else {
            ""
        }
    );
    for record in resumed.log.records().take(5) {
        println!("  {:?}", record);
    }
    let _ = std::fs::remove_file(&path);
}
