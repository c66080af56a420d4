//! Soak test: a long-running daemon keeps nothing for a connection once it
//! has closed. Its own test binary, so no other test's threads or
//! allocations move this process's resident set while it is measured.

use std::collections::BTreeSet;
use std::net::SocketAddr;

use hdc::rng::rng_for;
use hdc::{BinaryHv, Dim, RecordEncoder};
use lehdc::io::ModelBundle;
use lehdc::HdcModel;
use lehdc_serve::{Client, ServeConfig, Server};

const N_FEATURES: usize = 8;
const CYCLES: usize = 2_000;
const KEYS_CHECKED_AFTER: usize = 100;
const MAX_RSS_GROWTH_KB: u64 = 5 * 1024;

fn test_bundle() -> ModelBundle {
    let dim = Dim::new(256);
    let mut rng = rng_for(1, 0);
    ModelBundle {
        model: HdcModel::new((0..4).map(|_| BinaryHv::random(dim, &mut rng)).collect()).unwrap(),
        encoder: RecordEncoder::builder(dim, N_FEATURES)
            .levels(8)
            .seed(1)
            .build()
            .unwrap(),
        normalizer: None,
        selection: None,
    }
}

/// This process's resident set, from `/proc/self/status`.
fn vm_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("no VmRSS line in /proc/self/status:\n{status}"))
}

/// The names in a STATS reply, histogram fields included: every quoted
/// string in it is a key. Keys, not the reply's length, because counters
/// gain digits as they grow.
fn stats_keys(addr: SocketAddr) -> BTreeSet<String> {
    let stats = Client::connect(addr).unwrap().stats().unwrap();
    stats
        .split('"')
        .skip(1)
        .step_by(2)
        .map(String::from)
        .collect()
}

#[test]
fn closed_connections_leave_no_memory_or_metric_keys_behind() {
    let bundle = test_bundle();
    let row = [0.25f32; N_FEATURES];
    let expected = bundle.classify(&row).unwrap() as u32;
    let server = Server::start(
        bundle,
        "127.0.0.1:0",
        &ServeConfig::default(),
        obs::Recorder::builder().build(),
    )
    .unwrap();
    let addr = server.local_addr();
    let cycle = || {
        let mut client = Client::connect(addr).unwrap();
        client.ping().unwrap();
        assert_eq!(client.classify(&row).unwrap(), (expected, 0));
    };

    let rss_before = vm_rss_kb();
    for _ in 0..KEYS_CHECKED_AFTER {
        cycle();
    }
    let keys_early = stats_keys(addr);
    for _ in KEYS_CHECKED_AFTER..CYCLES {
        cycle();
    }
    let keys_late = stats_keys(addr);
    let rss_after = vm_rss_kb();

    assert_eq!(
        keys_early, keys_late,
        "STATS gained or lost keys between cycle {KEYS_CHECKED_AFTER} and cycle {CYCLES}"
    );
    let growth = rss_after.saturating_sub(rss_before);
    assert!(
        growth < MAX_RSS_GROWTH_KB,
        "VmRSS grew {growth} kB ({rss_before} -> {rss_after} kB) over {CYCLES} cycles"
    );
    server.shutdown();
    server.join();
}
