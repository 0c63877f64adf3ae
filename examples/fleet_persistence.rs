//! Fleet persistence walkthrough: restart a server without a re-upload.
//!
//! The paper's economics rest on compiling a circuit *once* for a
//! long-lived matrix and amortizing it over many products. A server
//! pointed at a `store_dir` extends that across process lifetimes:
//!
//! 1. Start a server with a store directory; load a matrix and serve a
//!    product. The load persisted one file under the directory — the
//!    matrix, what a restart reads back — digest-addressed (XXH64 over
//!    the matrix's body): the digest a matrix is filed under is also the
//!    check its bytes must pass on the way back in.
//! 2. Shut the server down and start a *new* one on the same directory.
//!    The scan rediscovers the fleet as cold entries.
//! 3. Serve the same digest without any client re-uploading it: the
//!    cold entry promotes from disk (one store hit, one promotion), its
//!    `csr` engine is built from the body read back, and the product is
//!    bit-identical.
//! 4. Bound the tiers so a third matrix overflows: capacity pressure
//!    demotes to disk instead of refusing the load.
//! 5. Inspect the directory with the `Store` API directly — the same
//!    surface the `smm store ls|gc|warm` CLI wraps.
//!
//! Run with: `cargo run --release --example fleet_persistence`

use spatial_smm::core::generate::{element_sparse_matrix, random_vector};
use spatial_smm::core::gemv::vecmat;
use spatial_smm::core::rng::seeded;
use spatial_smm::server::{Client, ServerConfig};
use spatial_smm::store::Store;

fn main() {
    let dir = std::env::temp_dir().join(format!("smm-fleet-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || ServerConfig {
        store_dir: Some(dir.display().to_string()),
        ..ServerConfig::default()
    };

    // -- 1. First life: load, serve, persist -----------------------------
    let mut rng = seeded(21);
    let v = element_sparse_matrix(24, 20, 8, 0.8, true, &mut rng).expect("generating V");
    let a = random_vector(24, 8, true, &mut rng).expect("generating a");
    let expect = vecmat(&a, &v).expect("reference");

    let digest = {
        let server = spatial_smm::server::start(config()).expect("starting first life");
        let mut client = Client::connect(server.local_addr()).expect("connecting");
        let loaded = client.load_matrix_with(&v, None).expect("loading V");
        assert!(!loaded.already_loaded, "first life compiles fresh");
        assert_eq!(client.gemv(loaded.digest, &a).expect("serving"), expect);
        let stats = server.shutdown();
        assert_eq!((stats.store_promotions, stats.store_hits), (0, 0), "{stats:?}");
        println!(
            "first life: loaded {:#018x}, served {} request(s), fleet {} hot",
            loaded.digest, stats.requests, stats.tier_hot
        );
        loaded.digest
    };

    // -- 2+3. Second life: the store answers, no upload ------------------
    {
        let server = spatial_smm::server::start(config()).expect("starting second life");
        let mut client = Client::connect(server.local_addr()).expect("connecting");
        let before = client.stats().expect("stats");
        println!(
            "second life boot: fleet rediscovered {} cold digest(s) from disk",
            before.tier_cold
        );
        // Straight to the product — no upload. The cold entry promotes.
        assert_eq!(client.gemv(digest, &a).expect("serving from store"), expect);
        let stats = server.shutdown();
        assert_eq!(
            (stats.store_promotions, stats.store_hits),
            (1, 1),
            "the one request promotes the cold digest from its one store read: {stats:?}"
        );
        println!(
            "second life: {} store hit(s), {} promotion(s) building a csr engine from the \
             stored body — bit-identical product",
            stats.store_hits, stats.store_promotions
        );
    }

    // -- 4. Pressure demotes instead of refusing -------------------------
    {
        let server = spatial_smm::server::start(ServerConfig {
            max_matrices: 1,
            max_warm: 1,
            ..config()
        })
        .expect("starting bounded life");
        let mut client = Client::connect(server.local_addr()).expect("connecting");
        for seed in [31, 32, 33] {
            let m = element_sparse_matrix(12, 12, 8, 0.6, true, &mut rng).expect("generating");
            let b = random_vector(12, 8, true, &mut rng).expect("generating");
            client.load_matrix(&m).expect("loads are never refused");
            assert_eq!(
                client.gemv(m.digest(), &b).expect("serving"),
                vecmat(&b, &m).expect("reference"),
                "seed {seed}"
            );
        }
        let stats = server.shutdown();
        println!(
            "bounded life: tiers {} hot / {} warm / {} cold, {} demotion(s) — nothing refused",
            stats.tier_hot, stats.tier_warm, stats.tier_cold, stats.store_demotions
        );
    }

    // -- 5. The directory itself, through the Store API ------------------
    let store = Store::open(&dir).expect("opening store");
    let entries = store.scan().expect("scanning");
    let bytes: u64 = entries.iter().map(|e| e.bytes).sum();
    println!("on disk: {} digest(s), {} bytes of digest-addressed artifacts", entries.len(), bytes);
    let report = store.gc().expect("collecting");
    println!(
        "gc: kept {} file(s), removed {} — a clean store survives gc untouched",
        report.kept, report.removed
    );

    let _ = std::fs::remove_dir_all(&dir);
}
