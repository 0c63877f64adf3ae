//! The CLI subcommands, split along their dependency line: the nine
//! [`circuit`] commands compile one matrix over `smm-bitserial` and
//! `smm-models`; the four [`serving`] commands run and read the TCP
//! server over `smm-server` and `smm-store`.

pub mod circuit;
pub mod serving;

pub use circuit::{cgra, compare, dot, mul, stream, synth, system, trace, verilog};
pub use serving::{loadgen, serve, stats, store};

type CmdResult = Result<(), String>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;
    use crate::matrix_source::resolve;

    fn run_cmd(words: &[&str]) -> Result<String, String> {
        let raw: Vec<String> = words.iter().map(|s| s.to_string()).collect();
        let args = Args::parse(&raw).map_err(|e| e.0)?;
        let mut out = Vec::new();
        match args.command.as_str() {
            "synth" => synth(&args, &mut out)?,
            "stream" => stream(&args, &mut out)?,
            "serve" => serve(&args, &mut out)?,
            "loadgen" => loadgen(&args, &mut out)?,
            "stats" => stats(&args, &mut out)?,
            "system" => system(&args, &mut out)?,
            "trace" => trace(&args, &mut out)?,
            "mul" => mul(&args, &mut out)?,
            "verilog" => verilog(&args, &mut out)?,
            "dot" => dot(&args, &mut out)?,
            "compare" => compare(&args, &mut out)?,
            "cgra" => cgra(&args, &mut out)?,
            "store" => store(&args, &mut out)?,
            _ => unreachable!(),
        }
        Ok(String::from_utf8(out).unwrap())
    }

    #[test]
    fn synth_reports_key_lines() {
        let text = run_cmd(&["synth", "--dim", "32", "--seed", "7"]).unwrap();
        assert!(text.contains("matrix: 32x32"));
        assert!(text.contains("resources:"));
        assert!(text.contains("latency:"));
        assert!(text.contains("Equation 5"));
    }

    #[test]
    fn mul_matches_reference() {
        let text =
            run_cmd(&["mul", "--dim", "8", "--sparsity", "0.5", "--vector", "1 2 3 4 5 6 7 8"])
                .unwrap();
        assert!(text.contains("MATCHES"));
    }

    #[test]
    fn mul_rejects_bad_vector() {
        let e = run_cmd(&["mul", "--dim", "4", "--vector", "1 two 3 4"]).unwrap_err();
        assert!(e.contains("bad vector element"));
    }

    #[test]
    fn verilog_and_dot_emit() {
        let v = run_cmd(&["verilog", "--dim", "4", "--module", "tiny"]).unwrap();
        assert!(v.contains("module tiny ("));
        let d = run_cmd(&["dot", "--dim", "4"]).unwrap();
        assert!(d.starts_with("digraph"));
    }

    #[test]
    fn compare_lists_all_platforms() {
        let text = run_cmd(&["compare", "--dim", "64", "--batch", "4"]).unwrap();
        assert!(text.contains("FPGA"));
        assert!(text.contains("cuSPARSE"));
        assert!(text.contains("SIGMA"));
        assert!(text.contains("batch 4"));
    }

    #[test]
    fn cgra_reports_swap_gap() {
        let text = run_cmd(&["cgra", "--dim", "32"]).unwrap();
        assert!(text.contains("pipeline wave"));
        assert!(text.contains("denser"));
    }

    #[test]
    fn csd_flag_changes_encoding() {
        let pn = run_cmd(&["synth", "--dim", "32", "--seed", "3"]).unwrap();
        let csd = run_cmd(&["synth", "--dim", "32", "--seed", "3", "--csd"]).unwrap();
        let ones = |s: &str| -> u64 {
            s.lines()
                .find(|l| l.starts_with("ones"))
                .unwrap()
                .split(':')
                .nth(1)
                .unwrap()
                .trim()
                .parse()
                .unwrap()
        };
        assert!(ones(&csd) < ones(&pn));
        assert!(run_cmd(&["synth", "--dim", "8", "--csd", "--policy", "bogus"]).is_err());
    }

    #[test]
    fn stream_checks_against_independent_products() {
        let text = run_cmd(&["stream", "--dim", "12", "--batch", "3"]).unwrap();
        assert!(text.contains("MATCHES"));
        assert!(run_cmd(&["stream", "--dim", "4", "--batch", "0"]).is_err());
    }

    #[test]
    fn serve_runs_for_a_duration_and_reports() {
        let text = run_cmd(&[
            "serve", "--addr", "127.0.0.1:0", "--backend", "dense", "--duration", "0.2",
            "--queue-depth", "3",
        ])
        .unwrap();
        assert!(text.contains("listening on 127.0.0.1:"), "{text}");
        assert!(text.contains("queue depth 3"), "{text}");
        assert!(text.contains("served 0 requests"), "{text}");
    }

    #[test]
    fn bare_serve_runs_on_the_server_config_defaults() {
        // No option but a free port and a duration: the backend and the
        // queue depth come from `ServerConfig::default()`, and the usage
        // text names the same defaults.
        let defaults = smm_server::ServerConfig::default();
        let text = run_cmd(&["serve", "--addr", "127.0.0.1:0", "--duration", "0.1"]).unwrap();
        let (backend, depth) = (defaults.backend.name(), defaults.queue_depth);
        assert!(text.contains(&format!("(backend {backend}, queue depth {depth})")), "{text}");
        for named in [
            format!("(default {backend}; auto"),
            format!("before Busy (default {depth})"),
            format!("(default {} = one per core)", defaults.threads),
            format!("(built sessions, default {})", defaults.max_matrices),
            format!("(matrix bodies, default {})", defaults.max_warm),
        ] {
            assert!(crate::USAGE.contains(&named), "usage lacks `{named}`");
        }
        let addr = format!("(default {}", serving::DEFAULT_ADDR);
        assert_eq!(crate::USAGE.matches(&addr).count(), 3, "serve, loadgen and stats");
    }

    #[test]
    fn serve_rejects_bad_flags() {
        assert!(run_cmd(&["serve", "--backend", "tpu"]).is_err());
        // Negative, non-finite or past `Duration::MAX`: refused before
        // the listener binds.
        for bad in ["-1", "nan", "inf", "1e30"] {
            let e = run_cmd(&["serve", "--duration", bad]).unwrap_err();
            assert!(e.contains("--duration must be"), "{bad}: {e}");
        }
        // Unbindable address.
        assert!(run_cmd(&["serve", "--addr", "999.0.0.1:1", "--duration", "0.1"]).is_err());
    }

    #[test]
    fn serve_with_store_dir_reports_the_fleet() {
        let dir = std::env::temp_dir().join(format!("smm-cli-serve-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.display().to_string();
        let text = run_cmd(&[
            "serve", "--addr", "127.0.0.1:0", "--duration", "0.2", "--store-dir", &dir_s,
            "--max-warm", "7",
        ])
        .unwrap();
        assert!(text.contains("persistent matrix store in"), "{text}");
        assert!(text.contains("fleet: 0 hot / 0 warm / 0 cold"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_warm_ls_gc_round_trip() {
        let dir = std::env::temp_dir().join(format!("smm-cli-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.display().to_string();

        // warm: persist a generated matrix …
        let text =
            run_cmd(&["store", "warm", "--store-dir", &dir_s, "--dim", "8", "--seed", "9"])
                .unwrap();
        assert!(text.contains("warmed 0x"), "{text}");
        assert!(text.contains("8x8"), "{text}");

        // … ls sees it …
        let text = run_cmd(&["store", "ls", "--store-dir", &dir_s]).unwrap();
        assert!(text.contains("1 digest(s)"), "{text}");
        assert!(text.contains("[matrix]"), "{text}");

        // … and a clean store survives gc untouched. `ls` is the default
        // action; bogus actions and a missing --store-dir are refused.
        let text = run_cmd(&["store", "gc", "--store-dir", &dir_s]).unwrap();
        assert!(text.contains("removed 0"), "{text}");
        assert!(run_cmd(&["store", "--store-dir", &dir_s])
            .unwrap()
            .contains("1 digest(s)"));
        assert!(run_cmd(&["store", "shrink", "--store-dir", &dir_s])
            .unwrap_err()
            .contains("unknown store action"));
        assert!(run_cmd(&["store", "ls"]).unwrap_err().contains("--store-dir"));

        // A server pointed at the warmed directory serves the matrix
        // without any client ever uploading it.
        let matrix = resolve(
            &Args::parse(&["store".into(), "--dim".into(), "8".into(), "--seed".into(), "9".into()])
                .unwrap(),
        )
        .unwrap();
        let server = smm_server::start(smm_server::ServerConfig {
            store_dir: Some(dir_s.clone()),
            ..smm_server::ServerConfig::default()
        })
        .unwrap();
        let mut client = smm_server::Client::connect(server.local_addr()).unwrap();
        let a = vec![1i32; 8];
        assert_eq!(
            client.gemv(matrix.digest(), &a).unwrap(),
            smm_core::gemv::vecmat(&a, &matrix).unwrap()
        );
        let stats = server.shutdown();
        assert!(stats.store_hits >= 1, "{stats:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn loadgen_round_trips_against_a_live_server() {
        let server = smm_server::start(smm_server::ServerConfig::default()).unwrap();
        let text = run_cmd(&[
            "loadgen",
            "--addr",
            &server.local_addr().to_string(),
            "--dim",
            "12",
            "--clients",
            "2",
            "--batch",
            "5",
            "--duration",
            "0.3",
        ])
        .unwrap();
        assert!(text.contains("vectors served and verified"), "{text}");
        assert!(text.contains("MATCHES"), "{text}");
        assert!(text.contains("p50"), "{text}");
        // The loadgen prints its own numbers; the server's are `stats`.
        assert!(!text.contains("fleet:"), "{text}");
        let seen = run_cmd(&["stats", "--addr", &server.local_addr().to_string()]).unwrap();
        assert!(seen.contains("fleet: 1 hot / 0 warm / 0 cold = 1 matrix(es)"), "{seen}");
        assert!(!seen.contains("cache"), "{seen}");
        let stats = server.shutdown();
        assert!(stats.requests > 0);
        assert_eq!(stats.tier_hot + stats.tier_warm + stats.tier_cold, 1);
    }

    #[test]
    fn loadgen_requests_a_backend_in_load_matrix() {
        let server = smm_server::start(smm_server::ServerConfig::default()).unwrap();
        let text = run_cmd(&[
            "loadgen",
            "--addr",
            &server.local_addr().to_string(),
            "--dim",
            "10",
            "--sparsity",
            "0.95",
            "--backend",
            "auto",
            "--clients",
            "1",
            "--batch",
            "4",
            "--duration",
            "0.2",
        ])
        .unwrap();
        // The per-request auto choice overrode the server's csr default —
        // same engine here, but the reply names what the planner chose.
        assert!(text.contains("engine csr"), "{text}");
        assert!(text.contains("MATCHES"), "{text}");
        server.shutdown();
    }

    #[test]
    fn loadgen_drives_the_sigma_backend_end_to_end() {
        // The acceptance gate: a multi-client loadgen run against a
        // sigma-backed session completes with zero mismatches against
        // the dense reference.
        let server = smm_server::start(smm_server::ServerConfig::default()).unwrap();
        let text = run_cmd(&[
            "loadgen",
            "--addr",
            &server.local_addr().to_string(),
            "--dim",
            "16",
            "--backend",
            "sigma",
            "--clients",
            "2",
            "--batch",
            "6",
            "--duration",
            "0.3",
        ])
        .unwrap();
        assert!(text.contains("engine sigma"), "{text}");
        assert!(text.contains("vectors served and verified"), "{text}");
        assert!(text.contains("MATCHES"), "{text}");
        server.shutdown();
    }

    #[test]
    fn serve_accepts_the_sigma_backend() {
        let text = run_cmd(&[
            "serve", "--addr", "127.0.0.1:0", "--backend", "sigma", "--duration", "0.1",
        ])
        .unwrap();
        assert!(text.contains("backend sigma"), "{text}");
    }

    #[test]
    fn stats_prints_the_stage_table() {
        let server = smm_server::start(smm_server::ServerConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        // Put one request through so the stage table has samples.
        run_cmd(&[
            "loadgen", "--addr", &addr, "--dim", "8", "--clients", "1", "--batch", "3",
            "--duration", "0.2",
        ])
        .unwrap();
        let text = run_cmd(&["stats", "--addr", &addr]).unwrap();
        for stage in ["decode", "queue", "plan", "shard", "reassemble", "compute", "encode"] {
            assert!(text.contains(stage), "missing {stage}: {text}");
        }
        assert!(text.contains("requests"), "{text}");
        assert!(text.contains("µs"), "{text}");
        // The fleet line `serve` prints at shutdown: one printer for both.
        assert!(text.contains("fleet: 1 hot / 0 warm / 0 cold = 1 matrix(es)"), "{text}");
        server.shutdown();
    }

    #[test]
    fn stats_fails_cleanly_without_a_server() {
        let e = run_cmd(&["stats", "--addr", "127.0.0.1:1"]).unwrap_err();
        assert!(e.contains("connecting"), "{e}");
    }

    #[test]
    fn serve_reports_its_metrics_endpoint() {
        let text = run_cmd(&[
            "serve", "--addr", "127.0.0.1:0", "--metrics-addr", "127.0.0.1:0", "--duration",
            "0.1",
        ])
        .unwrap();
        assert!(text.contains("metrics on http://127.0.0.1:"), "{text}");
        assert!(text.contains("/metrics"), "{text}");
        // Without the flag, no metrics line appears.
        let plain = run_cmd(&["serve", "--addr", "127.0.0.1:0", "--duration", "0.1"]).unwrap();
        assert!(!plain.contains("metrics on"), "{plain}");
    }

    #[test]
    fn loadgen_fails_cleanly_without_a_server() {
        // Port 1 on loopback is essentially never listening.
        let e = run_cmd(&[
            "loadgen", "--addr", "127.0.0.1:1", "--dim", "4", "--duration", "0.1",
        ])
        .unwrap_err();
        assert!(e.contains("load generation"), "{e}");
        for bad in ["0", "nan", "inf", "1e30"] {
            let e = run_cmd(&["loadgen", "--dim", "4", "--duration", bad]).unwrap_err();
            assert!(e.contains("--duration must be"), "{bad}: {e}");
        }
    }

    #[test]
    fn system_reports_cycle_breakdown() {
        let text = run_cmd(&["system", "--dim", "16"]).unwrap();
        assert!(text.contains("memory-to-memory:"));
        assert!(text.contains("load"));
        assert!(text.contains("store"));
    }

    #[test]
    fn trace_emits_vcd_and_caps_size() {
        let text = run_cmd(&["trace", "--dim", "4"]).unwrap();
        assert!(text.contains("$timescale"));
        assert!(run_cmd(&["trace", "--dim", "128"]).is_err());
    }

    #[test]
    fn output_file_writing() {
        let path = std::env::temp_dir().join("smm_cli_out.v");
        let p = path.to_str().unwrap();
        let text = run_cmd(&["verilog", "--dim", "4", "--output", p]).unwrap();
        assert!(text.contains("wrote Verilog"));
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("endmodule"));
    }
}
