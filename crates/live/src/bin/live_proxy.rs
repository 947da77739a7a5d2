//! Live sidecar proxy: hosts the §2.3 in-network retransmission state
//! machines — the exact structs the simulator runs, with their `Hello`
//! handshake, supervision, and (optionally) authenticated control channel
//! — on a pair of real UDP sockets.
//!
//! A full chain needs two instances bracketing the lossy segment:
//!
//! ```text
//! live-proxy --role sender-side \
//!     --bind-host 127.0.0.1:7101 --peer-host 127.0.0.1:7001 \
//!     --bind-sub  127.0.0.1:7102 --peer-sub  127.0.0.1:7201
//! live-proxy --role receiver-side \
//!     --bind-sub  127.0.0.1:7201 --peer-sub  127.0.0.1:7102 \
//!     --bind-down 127.0.0.1:7202 --peer-down 127.0.0.1:7002
//! ```
//!
//! Both instances of a chain must be started with the same `--threshold`
//! (default 64): the receiver-side proxy accepts only a `Hello` offering its
//! own quACK shape, so a mismatch refuses the handshake and the flow runs
//! end to end, unassisted.
//!
//! `--auth-secret` (same value on both instances, distinct `--nonce`)
//! seals the control channel; `--drop-every N` adds deterministic loss on
//! the sender-side proxy's subpath egress for demos without a real lossy
//! link.
//!
//! `--admin 127.0.0.1:9090` starts the live introspection endpoint
//! (`/metrics`, `/flows`, `/healthz`, `/timeseries`; see
//! [`sidecar_live::admin`]); `--sample-ms N` adds a wall-clock sampler
//! thread feeding `/timeseries` at that cadence (default 1000 when
//! `--admin` is set).

use sidecar_live::admin::{AdminHandles, AdminServer};
use sidecar_live::cli::Args;
use sidecar_live::LiveDriver;
use sidecar_netsim::node::IfaceId;
use sidecar_netsim::time::{SimDuration, SimTime};
use sidecar_netsim::Driver;
use sidecar_proto::config::{AuthConfig, QuackFrequency, SidecarConfig, SupervisionConfig};
use sidecar_proto::protocols::retx::{ReceiverSideProxy, SenderSideProxy};
use std::net::{SocketAddr, UdpSocket};

const USAGE: &str = "--role sender-side|receiver-side \
                     [--bind-host A --peer-host A] [--bind-sub A --peer-sub A] \
                     [--bind-down A --peer-down A] [--threshold N] [--quack-ms N] \
                     [--subpath-rtt-ms N] [--auth-secret N --nonce N] \
                     [--drop-every N] [--seed N] [--max-secs S] \
                     [--admin ADDR] [--sample-ms N]\n\
                     --threshold (default 64) must be the same on both proxies of a \
                     chain, or the handshake is refused and the flow runs end to end";

fn bound(args: &Args, bind_key: &str, peer_key: &str) -> (UdpSocket, SocketAddr) {
    let bind = args.require(bind_key).to_string();
    let peer = args.require(peer_key).to_string();
    let socket = UdpSocket::bind(&bind).unwrap_or_else(|e| {
        eprintln!("bind {bind}: {e}");
        std::process::exit(1);
    });
    let peer = peer.parse().unwrap_or_else(|e| {
        eprintln!("bad --{peer_key} {peer}: {e}");
        std::process::exit(1);
    });
    (socket, peer)
}

fn main() {
    let args = Args::parse(USAGE);
    let role = args.require("role").to_string();
    let threshold: usize = args.parse_or("threshold", 64);
    let quack_ms: u64 = args.parse_or("quack-ms", 5);
    let subpath_rtt_ms: u64 = args.parse_or("subpath-rtt-ms", 10);
    let seed: u64 = args.parse_or("seed", 3);
    let max_secs: f64 = args.parse_or("max-secs", 3600.0);
    let drop_every: u64 = args.parse_or("drop-every", 0);
    let auth_secret: Option<u64> = args.parse_opt("auth-secret");
    let auth = match args.parse_opt::<u64>("nonce") {
        Some(0) => args.fail("--nonce must be nonzero"),
        Some(_) if auth_secret.is_none() => args.fail("--nonce needs --auth-secret"),
        nonce => auth_secret
            .map(|secret| AuthConfig::from_secret(secret, 1).with_nonce(nonce.unwrap_or(1))),
    };
    let admin_addr = args.get("admin").map(str::to_string);
    let sample_ms: u64 = args.parse_or("sample-ms", 1000);

    let cfg = SidecarConfig {
        threshold,
        frequency: QuackFrequency::Adaptive(SimDuration::from_millis(quack_ms)),
        reorder_grace: SimDuration::from_millis(quack_ms.max(2) / 2),
        ..SidecarConfig::paper_default()
    };

    let mut driver = LiveDriver::new(seed);
    // The admin endpoint reads Clone-shared observability handles, so it
    // serves live numbers for the whole run without touching the datapath.
    let _admin = admin_addr.map(|addr| {
        let handles = AdminHandles {
            registry: driver.obs().metrics.clone(),
            scoreboard: driver.obs().scoreboard.clone(),
        };
        let interval = (sample_ms > 0).then(|| std::time::Duration::from_millis(sample_ms));
        let server = AdminServer::spawn(addr.as_str(), handles, interval).unwrap_or_else(|e| {
            eprintln!("admin bind {addr}: {e}");
            std::process::exit(1);
        });
        eprintln!("admin listening on http://{}", server.local_addr());
        server
    });
    match role.as_str() {
        // Interfaces follow the simulator's convention: the sender-side
        // proxy speaks to the server on IfaceId(0) and the subpath on
        // IfaceId(1); the receiver-side proxy hears the subpath on
        // IfaceId(0) and the client on IfaceId(1).
        "sender-side" => {
            let (host_sock, host_peer) = bound(&args, "bind-host", "peer-host");
            let (sub_sock, sub_peer) = bound(&args, "bind-sub", "peer-sub");
            args.finish();
            let mut node = SenderSideProxy::new(
                cfg,
                SimDuration::from_millis(subpath_rtt_ms),
                4_096,
                SupervisionConfig::default(),
            );
            if let Some(auth) = auth {
                node = node.with_auth(auth);
            }
            let id = driver.install(Box::new(node));
            driver
                .attach_socket(id, IfaceId(0), host_sock, host_peer)
                .expect("attach");
            driver
                .attach_socket(id, IfaceId(1), sub_sock, sub_peer)
                .expect("attach");
            if drop_every > 0 {
                driver.set_egress_loss(id, IfaceId(1), drop_every);
            }
            driver.run_until(SimTime::ZERO + SimDuration::from_secs_f64(max_secs));
            let node: &SenderSideProxy = (&driver as &dyn Driver).node_as(id);
            println!("retransmitted {}", node.retransmitted);
            println!("control_sent {}", node.control_sent);
            println!("degradations {}", node.degradations());
        }
        "receiver-side" => {
            let (sub_sock, sub_peer) = bound(&args, "bind-sub", "peer-sub");
            let (down_sock, down_peer) = bound(&args, "bind-down", "peer-down");
            args.finish();
            let mut node = ReceiverSideProxy::new(cfg);
            if let Some(auth) = auth {
                node = node.with_auth(auth);
            }
            let id = driver.install(Box::new(node));
            driver
                .attach_socket(id, IfaceId(0), sub_sock, sub_peer)
                .expect("attach");
            driver
                .attach_socket(id, IfaceId(1), down_sock, down_peer)
                .expect("attach");
            driver.run_until(SimTime::ZERO + SimDuration::from_secs_f64(max_secs));
            let node: &ReceiverSideProxy = (&driver as &dyn Driver).node_as(id);
            println!("quacks_sent {}", node.quacks_sent);
            println!("quack_bytes {}", node.quack_bytes);
        }
        other => {
            eprintln!("unknown --role {other:?} (want sender-side or receiver-side)");
            std::process::exit(2);
        }
    }
    let stats = driver.stats();
    println!("driver_packets_in {}", stats.packets_in);
    println!("driver_packets_out {}", stats.packets_out);
    println!("decode_errors {}", stats.decode_errors);
}
